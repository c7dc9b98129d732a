/**
 * @file
 * Per-core DVFS operating points and VID encoding (paper Sections 4.1
 * and 5): six voltage/frequency pairs from 2.5 GHz / 1.45 V down to
 * 1.0 GHz / 0.95 V in 300 MHz / 0.1 V steps, communicated to on-chip
 * VRMs through a Voltage Identification Digital (VID) code.
 */

#ifndef SOLARCORE_CPU_DVFS_HPP
#define SOLARCORE_CPU_DVFS_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace solarcore::cpu {

/** One DVFS operating point. */
struct DvfsPoint
{
    double frequencyHz = 0.0;
    double voltage = 0.0;
};

/**
 * The table of per-core operating points, ordered ascending: level 0
 * is the slowest/lowest-voltage point, level size()-1 the fastest.
 */
class DvfsTable
{
  public:
    /** The paper's 6-point SpeedStep-style table. */
    static DvfsTable paperDefault();

    /**
     * A table with @p levels points interpolated over the paper's
     * range (1.0..2.5 GHz, 0.95..1.45 V). Used by the DVFS-granularity
     * ablation: the paper argues finer levels raise MPPT control
     * accuracy (Section 6.3).
     */
    static DvfsTable interpolated(int levels);

    /** Build from explicit points (ascending frequency required). */
    explicit DvfsTable(std::vector<DvfsPoint> points);

    int numLevels() const { return static_cast<int>(points_.size()); }
    int minLevel() const { return 0; }
    int maxLevel() const { return numLevels() - 1; }

    /** The operating point of @p level; panics when out of range. */
    const DvfsPoint &
    point(int level) const
    {
        if (level < 0 || level >= numLevels())
            levelOutOfRange(level);
        return points_[static_cast<std::size_t>(level)];
    }

    double frequency(int level) const { return point(level).frequencyHz; }
    double voltage(int level) const { return point(level).voltage; }

    /** Highest voltage in the table (the VRM full-scale). */
    double maxVoltage() const;

    /**
     * VID code for a level: the paper cites Intel's 6-bit VID mapping
     * 0.8375..1.6 V in 32 steps of 25 mV (even codes). We encode the
     * level's voltage as the nearest code.
     */
    std::uint8_t vid(int level) const;

    /** Level whose VID code is @p vid (nearest voltage match). */
    int levelFromVid(std::uint8_t vid) const;

    /**
     * Compact human-readable table summary for run manifests and
     * trace metadata, e.g. "6 levels: 1.00GHz@0.95V .. 2.50GHz@1.45V".
     */
    std::string describe() const;

  private:
    [[noreturn]] static void levelOutOfRange(int level);

    std::vector<DvfsPoint> points_;
};

} // namespace solarcore::cpu

#endif // SOLARCORE_CPU_DVFS_HPP
