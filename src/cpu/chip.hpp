/**
 * @file
 * The 8-core chip: owns the shared DVFS table and power model,
 * constructs one Core (with its model table) per workload slot, and
 * aggregates power/throughput for the SolarCore controller.
 */

#ifndef SOLARCORE_CPU_CHIP_HPP
#define SOLARCORE_CPU_CHIP_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/core.hpp"
#include "cpu/machine_config.hpp"

namespace solarcore::cpu {

/**
 * An N-core chip running a multiprogrammed workload. Neither copyable
 * nor movable: every Core points at its chip's DVFS table and power
 * model, so a copy's cores would read the source's members.
 */
class MultiCoreChip
{
  public:
    /**
     * @param config     chip/core configuration (Table 4)
     * @param table      DVFS operating points shared by all cores
     * @param energy     power model parameters
     * @param workload   one benchmark per core; its size must equal
     *                   config.numCores
     * @param seed       deterministic phase-jitter seed
     */
    MultiCoreChip(const ChipConfig &config, const DvfsTable &table,
                  const EnergyParams &energy,
                  std::vector<BenchmarkProfile> workload,
                  std::uint64_t seed);

    MultiCoreChip(const MultiCoreChip &) = delete;
    MultiCoreChip &operator=(const MultiCoreChip &) = delete;

    int numCores() const { return static_cast<int>(cores_.size()); }
    Core &core(int i);
    const Core &core(int i) const;

    const DvfsTable &dvfs() const { return table_; }
    const ChipConfig &config() const { return config_; }
    const PowerModel &powerModel() const { return powerModel_; }

    /** Total chip power at the current per-core states [W]; with the
     *  paper's ideal regulators, also the 12 V-rail draw. */
    double totalPower() const;

    /** Total committed instructions per second at current states. */
    double totalThroughput() const;

    /** Advance all cores by @p seconds of wall-clock time. */
    void step(double seconds);

    /** Sum of instructions retired by all cores since construction. */
    double totalInstructions() const;

    /** Sum of energy consumed by all cores since construction [J]. */
    double totalEnergy() const;

    /** Chip-wide DVFS level changes since construction (all cores). */
    std::uint64_t totalDvfsTransitions() const;

    /** Chip-wide gate/ungate events since construction (all cores). */
    std::uint64_t totalGateTransitions() const;

    /** Snapshot of one core's power-management state. */
    struct CoreSetting
    {
        int level = 0;
        bool gated = false;
    };

    /** Snapshot all per-core DVFS/gating states. */
    std::vector<CoreSetting> settings() const;

    /** Restore a snapshot taken with settings(). */
    void applySettings(const std::vector<CoreSetting> &settings);

    /** Set every core to @p level and ungate it. */
    void setAllLevels(int level);

    /** Gate every core. */
    void gateAll();

    /** Migrate the programs of cores @p i and @p j (thread motion). */
    void swapWorkloads(int i, int j);

    /**
     * Allow or forbid per-core power gating (PCPG). With gating
     * forbidden the adaptation policies bottom out at the lowest DVFS
     * level -- the knob the PCPG ablation flips.
     */
    void setGatingAllowed(bool allowed) { gatingAllowed_ = allowed; }
    bool gatingAllowed() const { return gatingAllowed_; }

    /** Chip power with every core ungated at the lowest level [W]. */
    double minUngatedPower() const;

    /** Chip power with every core at the highest level [W]. */
    double maxPower() const;

  private:
    ChipConfig config_;
    DvfsTable table_;
    PowerModel powerModel_;
    std::vector<Core> cores_;
    bool gatingAllowed_ = true;
};

} // namespace solarcore::cpu

#endif // SOLARCORE_CPU_CHIP_HPP
