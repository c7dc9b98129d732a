/**
 * @file
 * One simulated core: a benchmark instance advancing through its
 * phases, an assigned DVFS level (or power-gated state), and accessors
 * the power-management policies use to evaluate "what would this core
 * consume / deliver at level L" (the throughput-power ratio inputs of
 * paper Section 4.3).
 *
 * Every input of those queries except leakage's die-temperature term
 * is fixed per (program phase, DVFS level), so each core builds one
 * immutable model table in its constructor: for every phase of its
 * program and every level, the interval model's IPC, the throughput
 * and the Wattch dynamic power. A power read is then a table lookup
 * plus PowerModel::leakageAt at the live die temperature, which is
 * bit-identical to PowerModel::evaluate(...).totalW() because
 * totalW() = dynamicW + leakageAt(vdd, T) and only the leakage term
 * depends on T. The table moves with the program under thread motion
 * (swapWorkloads) and is never invalidated: the phase index selects
 * the row.
 */

#ifndef SOLARCORE_CPU_CORE_HPP
#define SOLARCORE_CPU_CORE_HPP

#include <cstdint>
#include <vector>

#include "cpu/dvfs.hpp"
#include "cpu/perf_model.hpp"
#include "cpu/power_model.hpp"
#include "cpu/profile.hpp"
#include "util/random.hpp"

namespace solarcore::cpu {

/** A single core with a running benchmark and a DVFS state. */
class Core
{
  public:
    /**
     * @param id      core index within the chip
     * @param table   shared DVFS table (must outlive the core)
     * @param perf    performance model (read only to build the table)
     * @param power   shared power model (must outlive the core)
     * @param profile benchmark to run (copied; phase playback is
     *                per-core, offset by @p seed so identical programs
     *                on different cores decorrelate)
     * @param seed    deterministic phase-jitter seed
     */
    Core(int id, const DvfsTable &table, const PerfModel &perf,
         const PowerModel &power, BenchmarkProfile profile,
         std::uint64_t seed);

    int id() const { return id_; }
    const std::string &benchmarkName() const { return profile_.name; }
    const BenchmarkProfile &profile() const { return profile_; }

    /** Current DVFS level (0 = slowest). Meaningless while gated. */
    int level() const { return level_; }
    void setLevel(int level);

    bool gated() const { return gated_; }

    void
    setGated(bool gated)
    {
        if (gated != gated_)
            ++gateTransitions_;
        gated_ = gated;
    }

    /**
     * Lifetime state-change ledgers (the observability layer surfaces
     * them as chip.core.dvfsTransitions / .gateTransitions): every
     * effective level change and every gate/ungate, including steps a
     * tracking event applies and then reverts -- on hardware those are
     * real VID transitions too.
     */
    std::uint64_t dvfsTransitions() const { return dvfsTransitions_; }
    std::uint64_t gateTransitions() const { return gateTransitions_; }

    void setDieTempC(double t) { dieTempC_ = t; }
    double dieTempC() const { return dieTempC_; }

    /** The phase the core is currently executing. */
    const PhaseProfile &currentPhase() const;

    /** Power at the current level, phase and die temperature [W]. */
    double
    powerW() const
    {
        return gated_ ? powerModel_->gatedPower().totalW()
                      : powerAtLevel(level_);
    }

    /** Committed instructions per cycle at the current state. */
    double
    ipc() const
    {
        if (gated_)
            return 0.0;
        table_->point(level_); // the range check, before the row index
        return row()[level_].ipc;
    }

    /** Committed instructions per second at the current state. */
    double
    throughput() const
    {
        return gated_ ? 0.0 : throughputAtLevel(level_);
    }

    /**
     * What-if queries used by the load-adaptation policies: the
     * current phase at @p level (and the current die temperature).
     * Panic when @p level is out of the DVFS table's range.
     */
    double
    powerAtLevel(int level) const
    {
        // DvfsTable::point panics on an out-of-range level; read it
        // before the row is indexed.
        const double vdd = table_->voltage(level);
        return row()[level].dynamicW +
            powerModel_->leakageAt(vdd, dieTempC_);
    }

    double
    throughputAtLevel(int level) const
    {
        table_->point(level); // the range check, before the row index
        return row()[level].throughput;
    }

    /**
     * Advance wall-clock time: move the phase playback forward and
     * accumulate retired instructions and consumed energy at the
     * current operating point.
     */
    void step(double seconds);

    /**
     * Exchange the running programs of two cores (thread motion,
     * paper reference [36]): benchmark identity, phase playback and
     * model table move with the program; DVFS state and the
     * retirement/energy ledgers stay with the core.
     */
    static void swapWorkloads(Core &a, Core &b);

    double instructionsRetired() const { return instructions_; }
    double energyJoules() const { return energy_; }

  private:
    /** Model outputs of one phase at one DVFS level. */
    struct ModelPoint
    {
        double ipc = 0.0;
        double throughput = 0.0; //!< instructions per second
        double dynamicW = 0.0;   //!< PowerModel::evaluate's dynamicW
    };

    /** The current phase's row, indexed by level (unchecked). */
    const ModelPoint *
    row() const
    {
        return model_.data() +
            phaseIndex_ * static_cast<std::size_t>(table_->numLevels());
    }

    int id_;
    const DvfsTable *table_;
    const PowerModel *powerModel_;
    BenchmarkProfile profile_;
    /** Phase-major: entry (phase, level) at phase * levels + level. */
    std::vector<ModelPoint> model_;

    int level_ = 0;
    bool gated_ = false;
    double dieTempC_ = 50.0;
    std::uint64_t dvfsTransitions_ = 0;
    std::uint64_t gateTransitions_ = 0;

    std::size_t phaseIndex_ = 0;
    double phaseElapsed_ = 0.0;      //!< seconds into the current phase
    std::vector<double> phaseDur_;   //!< jittered per-phase durations

    double instructions_ = 0.0;
    double energy_ = 0.0;
};

} // namespace solarcore::cpu

#endif // SOLARCORE_CPU_CORE_HPP
