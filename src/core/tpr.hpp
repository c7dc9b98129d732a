/**
 * @file
 * Throughput-power ratio (TPR) machinery (paper Section 4.3,
 * Figure 10).
 *
 * The TPR of a prospective DVFS step is delta-throughput over
 * delta-power. When the solar budget grows, the step with the highest
 * TPR buys the most performance for the new watts; when the budget
 * shrinks, retiring the step with the lowest TPR sheds watts at the
 * smallest performance cost. Ungating a gated core and gating a
 * level-0 core are treated as ordinary steps so per-core power gating
 * (PCPG) falls out of the same mechanism.
 */

#ifndef SOLARCORE_CORE_TPR_HPP
#define SOLARCORE_CORE_TPR_HPP

#include <vector>

#include "cpu/chip.hpp"

namespace solarcore::core {

/** A single prospective one-notch change to one core. */
struct StepCandidate
{
    int coreIndex = -1;
    int fromLevel = 0;
    int toLevel = 0;
    bool fromGated = false;
    bool toGated = false;
    double deltaPowerW = 0.0;      //!< signed power change of the step
    double deltaThroughput = 0.0;  //!< signed instruction-rate change
    bool valid = false;

    /**
     * Throughput-power ratio of the step:
     * |delta throughput| / |delta power|.
     */
    double
    tpr() const
    {
        return deltaPowerW != 0.0
            ? deltaThroughput / deltaPowerW
            : 0.0;
    }
};

/**
 * The next upward step available to core @p index: ungate a gated
 * core to the lowest level, or raise the level by one. Invalid when
 * already at the top level.
 */
StepCandidate upStep(const cpu::MultiCoreChip &chip, int index);

/**
 * The next downward step available to core @p index: lower the level
 * by one, or gate a level-0 core. Invalid when already gated.
 */
StepCandidate downStep(const cpu::MultiCoreChip &chip, int index);

/** Apply a (valid) candidate to the chip. */
void applyStep(cpu::MultiCoreChip &chip, const StepCandidate &step);

/**
 * Undo an applied candidate: restore the core's level, then its gate.
 * Leaves the chip's settings() and transition counters exactly as
 * applySettings() of the pre-step snapshot would.
 */
void revertStep(cpu::MultiCoreChip &chip, const StepCandidate &step);

/** All valid upward steps, one per eligible core (for trace ranks). */
std::vector<StepCandidate> allUpSteps(const cpu::MultiCoreChip &chip);

/** All valid downward steps, one per eligible core (for trace ranks). */
std::vector<StepCandidate> allDownSteps(const cpu::MultiCoreChip &chip);

} // namespace solarcore::core

#endif // SOLARCORE_CORE_TPR_HPP
