#include "tpr.hpp"

#include "util/logging.hpp"

namespace solarcore::core {

StepCandidate
upStep(const cpu::MultiCoreChip &chip, int index)
{
    StepCandidate step;
    step.coreIndex = index;
    const cpu::Core &c = chip.core(index);
    const auto &table = chip.dvfs();

    if (c.gated()) {
        // Ungate to the lowest operating point.
        step.fromGated = true;
        step.toGated = false;
        step.fromLevel = c.level();
        step.toLevel = table.minLevel();
        const double gated_w = chip.powerModel().gatedPower().totalW();
        step.deltaPowerW = c.powerAtLevel(table.minLevel()) - gated_w;
        step.deltaThroughput = c.throughputAtLevel(table.minLevel());
        step.valid = true;
        return step;
    }
    if (c.level() >= table.maxLevel())
        return step; // nothing above

    step.fromLevel = c.level();
    step.toLevel = c.level() + 1;
    step.deltaPowerW =
        c.powerAtLevel(step.toLevel) - c.powerAtLevel(step.fromLevel);
    step.deltaThroughput =
        c.throughputAtLevel(step.toLevel) -
        c.throughputAtLevel(step.fromLevel);
    step.valid = true;
    return step;
}

StepCandidate
downStep(const cpu::MultiCoreChip &chip, int index)
{
    StepCandidate step;
    step.coreIndex = index;
    const cpu::Core &c = chip.core(index);
    const auto &table = chip.dvfs();

    if (c.gated())
        return step; // nothing below

    if (c.level() <= table.minLevel()) {
        if (!chip.gatingAllowed())
            return step; // PCPG disabled: the bottom level is the floor
        // Gate the core entirely (PCPG).
        step.fromGated = false;
        step.toGated = true;
        step.fromLevel = c.level();
        step.toLevel = c.level();
        const double gated_w = chip.powerModel().gatedPower().totalW();
        step.deltaPowerW = gated_w - c.powerAtLevel(c.level());
        step.deltaThroughput = -c.throughputAtLevel(c.level());
        step.valid = true;
        return step;
    }

    step.fromLevel = c.level();
    step.toLevel = c.level() - 1;
    step.deltaPowerW =
        c.powerAtLevel(step.toLevel) - c.powerAtLevel(step.fromLevel);
    step.deltaThroughput =
        c.throughputAtLevel(step.toLevel) -
        c.throughputAtLevel(step.fromLevel);
    step.valid = true;
    return step;
}

void
applyStep(cpu::MultiCoreChip &chip, const StepCandidate &step)
{
    SC_ASSERT(step.valid, "applyStep: invalid candidate");
    cpu::Core &c = chip.core(step.coreIndex);
    c.setGated(step.toGated);
    if (!step.toGated)
        c.setLevel(step.toLevel);
}

void
revertStep(cpu::MultiCoreChip &chip, const StepCandidate &step)
{
    SC_ASSERT(step.valid, "revertStep: invalid candidate");
    cpu::Core &c = chip.core(step.coreIndex);
    c.setLevel(step.fromLevel);
    c.setGated(step.fromGated);
}

std::vector<StepCandidate>
allUpSteps(const cpu::MultiCoreChip &chip)
{
    std::vector<StepCandidate> out;
    out.reserve(static_cast<std::size_t>(chip.numCores()));
    for (int i = 0; i < chip.numCores(); ++i) {
        auto s = upStep(chip, i);
        if (s.valid)
            out.push_back(s);
    }
    return out;
}

std::vector<StepCandidate>
allDownSteps(const cpu::MultiCoreChip &chip)
{
    std::vector<StepCandidate> out;
    out.reserve(static_cast<std::size_t>(chip.numCores()));
    for (int i = 0; i < chip.numCores(); ++i) {
        auto s = downStep(chip, i);
        if (s.valid)
            out.push_back(s);
    }
    return out;
}

} // namespace solarcore::core
