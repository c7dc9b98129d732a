#include "load_adapter.hpp"

#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace solarcore::core {

namespace {

StepCandidate
applyIfValid(cpu::MultiCoreChip &chip, const StepCandidate &step)
{
    if (step.valid)
        applyStep(chip, step);
    return step;
}

} // namespace

StepCandidate
TprOptAdapter::increaseOneStep(cpu::MultiCoreChip &chip)
{
    SC_PROFILE_SCOPE("tpr.step");
    // Highest throughput gain per added watt wins the new power.
    StepCandidate best;
    double best_tpr = -1.0;
    for (int i = 0; i < chip.numCores(); ++i) {
        const auto s = upStep(chip, i);
        if (!s.valid || s.deltaPowerW <= 0.0)
            continue; // defensive: an up-step should always cost power
        const double tpr = s.deltaThroughput / s.deltaPowerW;
        if (tpr > best_tpr) {
            best_tpr = tpr;
            best = s;
        }
    }
    return applyIfValid(chip, best);
}

StepCandidate
TprOptAdapter::decreaseOneStep(cpu::MultiCoreChip &chip)
{
    SC_PROFILE_SCOPE("tpr.step");
    // Shed the step that loses the least throughput per saved watt.
    StepCandidate best;
    double best_cost = 1e301;
    for (int i = 0; i < chip.numCores(); ++i) {
        const auto s = downStep(chip, i);
        if (!s.valid || s.deltaPowerW >= 0.0)
            continue;
        const double cost = (-s.deltaThroughput) / (-s.deltaPowerW);
        if (cost < best_cost) {
            best_cost = cost;
            best = s;
        }
    }
    return applyIfValid(chip, best);
}

StepCandidate
RoundRobinAdapter::increaseOneStep(cpu::MultiCoreChip &chip)
{
    const int n = chip.numCores();
    for (int tried = 0; tried < n; ++tried) {
        const int idx = (upCursor_ + tried) % n;
        const auto s = upStep(chip, idx);
        if (s.valid) {
            upCursor_ = (idx + 1) % n;
            return applyIfValid(chip, s);
        }
    }
    return StepCandidate{};
}

StepCandidate
RoundRobinAdapter::decreaseOneStep(cpu::MultiCoreChip &chip)
{
    const int n = chip.numCores();
    for (int tried = 0; tried < n; ++tried) {
        const int idx = (downCursor_ + tried) % n;
        const auto s = downStep(chip, idx);
        if (s.valid) {
            downCursor_ = (idx + 1) % n;
            return applyIfValid(chip, s);
        }
    }
    return StepCandidate{};
}

StepCandidate
IndividualCoreAdapter::increaseOneStep(cpu::MultiCoreChip &chip)
{
    // Fill the lowest-indexed running core to its top level before the
    // next; only ungate another core once every running core is maxed.
    for (int i = 0; i < chip.numCores(); ++i) {
        if (chip.core(i).gated())
            continue;
        const auto s = upStep(chip, i);
        if (s.valid)
            return applyIfValid(chip, s);
    }
    for (int i = 0; i < chip.numCores(); ++i) {
        const auto s = upStep(chip, i); // ungates the first gated core
        if (s.valid)
            return applyIfValid(chip, s);
    }
    return StepCandidate{};
}

StepCandidate
IndividualCoreAdapter::decreaseOneStep(cpu::MultiCoreChip &chip)
{
    // Drain the highest-indexed core above the bottom level before
    // touching the next (concentrating the remaining power in the
    // low-indexed cores); gate cores only once everything runs at the
    // lowest level.
    for (int i = chip.numCores() - 1; i >= 0; --i) {
        const cpu::Core &c = chip.core(i);
        if (c.gated() || c.level() <= chip.dvfs().minLevel())
            continue;
        const auto s = downStep(chip, i);
        if (s.valid)
            return applyIfValid(chip, s);
    }
    for (int i = chip.numCores() - 1; i >= 0; --i) {
        const auto s = downStep(chip, i); // gates the next level-0 core
        if (s.valid)
            return applyIfValid(chip, s);
    }
    return StepCandidate{};
}

void
IcMotionAdapter::beginTrackingPeriod(cpu::MultiCoreChip &chip)
{
    // Selection sort by mid-level efficiency (throughput per watt):
    // the best program migrates to core 0, the next to core 1, ...
    const int mid = chip.dvfs().numLevels() / 2;
    auto score = [&](int i) {
        const auto &c = chip.core(i);
        return c.throughputAtLevel(mid) / c.powerAtLevel(mid);
    };
    for (int pos = 0; pos < chip.numCores(); ++pos) {
        int best = pos;
        for (int i = pos + 1; i < chip.numCores(); ++i) {
            if (score(i) > score(best))
                best = i;
        }
        chip.swapWorkloads(pos, best);
        if (trace_ && best != pos) {
            obs::TraceEvent e;
            e.kind = obs::EventKind::ThreadMotion;
            e.core = static_cast<std::int16_t>(pos);
            e.i0 = best;
            trace_->emit(e);
        }
    }
}

const char *
policyName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::FixedPower:   return "Fixed-Power";
      case PolicyKind::MpptIc:       return "MPPT&IC";
      case PolicyKind::MpptRr:       return "MPPT&RR";
      case PolicyKind::MpptOpt:      return "MPPT&Opt";
      case PolicyKind::MpptIcMotion: return "MPPT&IC+TM";
    }
    SC_PANIC("policyName: bad kind");
    return "?";
}

std::unique_ptr<LoadAdapter>
makeAdapter(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::MpptOpt:
        return std::make_unique<TprOptAdapter>();
      case PolicyKind::MpptRr:
        return std::make_unique<RoundRobinAdapter>();
      case PolicyKind::MpptIc:
        return std::make_unique<IndividualCoreAdapter>();
      case PolicyKind::MpptIcMotion:
        return std::make_unique<IcMotionAdapter>();
      case PolicyKind::FixedPower:
        return nullptr;
    }
    SC_PANIC("makeAdapter: bad kind");
    return nullptr;
}

} // namespace solarcore::core
