#include "controller.hpp"

#include <algorithm>

#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace solarcore::core {

SolarCoreController::SolarCoreController(const pv::IvSource &panel,
                                         cpu::MultiCoreChip &chip,
                                         LoadAdapter &adapter,
                                         ControllerConfig config)
    : panel_(&panel), arrayPanel_(dynamic_cast<const pv::PvArray *>(&panel)),
      chip_(&chip), adapter_(&adapter), config_(config),
      converter_(0.5, 8.0, config.converterEfficiency)
{
    SC_ASSERT(config_.railNominalV > 0.0, "controller: bad rail voltage");
    SC_ASSERT(config_.marginFraction >= 0.0 && config_.marginFraction < 0.5,
              "controller: bad margin");
}

pv::PreparedArray &
SolarCoreController::preparedArray()
{
    if (!prepared_) {
        prepared_.emplace(arrayPanel_->module(),
                          arrayPanel_->modulesSeries(),
                          arrayPanel_->modulesParallel());
    }
    return *prepared_;
}

void
SolarCoreController::stagePanel(const pv::PreparedEnvironment &state)
{
    if (!preparedPath())
        return;
    const pv::Environment &env = arrayPanel_->environment();
    SC_ASSERT(state.env.irradiance == env.irradiance &&
                  state.env.cellTempC == env.cellTempC,
              "stagePanel: state prepared for another environment");
    preparedArray().adopt(state);
}

power::NetworkState
SolarCoreController::pinRail(double demand_w)
{
    // Non-uniform panels (partial shading / composite strings) and the
    // Newton oracle keep the legacy call sequence, which doubles as the
    // measurable parity baseline. The PV kernel choice does not enter
    // here: it governs findMppBatch alone. After stagePanel() the
    // environment is already in place and setEnvironment is a no-op.
    if (preparedPath()) {
        pv::PreparedArray &prepared = preparedArray();
        prepared.setEnvironment(arrayPanel_->environment());
        return power::pinRailVoltage(prepared, converter_,
                                     config_.railNominalV, demand_w);
    }
    return power::pinRailVoltage(*panel_, converter_, config_.railNominalV,
                                 demand_w);
}

bool
SolarCoreController::sustainable(double demand_w)
{
    if (demand_w <= 0.0)
        return false;
    const double with_margin = demand_w * (1.0 + config_.marginFraction);
    return pinRail(with_margin).valid;
}

int
SolarCoreController::rankOf(const StepCandidate &step,
                            const std::vector<StepCandidate> &candidates,
                            bool upward)
{
    int rank = 1;
    for (const auto &c : candidates) {
        if (c.coreIndex == step.coreIndex)
            continue;
        if (upward ? c.tpr() > step.tpr() : c.tpr() < step.tpr())
            ++rank;
    }
    return rank;
}

void
SolarCoreController::traceStep(const StepCandidate &step, int rank)
{
    obs::TraceEvent e;
    e.core = static_cast<std::int16_t>(step.coreIndex);
    e.v0 = step.deltaPowerW;
    if (step.fromGated != step.toGated) {
        e.kind = obs::EventKind::Pcpg;
        e.arg0 = step.toGated ? 1 : 0;
    } else {
        e.kind = obs::EventKind::DvfsChange;
        e.i0 = step.fromLevel;
        e.i1 = step.toLevel;
        e.arg0 = static_cast<std::uint8_t>(std::min(rank, 255));
        e.v1 = step.tpr();
    }
    trace_->emit(e);
}

void
SolarCoreController::shedUntilSustainable(TrackResult &result)
{
    while (!sustainable(chip_->totalPower())) {
        std::vector<StepCandidate> candidates;
        if (trace_)
            candidates = allDownSteps(*chip_);
        const auto step = adapter_->decreaseOneStep(*chip_);
        if (!step.valid) {
            result.solarViable = false;
            return;
        }
        if (trace_)
            traceStep(step, rankOf(step, candidates, false));
        ++result.stepsDown;
        ++totalSteps_;
    }
    result.solarViable = true;
}

TrackResult
SolarCoreController::track()
{
    SC_PROFILE_SCOPE("controller.track");
    TrackResult result;
    adapter_->beginTrackingPeriod(*chip_);

    // Step 1: restore the rail -- shed until the present demand fits.
    shedUntilSustainable(result);
    if (!result.solarViable) {
        if (trace_) {
            obs::TraceEvent e;
            e.kind = obs::EventKind::MpptTrack;
            e.i0 = result.stepsUp;
            e.i1 = result.stepsDown;
            e.v0 = chip_->totalPower();
            e.arg0 = 0;
            trace_->emit(e);
        }
        return result;
    }

    // Steps 2+3: climb toward the MPP one notch at a time, retuning k
    // (inside pinRailVoltage) after every notch. When the policy's
    // chosen notch overshoots, revert it and fall through to the fill
    // stage below -- that notch marks the paper's inflection point.
    for (int i = 0; i < config_.maxTuneSteps; ++i) {
        std::vector<StepCandidate> candidates;
        if (trace_)
            candidates = allUpSteps(*chip_);
        const auto step = adapter_->increaseOneStep(*chip_);
        if (!step.valid)
            break; // every core already at the top level
        if (!sustainable(chip_->totalPower())) {
            revertStep(*chip_, step); // inflection: back off
            break;
        }
        if (trace_)
            traceStep(step, rankOf(step, candidates, true));
        ++result.stepsUp;
        ++totalSteps_;
    }

    // Fill stage (paper Figure 12: iterate "until the aggregated
    // multi-core power approximates the new budget"): after the
    // policy's preferred notch no longer fits, absorb the remaining
    // headroom with the smallest-power notches that still fit. This
    // runs identically for every policy, so it narrows the margin
    // without disturbing the policies' allocation character.
    for (int i = 0; i < config_.maxTuneSteps; ++i) {
        StepCandidate best;
        for (int c = 0; c < chip_->numCores(); ++c) {
            const auto s = upStep(*chip_, c);
            if (!s.valid || s.deltaPowerW <= 0.0)
                continue;
            if (!best.valid || s.deltaPowerW < best.deltaPowerW)
                best = s;
        }
        if (!best.valid)
            break;
        std::vector<StepCandidate> candidates;
        if (trace_)
            candidates = allUpSteps(*chip_);
        applyStep(*chip_, best);
        if (!sustainable(chip_->totalPower())) {
            revertStep(*chip_, best);
            break;
        }
        if (trace_)
            traceStep(best, rankOf(best, candidates, true));
        ++result.stepsUp;
        ++totalSteps_;
    }

    // Final settle: pin the rail for the demand we ended at.
    result.net = pinRail(chip_->totalPower());
    result.solarViable = result.net.valid;

    if (trace_) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::MpptTrack;
        e.i0 = result.stepsUp;
        e.i1 = result.stepsDown;
        e.v0 = chip_->totalPower();
        e.arg0 = result.solarViable ? 1 : 0;
        trace_->emit(e);
    }
    return result;
}

TrackResult
SolarCoreController::enforceRail()
{
    SC_PROFILE_SCOPE("controller.enforce");
    TrackResult result;
    const double demand = chip_->totalPower();
    if (sustainable(demand)) {
        result.solarViable = true;
        result.net = pinRail(demand);
        return result;
    }
    shedUntilSustainable(result);
    if (result.solarViable) {
        result.net = pinRail(chip_->totalPower());
        result.solarViable = result.net.valid;
    }
    return result;
}

} // namespace solarcore::core
