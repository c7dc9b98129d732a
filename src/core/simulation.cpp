#include "simulation.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/fixed_power.hpp"
#include "core/tpr.hpp"
#include "cpu/thermal.hpp"
#include "obs/auditor.hpp"
#include "obs/profiler.hpp"
#include "obs/stats_registry.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "power/ats.hpp"
#include "power/battery.hpp"
#include "pv/mpp.hpp"
#include "pv/pv_kernel.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace solarcore::core {

namespace {

cpu::MultiCoreChip
buildChip(workload::WorkloadId workload, const SimConfig &cfg)
{
    const auto table = cfg.dvfsLevels == 6
        ? cpu::DvfsTable::paperDefault()
        : cpu::DvfsTable::interpolated(cfg.dvfsLevels);
    return cpu::MultiCoreChip(cpu::defaultChipConfig(), table,
                              cpu::EnergyParams{},
                              workload::workloadSet(workload), cfg.seed);
}

void
setDieTemps(cpu::MultiCoreChip &chip, double ambient_c)
{
    // Simple thermal proxy: dies run ~30 K above ambient under load.
    for (int i = 0; i < chip.numCores(); ++i)
        chip.core(i).setDieTempC(ambient_c + 30.0);
}

/**
 * One step of the per-core RC thermal loop: integrate each die's
 * temperature, feed it back into the leakage model, and throttle any
 * core past the limit. Returns the number of forced notch-downs.
 */
int
stepRcThermal(cpu::MultiCoreChip &chip,
              std::vector<cpu::ThermalModel> &thermal, double ambient_c,
              const SimConfig &cfg)
{
    int throttles = 0;
    for (int i = 0; i < chip.numCores(); ++i) {
        auto &core = chip.core(i);
        const double t = thermal[static_cast<std::size_t>(i)].step(
            core.power().totalW(), ambient_c, cfg.dtSeconds);
        core.setDieTempC(t);
        if (t > cfg.maxDieTempC && !core.gated() &&
            core.level() > chip.dvfs().minLevel()) {
            core.setLevel(core.level() - 1);
            ++throttles;
            if (cfg.trace) {
                obs::TraceEvent e;
                e.kind = obs::EventKind::ThermalThrottle;
                e.core = static_cast<std::int16_t>(i);
                e.v0 = t;
                cfg.trace->emit(e);
            }
        }
    }
    return throttles;
}

/** Emit a Retrack trigger event (tracing only). */
void
emitRetrack(obs::TraceBuffer *trace, obs::RetrackCause cause,
            double budget_w, double demand_w)
{
    obs::TraceEvent e;
    e.kind = obs::EventKind::Retrack;
    e.arg0 = static_cast<std::uint8_t>(cause);
    e.v0 = budget_w;
    e.v1 = demand_w;
    trace->emit(e);
}

/** Fold one simulated day's counters into the caller's registry. */
void
foldDayStats(obs::StatsRegistry &reg, const DayResult &day,
             const cpu::MultiCoreChip &chip)
{
    ++reg.scalar("sim.days", "simulated days folded into this registry");
    reg.scalar("sim.mppEnergyWh", "theoretical MPP energy [Wh]") +=
        day.mppEnergyWh;
    reg.scalar("sim.solarEnergyWh", "energy drawn from the panel [Wh]") +=
        day.solarEnergyWh;
    reg.scalar("sim.gridEnergyWh", "energy drawn from the utility [Wh]") +=
        day.gridEnergyWh;
    reg.scalar("sim.chipEnergyWh", "energy the chip consumed [Wh]") +=
        day.chipEnergyWh;
    reg.scalar("sim.solarInstructions",
               "instructions retired on solar power") +=
        day.solarInstructions;
    reg.scalar("sim.totalInstructions", "instructions retired in total") +=
        day.totalInstructions;
    reg.scalar("sim.thermalThrottles",
               "forced notch-downs from overheating") +=
        day.thermalThrottles;
    reg.scalar("ats.transfers", "automatic transfer switchovers") +=
        day.transferCount;
    reg.scalar("controller.retracks",
               "tracking events (all trigger causes)") += day.retracks;
    reg.scalar("controller.steps",
               "DVFS notches moved by the controller") +=
        static_cast<double>(day.controllerSteps);
    reg.formula("sim.solarUtilization",
                dayFormulaByName("sim.solarUtilization"),
                "solar energy / MPP energy over all folded days");

    const auto cores = static_cast<std::size_t>(chip.numCores());
    auto &dvfs = reg.vector("chip.core.dvfsTransitions", cores,
                            "per-core DVFS level changes");
    auto &gates = reg.vector("chip.core.gateTransitions", cores,
                             "per-core PCPG gate/ungate transitions");
    dvfs.ensureLanes(cores);
    gates.ensureLanes(cores);
    for (std::size_t i = 0; i < cores; ++i) {
        const auto &core = chip.core(static_cast<int>(i));
        dvfs.lane(i) += static_cast<double>(core.dvfsTransitions());
        gates.lane(i) += static_cast<double>(core.gateTransitions());
    }
    reg.scalar("chip.dvfsTransitions", "DVFS level changes, all cores") +=
        static_cast<double>(chip.totalDvfsTransitions());
    reg.scalar("chip.gateTransitions", "PCPG transitions, all cores") +=
        static_cast<double>(chip.totalGateTransitions());
}

/** Caller-owned workspace when provided, else a per-call local one. */
SimWorkspace &
selectWorkspace(std::optional<SimWorkspace> &local, const SimConfig &cfg)
{
    if (cfg.workspace)
        return *cfg.workspace;
    local.emplace();
    return *local;
}

/**
 * Stage the per-step environments for @p trace into @p ws and solve
 * their MPPs in one findMppBatch call. The minute walk replicates the
 * drivers' main loops exactly, so step indices line up one-to-one.
 * assign()/clear() reset contents but keep capacity: with a reused
 * workspace this allocates only when the trace grows.
 */
void
stageStepMpps(SimWorkspace &ws, const pv::PvModule &module,
              const solar::SolarTrace &trace, double dt_min,
              const SimConfig &cfg)
{
    ws.stepEnvs.clear();
    for (double minute = trace.startMinute(); minute <= trace.endMinute();
         minute += dt_min) {
        const double g = trace.irradianceAt(minute);
        const double ambient = trace.ambientAt(minute);
        ws.stepEnvs.push_back({g, module.cellTempFromAmbient(ambient, g)});
    }
    ws.stepMpps.assign(ws.stepEnvs.size(), pv::MppResult{});
    pv::findMppBatch(module, cfg.modulesSeries, cfg.modulesParallel,
                     ws.stepEnvs, ws.stepMpps);
}

/**
 * Per-step waveform sampling shared by all three day drivers. Every
 * driver registers the identical channel superset (channels a driver
 * never sets stay NaN / empty CSV cells), which is what lets a
 * campaign concatenate per-unit recorders into one columnar file.
 */
class DayTelemetry
{
  public:
    DayTelemetry(obs::TelemetryRecorder *rec,
                 const cpu::MultiCoreChip &chip)
        : rec_(rec)
    {
        if (!rec_)
            return;
        panelP_ = rec_->channel("panel.power_w", "W");
        panelV_ = rec_->channel("panel.voltage_v", "V");
        panelI_ = rec_->channel("panel.current_a", "A");
        mppP_ = rec_->channel("mpp.power_w", "W");
        convK_ = rec_->channel("converter.ratio");
        railV_ = rec_->channel("rail.voltage_v", "V");
        chipP_ = rec_->channel("chip.power_w", "W");
        budgetP_ = rec_->channel("budget.power_w", "W");
        onSolar_ = rec_->channel("on_solar", "bool");
        soc_ = rec_->channel("battery.soc", "frac");
        for (int i = 0; i < chip.numCores(); ++i) {
            const std::string p = "core" + std::to_string(i);
            cores_.push_back({rec_->channel(p + ".freq_ghz", "GHz"),
                              rec_->channel(p + ".voltage_v", "V"),
                              rec_->channel(p + ".power_w", "W"),
                              rec_->channel(p + ".ipc"),
                              rec_->channel(p + ".tpr", "ips/W")});
        }
    }

    explicit operator bool() const { return rec_ != nullptr; }

    /**
     * Sample one step. @p net may be null (no solved electrical state
     * this step); pass NaN for @p converter_k / @p battery_soc when
     * the driver has no converter / battery.
     */
    void
    sample(double minute, const cpu::MultiCoreChip &chip, double mpp_w,
           double budget_w, bool on_solar,
           const power::NetworkState *net, double converter_k,
           double battery_soc)
    {
        if (!rec_)
            return;
        SC_PROFILE_SCOPE("telemetry");
        rec_->beginStep(minute);
        if (!std::isnan(mpp_w))
            rec_->set(mppP_, mpp_w);
        rec_->set(budgetP_, budget_w);
        rec_->set(chipP_, chip.totalPower());
        rec_->set(onSolar_, on_solar ? 1.0 : 0.0);
        if (net && net->valid) {
            rec_->set(panelP_, net->panelPower());
            rec_->set(panelV_, net->panel.voltage);
            rec_->set(panelI_, net->panel.current);
            rec_->set(railV_, net->load.voltage);
        }
        if (!std::isnan(converter_k))
            rec_->set(convK_, converter_k);
        if (!std::isnan(battery_soc))
            rec_->set(soc_, battery_soc);
        for (int i = 0; i < chip.numCores(); ++i) {
            const auto &core = chip.core(i);
            const auto &ch = cores_[static_cast<std::size_t>(i)];
            rec_->set(ch.power, core.power().totalW());
            if (!core.gated()) {
                rec_->set(ch.freq,
                          chip.dvfs().frequency(core.level()) / 1e9);
                rec_->set(ch.volt, chip.dvfs().voltage(core.level()));
                rec_->set(ch.ipc, core.perf().ipc);
            }
            const auto up = upStep(chip, i);
            if (up.valid)
                rec_->set(ch.tpr, up.tpr());
        }
        rec_->endStep();
    }

  private:
    struct CoreChannels
    {
        obs::TelemetryRecorder::ChannelId freq, volt, power, ipc, tpr;
    };

    obs::TelemetryRecorder *rec_;
    obs::TelemetryRecorder::ChannelId panelP_ = 0, panelV_ = 0,
        panelI_ = 0, mppP_ = 0, convK_ = 0, railV_ = 0, chipP_ = 0,
        budgetP_ = 0, onSolar_ = 0, soc_ = 0;
    std::vector<CoreChannels> cores_;
};

/** The per-core DVFS/gating legality sweep shared by the drivers. */
void
auditChipState(obs::Auditor &audit, const cpu::MultiCoreChip &chip)
{
    for (int i = 0; i < chip.numCores(); ++i) {
        const auto &core = chip.core(i);
        audit.checkDvfsLegality(i, core.level(), chip.dvfs().minLevel(),
                                chip.dvfs().maxLevel(), core.gated(),
                                chip.gatingAllowed(),
                                "core DVFS/gating state");
    }
}

} // namespace

DayResult
simulateDay(const pv::PvModule &module, const solar::SolarTrace &trace,
            workload::WorkloadId workload, const SimConfig &cfg)
{
    SC_ASSERT(!trace.empty(), "simulateDay: empty trace");
    SC_ASSERT(cfg.dtSeconds > 0.0, "simulateDay: bad step");
    SC_PROFILE_SCOPE("day");

    DayResult result;

    auto chip = buildChip(workload, cfg);
    chip.setGatingAllowed(cfg.pcpg);
    pv::PvArray array(module, cfg.modulesSeries, cfg.modulesParallel,
                      pv::kStc);

    const bool tracking = cfg.policy != PolicyKind::FixedPower;
    auto adapter = tracking ? makeAdapter(cfg.policy) : nullptr;
    std::optional<SolarCoreController> controller;
    if (tracking)
        controller.emplace(array, chip, *adapter, cfg.controller);

    const double threshold =
        tracking ? cfg.thresholdW : cfg.fixedBudgetW;
    power::TransferSwitch ats(threshold, 0.02 * threshold);

    obs::TraceBuffer *const tbuf = cfg.trace;
    ats.setTrace(tbuf);
    if (tracking)
        controller->setTrace(tbuf);
    DayTelemetry telem(cfg.telemetry, chip);
    obs::Auditor *const audit = cfg.audit;
    if (audit)
        audit->setTrace(tbuf);
    obs::HistogramStat *const err_hist = cfg.stats
        ? &cfg.stats->histogram("sim.periodErrorPct", 0.0, 50.0, 25,
                                "per-period relative tracking error [%]")
        : nullptr;

    // Tracking-error accounting (Table 7): per tracking period t the
    // relative error is |Pb - Pl| / Pb with Pb the mean budget and Pl
    // the mean consumption over the period; day aggregate is the
    // geometric mean across periods.
    GeometricMean period_errors(1e-4);
    RunningStats period_budget;
    RunningStats period_consumed;
    auto close_period = [&]() {
        if (period_budget.count() > 0 &&
            period_budget.mean() >= cfg.errorFloorW) {
            const double rel_err =
                std::abs(period_budget.mean() - period_consumed.mean()) /
                period_budget.mean();
            period_errors.add(rel_err);
            if (err_hist)
                err_hist->add(rel_err * 100.0);
            if (tbuf) {
                obs::TraceEvent e;
                e.kind = obs::EventKind::PeriodClose;
                e.v0 = period_budget.mean();
                e.v1 = period_consumed.mean();
                tbuf->emit(e);
            }
        }
        period_budget = RunningStats();
        period_consumed = RunningStats();
    };

    std::optional<SimWorkspace> local_ws;
    SimWorkspace &ws = selectWorkspace(local_ws, cfg);
    ws.thermal.assign(static_cast<std::size_t>(chip.numCores()),
                      cpu::ThermalModel());
    std::vector<cpu::ThermalModel> &thermal = ws.thermal;

    const double dt_min = cfg.dtSeconds / 60.0;

    // Batched MPP precompute: the per-step environment is a pure
    // function of the trace, so every per-step MPP solve collapses
    // into one batched call. A lane's result does not depend on its
    // batch position, and findMppBatch runs the per-step scalar path
    // under the Scalar kernel or the Newton oracle.
    stageStepMpps(ws, module, trace, dt_min, cfg);
    const std::vector<pv::MppResult> &step_mpps = ws.stepMpps;
    std::size_t step_index = 0;

    double last_track_minute = -1e9;
    double last_track_budget = 0.0;
    double last_track_demand = 0.0;
    bool was_on_solar = false;
    double last_timeline_minute = -1e9;

    chip.setAllLevels(chip.dvfs().maxLevel()); // boots on grid, full speed

    for (double minute = trace.startMinute(); minute <= trace.endMinute();
         minute += dt_min) {
        SC_PROFILE_SCOPE("step");
        if (cfg.trace)
            cfg.trace->setNow(minute);
        power::NetworkState step_net; //!< solved state, when tracking
        const double g = trace.irradianceAt(minute);
        const double ambient = trace.ambientAt(minute);
        array.setEnvironment({g, module.cellTempFromAmbient(ambient, g)});
        if (cfg.rcThermal) {
            // Close the power -> temperature -> leakage loop per core,
            // and throttle any core past the thermal limit.
            result.thermalThrottles +=
                stepRcThermal(chip, thermal, ambient, cfg);
        } else {
            setDieTemps(chip, ambient);
        }

        const pv::MppResult mpp = step_mpps[step_index++];
        result.mppEnergyWh += mpp.power * cfg.dtSeconds / 3600.0;

        ats.update(mpp.power, cfg.dtSeconds);
        bool on_solar = ats.onSolar();

        if (on_solar && tracking) {
            const bool due =
                minute - last_track_minute >= cfg.trackingPeriodMinutes;
            const bool supply_moved = last_track_budget > 0.0 &&
                std::abs(mpp.power - last_track_budget) >
                    cfg.retrackSupplyDelta * last_track_budget;
            const bool demand_moved = last_track_demand > 0.0 &&
                std::abs(chip.totalPower() - last_track_demand) >
                    cfg.retrackDemandDelta * last_track_demand;
            TrackResult tr;
            if (!was_on_solar || due || supply_moved || demand_moved) {
                if (tbuf) {
                    const auto cause = !was_on_solar
                        ? obs::RetrackCause::SolarEntry
                        : due ? obs::RetrackCause::Periodic
                              : supply_moved
                            ? obs::RetrackCause::SupplyDelta
                            : obs::RetrackCause::DemandDelta;
                    emitRetrack(tbuf, cause, mpp.power,
                                chip.totalPower());
                }
                if (due || !was_on_solar)
                    close_period();
                ++result.retracks;
                tr = controller->track();
                last_track_minute = minute;
                last_track_budget = mpp.power;
                last_track_demand = chip.totalPower();
            } else {
                tr = controller->enforceRail();
            }
            step_net = tr.net;
            if (!tr.solarViable) {
                // Even the minimum sheddable load exceeds what the
                // panel can carry (possible with PCPG disabled): fail
                // over to the utility before the rail collapses.
                ats.force(power::PowerSource::Grid);
                chip.setAllLevels(chip.dvfs().maxLevel());
                on_solar = false;
            }
        } else if (on_solar && !tracking) {
            // Fixed-Power: (re)allocate to the fixed budget on entry
            // and at each period boundary; enforce on phase drift.
            const bool due =
                minute - last_track_minute >= cfg.trackingPeriodMinutes;
            if (!was_on_solar || due ||
                chip.totalPower() > cfg.fixedBudgetW) {
                if (tbuf) {
                    const auto cause = !was_on_solar
                        ? obs::RetrackCause::SolarEntry
                        : due ? obs::RetrackCause::Periodic
                              : obs::RetrackCause::DemandDelta;
                    emitRetrack(tbuf, cause, cfg.fixedBudgetW,
                                chip.totalPower());
                }
                ++result.retracks;
                const auto alloc =
                    optimizeAllocation(chip, cfg.fixedBudgetW);
                if (alloc.feasible)
                    applyAllocation(chip, alloc);
                else
                    chip.gateAll();
                last_track_minute = minute;
            }
        } else if (!on_solar && was_on_solar) {
            // Fell back to the utility: run as a traditional CMP.
            chip.setAllLevels(chip.dvfs().maxLevel());
        }

        const double consumed = chip.totalPower();
        if (on_solar) {
            period_budget.add(mpp.power);
            period_consumed.add(consumed);
        }

        const double budget_w = tracking ? mpp.power : cfg.fixedBudgetW;
        if (telem) {
            telem.sample(minute, chip, mpp.power, budget_w, on_solar,
                         step_net.valid ? &step_net : nullptr,
                         tracking ? controller->converter().ratio()
                                  : std::nan(""),
                         std::nan(""));
        }

        const double instr_before = chip.totalInstructions();
        {
            SC_PROFILE_SCOPE("chip.step");
            chip.step(cfg.dtSeconds);
        }
        const double instr_delta = chip.totalInstructions() - instr_before;
        result.totalInstructions += instr_delta;
        if (on_solar)
            result.solarInstructions += instr_delta;
        // On solar the panel also supplies the DC/DC conversion loss.
        const double drawn = on_solar && tracking
            ? consumed / cfg.controller.converterEfficiency
            : consumed;
        ats.accountEnergy(drawn, cfg.dtSeconds);

        if (audit) {
            SC_PROFILE_SCOPE("audit");
            audit->setNow(minute);
            audit->countStep();
            if (on_solar)
                audit->checkBudget(drawn, budget_w,
                                   tracking
                                       ? "solar draw vs MPP budget"
                                       : "solar draw vs fixed budget");
            if (step_net.valid) {
                audit->checkRailVoltage(step_net.load.voltage,
                                        cfg.controller.railNominalV,
                                        "converter rail vs nominal");
                audit->checkPanelPoint(
                    step_net.panel.current,
                    array.currentAt(step_net.panel.voltage),
                    array.currentAt(0.0),
                    "solved panel point vs I-V curve");
            }
            auditChipState(*audit, chip);
        }

        if (cfg.recordTimeline && minute - last_timeline_minute >= 1.0) {
            result.timeline.push_back(
                {minute, mpp.power, on_solar ? consumed : 0.0, on_solar});
            last_timeline_minute = minute;
        }
        was_on_solar = on_solar;
    }

    close_period();

    result.solarEnergyWh = ats.solarEnergyWh();
    result.chipEnergyWh = chip.totalEnergy() / 3600.0;
    result.gridEnergyWh = ats.gridEnergyWh();
    result.utilization = result.mppEnergyWh > 0.0
        ? result.solarEnergyWh / result.mppEnergyWh
        : 0.0;
    const double total_sec = ats.solarSeconds() + ats.gridSeconds();
    result.effectiveFraction =
        total_sec > 0.0 ? ats.solarSeconds() / total_sec : 0.0;
    result.avgTrackingError = period_errors.value();
    result.transferCount = ats.transferCount();
    result.controllerSteps = tracking ? controller->totalSteps() : 0;
    if (cfg.stats)
        foldDayStats(*cfg.stats, result, chip);
    return result;
}

HybridDayResult
simulateHybridDay(const pv::PvModule &module, const solar::SolarTrace &trace,
                  workload::WorkloadId workload,
                  double battery_capacity_wh, const SimConfig &cfg)
{
    SC_ASSERT(battery_capacity_wh >= 0.0,
              "simulateHybridDay: negative capacity");
    HybridDayResult result;
    result.batteryCapacityWh = battery_capacity_wh;
    if (battery_capacity_wh <= 0.0) {
        result.day = simulateDay(module, trace, workload, cfg);
        result.greenEnergyWh = result.day.solarEnergyWh;
        const double total =
            result.day.solarEnergyWh + result.day.gridEnergyWh;
        result.greenFraction =
            total > 0.0 ? result.greenEnergyWh / total : 0.0;
        return result;
    }

    SC_PROFILE_SCOPE("day");
    auto chip = buildChip(workload, cfg);
    chip.setGatingAllowed(cfg.pcpg);
    pv::PvArray array(module, cfg.modulesSeries, cfg.modulesParallel,
                      pv::kStc);
    auto adapter = makeAdapter(cfg.policy == PolicyKind::FixedPower
                                   ? PolicyKind::MpptOpt
                                   : cfg.policy);
    SolarCoreController controller(array, chip, *adapter, cfg.controller);
    power::TransferSwitch ats(cfg.thresholdW, 0.02 * cfg.thresholdW);
    power::Battery buffer(battery_capacity_wh, 0.95, 0.90);
    obs::TraceBuffer *const tbuf = cfg.trace;
    ats.setTrace(tbuf);
    buffer.setTrace(tbuf);
    controller.setTrace(tbuf);
    DayTelemetry telem(cfg.telemetry, chip);
    obs::Auditor *const audit = cfg.audit;
    if (audit)
        audit->setTrace(tbuf);
    // Charge-path conversion efficiency of the buffer's own MPPT.
    constexpr double charge_path_eff = 0.95;
    // Stable discharge level while bridging sub-threshold periods.
    const double buffer_budget_w = 2.0 * cfg.thresholdW;

    DayResult &day = result.day;
    const double dt_min = cfg.dtSeconds / 60.0;
    const double dt_h = cfg.dtSeconds / 3600.0;
    double last_track_minute = -1e9;
    bool was_on_solar = false;
    std::optional<SimWorkspace> local_ws;
    SimWorkspace &ws = selectWorkspace(local_ws, cfg);
    ws.thermal.assign(static_cast<std::size_t>(chip.numCores()),
                      cpu::ThermalModel());
    std::vector<cpu::ThermalModel> &thermal = ws.thermal;

    // Same batched MPP precompute as simulateDay.
    stageStepMpps(ws, module, trace, dt_min, cfg);
    const std::vector<pv::MppResult> &step_mpps = ws.stepMpps;
    std::size_t step_index = 0;

    chip.setAllLevels(chip.dvfs().maxLevel());
    for (double minute = trace.startMinute(); minute <= trace.endMinute();
         minute += dt_min) {
        SC_PROFILE_SCOPE("step");
        if (tbuf)
            tbuf->setNow(minute);
        power::NetworkState step_net;
        const double g = trace.irradianceAt(minute);
        const double ambient = trace.ambientAt(minute);
        array.setEnvironment({g, module.cellTempFromAmbient(ambient, g)});
        // Mirror simulateDay's thermal handling instead of always using
        // the ambient proxy, so the rcThermal/pcpg ablations act on the
        // hybrid extension too.
        if (cfg.rcThermal)
            day.thermalThrottles +=
                stepRcThermal(chip, thermal, ambient, cfg);
        else
            setDieTemps(chip, ambient);
        const pv::MppResult mpp = step_mpps[step_index++];
        day.mppEnergyWh += mpp.power * dt_h;

        ats.update(mpp.power, cfg.dtSeconds);
        const bool on_solar = ats.onSolar();
        bool on_buffer = false;

        if (on_solar) {
            TrackResult tr;
            if (!was_on_solar ||
                minute - last_track_minute >= cfg.trackingPeriodMinutes) {
                if (tbuf) {
                    emitRetrack(tbuf,
                                was_on_solar
                                    ? obs::RetrackCause::Periodic
                                    : obs::RetrackCause::SolarEntry,
                                mpp.power, chip.totalPower());
                }
                ++day.retracks;
                tr = controller.track();
                last_track_minute = minute;
            } else {
                tr = controller.enforceRail();
            }
            step_net = tr.net;
            const double consumed = chip.totalPower();
            // The tracking margin charges the buffer through its own
            // MPPT path instead of being left on the panel.
            const double headroom = std::max(0.0, mpp.power - consumed);
            buffer.charge(headroom * charge_path_eff, dt_h);
            day.solarEnergyWh +=
                (consumed + headroom * charge_path_eff) * dt_h;
            ats.accountEnergy(consumed, cfg.dtSeconds);
        } else {
            // Sub-threshold supply still trickles into the buffer.
            buffer.charge(mpp.power * charge_path_eff, dt_h);
            day.solarEnergyWh += mpp.power * charge_path_eff * dt_h;

            const auto alloc = optimizeAllocation(chip, buffer_budget_w);
            const double want = alloc.feasible ? alloc.powerW : 0.0;
            if (want > 0.0 && buffer.storedWh() * 0.9 >= want * dt_h) {
                applyAllocation(chip, alloc);
                const double delivered =
                    buffer.discharge(chip.totalPower(), dt_h);
                result.bufferedWh += delivered;
                on_buffer = true;
            } else {
                chip.setAllLevels(chip.dvfs().maxLevel());
                ats.accountEnergy(chip.totalPower(), cfg.dtSeconds);
            }
        }

        if (telem) {
            telem.sample(minute, chip, mpp.power,
                         on_buffer ? buffer_budget_w : mpp.power,
                         on_solar, step_net.valid ? &step_net : nullptr,
                         controller.converter().ratio(),
                         buffer.socFraction());
        }

        const double instr_before = chip.totalInstructions();
        {
            SC_PROFILE_SCOPE("chip.step");
            chip.step(cfg.dtSeconds);
        }
        const double delta = chip.totalInstructions() - instr_before;
        day.totalInstructions += delta;
        if (on_solar || on_buffer)
            day.solarInstructions += delta;

        if (audit) {
            SC_PROFILE_SCOPE("audit");
            audit->setNow(minute);
            audit->countStep();
            if (on_solar)
                audit->checkBudget(chip.totalPower(), mpp.power,
                                   "hybrid solar draw vs MPP budget");
            else if (on_buffer)
                audit->checkBudget(chip.totalPower(), buffer_budget_w,
                                   "buffer draw vs discharge budget");
            if (step_net.valid) {
                audit->checkRailVoltage(step_net.load.voltage,
                                        cfg.controller.railNominalV,
                                        "converter rail vs nominal");
                audit->checkPanelPoint(
                    step_net.panel.current,
                    array.currentAt(step_net.panel.voltage),
                    array.currentAt(0.0),
                    "solved panel point vs I-V curve");
            }
            audit->checkSocRange(buffer.socFraction(),
                                 "buffer state of charge");
            auditChipState(*audit, chip);
        }
        was_on_solar = on_solar;
    }

    if (audit) {
        audit->setNow(trace.endMinute());
        audit->checkEnergyBalance(buffer.absorbedWh(), buffer.storedWh(),
                                  buffer.deliveredWh(), buffer.lostWh(),
                                  "battery ledger closure");
    }

    day.gridEnergyWh = ats.gridEnergyWh();
    day.chipEnergyWh = chip.totalEnergy() / 3600.0;
    day.utilization = day.mppEnergyWh > 0.0
        ? std::min(1.0, day.solarEnergyWh / day.mppEnergyWh)
        : 0.0;
    day.transferCount = ats.transferCount();
    result.greenEnergyWh = day.chipEnergyWh - day.gridEnergyWh;
    const double total_energy = day.chipEnergyWh;
    result.greenFraction =
        total_energy > 0.0 ? result.greenEnergyWh / total_energy : 0.0;
    if (cfg.stats) {
        foldDayStats(*cfg.stats, day, chip);
        cfg.stats->scalar("battery.deliveredWh",
                          "energy delivered from the buffer [Wh]") +=
            buffer.deliveredWh();
        cfg.stats->scalar("battery.lostWh",
                          "buffer conversion/self-discharge losses "
                          "[Wh]") += buffer.lostWh();
    }
    return result;
}

BatteryDayResult
simulateBatteryDay(const pv::PvModule &module,
                   const solar::SolarTrace &trace,
                   workload::WorkloadId workload, double derating_factor,
                   const SimConfig &cfg)
{
    SC_ASSERT(derating_factor > 0.0 && derating_factor <= 1.0,
              "simulateBatteryDay: bad de-rating factor");
    SC_PROFILE_SCOPE("day");
    BatteryDayResult result;
    result.deratingFactor = derating_factor;

    // Pass 1: harvestable energy at the MPP over the day.
    const double dt_min = cfg.dtSeconds / 60.0;
    {
        // Pass 1 is a pure reduction over the trace: gather the step
        // environments and fold the batched MPP powers.
        std::optional<SimWorkspace> local_ws;
        SimWorkspace &ws = selectWorkspace(local_ws, cfg);
        stageStepMpps(ws, module, trace, dt_min, cfg);
        for (const pv::MppResult &mpp : ws.stepMpps)
            result.mppEnergyWh += mpp.power * cfg.dtSeconds / 3600.0;
    }

    // Stable delivery level over the full daytime window.
    const double day_hours =
        (trace.endMinute() - trace.startMinute()) / 60.0;
    result.budgetW = derating_factor * result.mppEnergyWh / day_hours;

    // Pass 2: run the chip at that constant budget, re-allocating at
    // each tracking period to follow workload phases.
    auto chip = buildChip(workload, cfg);
    DayTelemetry telem(cfg.telemetry, chip);
    obs::Auditor *const audit = cfg.audit;
    if (audit)
        audit->setTrace(cfg.trace);
    double last_alloc_minute = -1e9;
    for (double minute = trace.startMinute(); minute <= trace.endMinute();
         minute += dt_min) {
        SC_PROFILE_SCOPE("step");
        if (cfg.trace)
            cfg.trace->setNow(minute);
        setDieTemps(chip, trace.ambientAt(minute));
        if (minute - last_alloc_minute >= cfg.trackingPeriodMinutes ||
            chip.totalPower() > result.budgetW) {
            if (cfg.trace) {
                emitRetrack(cfg.trace,
                            minute - last_alloc_minute >=
                                    cfg.trackingPeriodMinutes
                                ? obs::RetrackCause::Periodic
                                : obs::RetrackCause::DemandDelta,
                            result.budgetW, chip.totalPower());
            }
            const auto alloc = optimizeAllocation(chip, result.budgetW);
            if (alloc.feasible)
                applyAllocation(chip, alloc);
            else
                chip.gateAll();
            last_alloc_minute = minute;
        }
        if (telem) {
            telem.sample(minute, chip, std::nan(""), result.budgetW,
                         true, nullptr, std::nan(""), std::nan(""));
        }
        if (audit) {
            SC_PROFILE_SCOPE("audit");
            audit->setNow(minute);
            audit->countStep();
            audit->checkBudget(chip.totalPower(), result.budgetW,
                               "battery baseline draw vs stable budget");
            auditChipState(*audit, chip);
        }
        result.consumedWh += chip.totalPower() * cfg.dtSeconds / 3600.0;
        {
            SC_PROFILE_SCOPE("chip.step");
            chip.step(cfg.dtSeconds);
        }
    }
    result.instructions = chip.totalInstructions();
    result.utilization = result.mppEnergyWh > 0.0
        ? result.consumedWh / result.mppEnergyWh
        : 0.0;
    if (cfg.stats) {
        auto &reg = *cfg.stats;
        ++reg.scalar("sim.batteryDays",
                     "battery-baseline days folded into this registry");
        reg.scalar("sim.mppEnergyWh", "theoretical MPP energy [Wh]") +=
            result.mppEnergyWh;
        reg.scalar("sim.chipEnergyWh", "energy the chip consumed [Wh]") +=
            result.consumedWh;
        reg.scalar("sim.totalInstructions",
                   "instructions retired in total") += result.instructions;
    }
    return result;
}

obs::FormulaStat::Fn
dayFormulaByName(std::string_view name)
{
    if (name == "sim.solarUtilization") {
        return [](const obs::StatsRegistry &r) {
            const double mpp = r.value("sim.mppEnergyWh");
            return mpp > 0.0 ? r.value("sim.solarEnergyWh") / mpp : 0.0;
        };
    }
    return {};
}

} // namespace solarcore::core
