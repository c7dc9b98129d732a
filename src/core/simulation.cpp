#include "simulation.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <variant>

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

/**
 * Set every die's temperature for one step: the ambient + 30 K proxy,
 * or, with cfg.rcThermal, one step of the per-core RC thermal loop
 * that feeds each die's temperature back into the leakage model and
 * throttles any core past the limit. Returns the forced notch-downs.
 */
int
stepDieTemps(cpu::MultiCoreChip &chip,
             std::vector<cpu::ThermalModel> &thermal, double ambient_c,
             const SimConfig &cfg)
{
    int throttles = 0;
    for (int i = 0; i < chip.numCores(); ++i) {
        auto &core = chip.core(i);
        if (!cfg.rcThermal) {
            core.setDieTempC(ambient_c + 30.0);
            continue;
        }
        const double t = thermal[static_cast<std::size_t>(i)].step(
            core.powerW(), ambient_c, cfg.dtSeconds);
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
 * The day's step grid: step i runs at minute start + i * dt for
 * i < floor(window / dt) + 1, the sampling formula of
 * solar::generateDayTrace. Stepping on an integer index keeps the
 * window's last step, which accumulating minute += dt can drop when
 * dt is not a binary fraction of a minute (e.g. 20 s).
 */
struct StepGrid
{
    double startMinute = 0.0;
    double dtMinutes = 0.0;
    std::size_t steps = 0;

    double minute(std::size_t i) const
    {
        return startMinute + static_cast<double>(i) * dtMinutes;
    }
};

StepGrid
stepGrid(const solar::SolarTrace &trace, double dt_seconds)
{
    StepGrid grid;
    grid.startMinute = trace.startMinute();
    grid.dtMinutes = dt_seconds / 60.0;
    grid.steps = static_cast<std::size_t>(std::floor(
                     (trace.endMinute() - trace.startMinute()) /
                     grid.dtMinutes)) +
        1;
    return grid;
}

/**
 * Stage the environment of every step of @p grid into @p ws and solve
 * their MPPs in one findMppBatch call, so step i of the day loop reads
 * stepEnvs[i] and stepMpps[i]. assign()/clear() reset contents but
 * keep capacity: with a reused workspace this allocates only when the
 * trace grows.
 */
void
stageStepMpps(SimWorkspace &ws, const pv::PvModule &module,
              const solar::SolarTrace &trace, const StepGrid &grid,
              const SimConfig &cfg)
{
    ws.stepEnvs.clear();
    for (std::size_t i = 0; i < grid.steps; ++i) {
        const double minute = grid.minute(i);
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
            rec_->set(ch.power, core.powerW());
            if (!core.gated()) {
                rec_->set(ch.freq,
                          chip.dvfs().frequency(core.level()) / 1e9);
                rec_->set(ch.volt, chip.dvfs().voltage(core.level()));
                rec_->set(ch.ipc, core.ipc());
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

/** simulateDay: the panel feeds the chip through the ATS, which
 *  falls back to the grid below the power-transfer threshold. */
struct DirectSupply
{
};

/** simulateHybridDay: DirectSupply plus a storage buffer on the panel
 *  side; a capacity of 0 Wh means no buffer. */
struct BufferedSupply
{
    double capacityWh = 0.0;
};

/** simulateBatteryDay: the day's MPP energy, stored with an overall
 *  de-rating, feeds the chip at one stable budget all day. No ATS and
 *  no per-step panel work. */
struct DeratedSupply
{
    double deratingFactor = 1.0;
};

/** The closed set of ways the day loop can supply the chip. */
using Supply = std::variant<DirectSupply, BufferedSupply, DeratedSupply>;

// The hybrid buffer: its own MPPT charge path, and the battery's
// charge/discharge efficiencies.
constexpr double kChargePathEff = 0.95;
constexpr double kBufferChargeEff = 0.95;
constexpr double kBufferDischargeEff = 0.90;

/** What one day-loop run measured beyond the DayResult. */
struct DayRun
{
    DayResult day;
    double budgetW = 0.0;       //!< allocation budget (Fixed, Derated)
    double greenEnergyWh = 0.0; //!< panel/storage -> chip energy
    std::optional<power::Battery> buffer; //!< the hybrid's buffer
};

/**
 * The day loop shared by all three drivers: replay @p trace on @p chip
 * under @p supply and the policy in @p cfg. DayResult::solarEnergyWh
 * is what the panel delivered (to the chip, and to the buffer as the
 * buffer absorbed it); for DeratedSupply it is the chip's draw from
 * storage.
 */
DayRun
runDay(cpu::MultiCoreChip &chip, const pv::PvModule &module,
       const solar::SolarTrace &trace, const SimConfig &cfg,
       const Supply &supply)
{
    const auto *const buffered = std::get_if<BufferedSupply>(&supply);
    const auto *const derated = std::get_if<DeratedSupply>(&supply);
    const bool panel = derated == nullptr; // per-step panel + ATS work
    DayRun run;
    DayResult &result = run.day;

    chip.setGatingAllowed(cfg.pcpg);
    pv::PvArray array(module, cfg.modulesSeries, cfg.modulesParallel,
                      pv::kStc);

    const bool tracking = panel && cfg.policy != PolicyKind::FixedPower;
    auto adapter = tracking ? makeAdapter(cfg.policy) : nullptr;
    std::optional<SolarCoreController> controller;
    if (tracking)
        controller.emplace(array, chip, *adapter, cfg.controller);

    const double threshold =
        tracking ? cfg.thresholdW : cfg.fixedBudgetW;
    power::TransferSwitch ats(threshold, 0.02 * threshold);
    if (derated)
        ats.force(power::PowerSource::Solar); // storage carries the day
    std::optional<power::Battery> &buffer = run.buffer;
    if (buffered && buffered->capacityWh > 0.0)
        buffer.emplace(buffered->capacityWh, kBufferChargeEff,
                       kBufferDischargeEff);
    // Stable discharge level while the buffer bridges the panel.
    const double bridge_budget_w = 2.0 * cfg.thresholdW;

    obs::TraceBuffer *const tbuf = cfg.trace;
    ats.setTrace(tbuf);
    if (tracking)
        controller->setTrace(tbuf);
    if (buffer)
        buffer->setTrace(tbuf);
    DayTelemetry telem(cfg.telemetry, chip);
    obs::Auditor *const audit = cfg.audit;
    if (audit)
        audit->setTrace(tbuf);
    const char *const budget_check = derated
        ? "battery baseline draw vs stable budget"
        : tracking ? "solar draw vs MPP budget"
                   : "solar draw vs fixed budget";
    obs::HistogramStat *const err_hist = cfg.stats && panel
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

    // Batched MPP precompute: the per-step environment is a pure
    // function of the trace, so every per-step MPP solve collapses
    // into one batched call. A lane's result does not depend on its
    // batch position, and findMppBatch runs the per-step scalar path
    // under the Scalar kernel or the Newton oracle.
    const StepGrid grid = stepGrid(trace, cfg.dtSeconds);
    stageStepMpps(ws, module, trace, grid, cfg);
    for (const pv::MppResult &mpp : ws.stepMpps)
        result.mppEnergyWh += mpp.power * cfg.dtSeconds / 3600.0;

    // Derated storage delivers its harvest evenly over the window.
    const double day_hours =
        (trace.endMinute() - trace.startMinute()) / 60.0;
    const double alloc_budget_w = derated
        ? derated->deratingFactor * result.mppEnergyWh / day_hours
        : cfg.fixedBudgetW;

    const double dt_h = cfg.dtSeconds / 3600.0;
    double last_track_minute = -1e9;
    double last_track_budget = 0.0;
    double last_track_demand = 0.0;
    bool was_on_solar = ats.onSolar();
    bool was_on_buffer = false;
    double bridged_seconds = 0.0;
    double last_timeline_minute = -1e9;

    chip.setAllLevels(chip.dvfs().maxLevel()); // boots on grid, full speed

    for (std::size_t i = 0; i < grid.steps; ++i) {
        SC_PROFILE_SCOPE("step");
        const double minute = grid.minute(i);
        if (tbuf)
            tbuf->setNow(minute);
        power::NetworkState step_net; //!< solved state, when tracking
        const pv::MppResult &mpp = ws.stepMpps[i];
        result.thermalThrottles += stepDieTemps(
            chip, ws.thermal, trace.ambientAt(minute), cfg);
        if (panel) {
            array.setEnvironment(ws.stepEnvs[i]);
            ats.update(mpp.power, cfg.dtSeconds);
        }
        bool on_solar = ats.onSolar();
        bool on_buffer = false;

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
        } else if (on_solar) {
            // Fixed-Power and derated storage: (re)allocate to the
            // budget on entry and at each period boundary; enforce on
            // phase drift.
            const bool due =
                minute - last_track_minute >= cfg.trackingPeriodMinutes;
            if (!was_on_solar || due ||
                chip.totalPower() > alloc_budget_w) {
                if (tbuf) {
                    const auto cause = !was_on_solar
                        ? obs::RetrackCause::SolarEntry
                        : due ? obs::RetrackCause::Periodic
                              : obs::RetrackCause::DemandDelta;
                    emitRetrack(tbuf, cause, alloc_budget_w,
                                chip.totalPower());
                }
                ++result.retracks;
                const auto alloc =
                    optimizeAllocation(chip, alloc_budget_w);
                if (alloc.feasible) {
                    applyAllocation(chip, alloc);
                } else if (chip.gatingAllowed()) {
                    chip.gateAll();
                } else {
                    // Nothing fits and PCPG forbids gating: fail over
                    // to the utility, as the tracking branch does. A
                    // derated day has no panel to switch back to.
                    ats.force(power::PowerSource::Grid);
                    chip.setAllLevels(chip.dvfs().maxLevel());
                    on_solar = false;
                }
                last_track_minute = minute;
            }
        } else {
            // Off the panel, a buffer holding a whole step of the
            // bridge allocation keeps the chip on green power.
            if (buffer) {
                const auto alloc =
                    optimizeAllocation(chip, bridge_budget_w);
                on_buffer = alloc.feasible && alloc.powerW > 0.0 &&
                    buffer->storedWh() * kBufferDischargeEff >=
                        alloc.powerW * dt_h;
                if (on_buffer)
                    applyAllocation(chip, alloc);
            }
            // Fell back to the utility: run as a traditional CMP.
            if (!on_buffer && (was_on_solar || was_on_buffer))
                chip.setAllLevels(chip.dvfs().maxLevel());
        }

        const double consumed = chip.totalPower();
        // On solar the panel also supplies the DC/DC conversion loss.
        const double drawn = on_solar && tracking
            ? consumed / cfg.controller.converterEfficiency
            : consumed;
        if (on_solar && panel) {
            period_budget.add(mpp.power);
            period_consumed.add(consumed);
        }
        if (buffer) {
            // MPP power the chip leaves on the panel charges the
            // buffer through its own MPPT path.
            const double spare_w =
                std::max(0.0, mpp.power - (on_solar ? drawn : 0.0));
            buffer->charge(spare_w * kChargePathEff, dt_h);
            if (on_buffer) {
                buffer->discharge(consumed, dt_h);
                bridged_seconds += cfg.dtSeconds;
            }
        }
        if (!on_buffer)
            ats.accountEnergy(drawn, cfg.dtSeconds);

        const double budget_w = on_buffer ? bridge_budget_w
            : tracking                    ? mpp.power
                                          : alloc_budget_w;
        if (telem) {
            telem.sample(minute, chip, panel ? mpp.power : std::nan(""),
                         budget_w, on_solar,
                         step_net.valid ? &step_net : nullptr,
                         tracking ? controller->converter().ratio()
                                  : std::nan(""),
                         buffer ? buffer->socFraction() : std::nan(""));
        }

        const double instr_before = chip.totalInstructions();
        {
            SC_PROFILE_SCOPE("chip.step");
            chip.step(cfg.dtSeconds);
        }
        const double instr_delta = chip.totalInstructions() - instr_before;
        result.totalInstructions += instr_delta;
        if (on_solar || on_buffer)
            result.solarInstructions += instr_delta;

        if (audit) {
            SC_PROFILE_SCOPE("audit");
            audit->setNow(minute);
            audit->countStep();
            if (on_solar || on_buffer)
                audit->checkBudget(drawn, budget_w,
                                   on_buffer
                                       ? "buffer draw vs discharge budget"
                                       : budget_check);
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
            if (buffer)
                audit->checkSocRange(buffer->socFraction(),
                                     "buffer state of charge");
            for (int c = 0; c < chip.numCores(); ++c) {
                const auto &core = chip.core(c);
                audit->checkDvfsLegality(
                    c, core.level(), chip.dvfs().minLevel(),
                    chip.dvfs().maxLevel(), core.gated(),
                    chip.gatingAllowed(), "core DVFS/gating state");
            }
        }

        if (cfg.recordTimeline && minute - last_timeline_minute >= 1.0) {
            result.timeline.push_back(
                {minute, mpp.power, on_solar ? consumed : 0.0, on_solar});
            last_timeline_minute = minute;
        }
        was_on_solar = on_solar;
        was_on_buffer = on_buffer;
    }

    close_period();
    if (audit && buffer) {
        audit->setNow(trace.endMinute());
        audit->checkEnergyBalance(buffer->absorbedWh(), buffer->storedWh(),
                                  buffer->deliveredWh(), buffer->lostWh(),
                                  "battery ledger closure");
    }

    // Panel -> buffer energy is what the buffer absorbed, seen from
    // the panel side of its charge path.
    result.solarEnergyWh = ats.solarEnergyWh() +
        (buffer ? buffer->absorbedWh() / kChargePathEff : 0.0);
    run.greenEnergyWh =
        ats.solarEnergyWh() + (buffer ? buffer->deliveredWh() : 0.0);
    result.chipEnergyWh = chip.totalEnergy() / 3600.0;
    result.gridEnergyWh = ats.gridEnergyWh();
    result.utilization = result.mppEnergyWh > 0.0
        ? result.solarEnergyWh / result.mppEnergyWh
        : 0.0;
    const double green_sec = ats.solarSeconds() + bridged_seconds;
    const double total_sec = green_sec + ats.gridSeconds();
    result.effectiveFraction = total_sec > 0.0 ? green_sec / total_sec : 0.0;
    result.avgTrackingError = period_errors.value();
    result.transferCount = ats.transferCount();
    result.controllerSteps = tracking ? controller->totalSteps() : 0;
    run.budgetW = alloc_budget_w;
    return run;
}

} // namespace

DayResult
simulateDay(const pv::PvModule &module, const solar::SolarTrace &trace,
            workload::WorkloadId workload, const SimConfig &cfg)
{
    SC_ASSERT(!trace.empty(), "simulateDay: empty trace");
    SC_ASSERT(cfg.dtSeconds > 0.0, "simulateDay: bad step");
    SC_PROFILE_SCOPE("day");
    auto chip = buildChip(workload, cfg);
    DayRun run = runDay(chip, module, trace, cfg, DirectSupply{});
    if (cfg.stats)
        foldDayStats(*cfg.stats, run.day, chip);
    return std::move(run.day);
}

HybridDayResult
simulateHybridDay(const pv::PvModule &module, const solar::SolarTrace &trace,
                  workload::WorkloadId workload,
                  double battery_capacity_wh, const SimConfig &cfg)
{
    SC_ASSERT(battery_capacity_wh >= 0.0,
              "simulateHybridDay: negative capacity");
    SC_PROFILE_SCOPE("day");
    auto chip = buildChip(workload, cfg);
    DayRun run = runDay(chip, module, trace, cfg,
                        BufferedSupply{battery_capacity_wh});
    HybridDayResult result;
    result.day = std::move(run.day);
    result.batteryCapacityWh = battery_capacity_wh;
    result.greenEnergyWh = run.greenEnergyWh;
    const double total = run.greenEnergyWh + result.day.gridEnergyWh;
    result.greenFraction = total > 0.0 ? run.greenEnergyWh / total : 0.0;
    if (run.buffer)
        result.bufferedWh = run.buffer->deliveredWh();
    if (cfg.stats) {
        foldDayStats(*cfg.stats, result.day, chip);
        if (run.buffer) {
            auto &reg = *cfg.stats;
            reg.scalar("battery.absorbedWh",
                       "energy the buffer absorbed while charging "
                       "[Wh]") += run.buffer->absorbedWh();
            reg.scalar("battery.deliveredWh",
                       "energy delivered from the buffer [Wh]") +=
                run.buffer->deliveredWh();
            reg.scalar("battery.lostWh",
                       "buffer conversion/self-discharge losses [Wh]") +=
                run.buffer->lostWh();
        }
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
    auto chip = buildChip(workload, cfg);
    const DayRun run = runDay(chip, module, trace, cfg,
                              DeratedSupply{derating_factor});
    BatteryDayResult result;
    result.deratingFactor = derating_factor;
    result.budgetW = run.budgetW;
    result.instructions = chip.totalInstructions();
    result.mppEnergyWh = run.day.mppEnergyWh;
    result.consumedWh = run.day.solarEnergyWh;
    result.utilization = run.day.utilization;
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
