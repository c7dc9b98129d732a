/**
 * @file
 * Full-day simulation driver (paper Section 5): replays one daytime
 * irradiance/temperature trace against the panel + converter + 8-core
 * chip network under a power-management policy, producing the metrics
 * the evaluation section reports -- solar energy utilization,
 * effective operation duration, performance-time product (PTP) and
 * relative MPP tracking error -- plus an optional per-minute timeline
 * for the Figure 13/14 reproductions.
 *
 * The three drivers below run one day loop and differ only in how it
 * supplies the chip: direct from the panel with grid backup
 * (simulateDay), the same plus a storage buffer (simulateHybridDay),
 * or derated storage at a stable budget (simulateBatteryDay). The
 * loop steps at minute start + i * dt for i < floor(window / dt) + 1.
 *
 * Every day runs from a DayStage. The trace overloads stage the day
 * into the workspace first; the DayStage overloads replay a stage the
 * caller built, which is how a campaign shares one stage among every
 * unit of the same (site, month, seed) day. Both give the same bits.
 */

#ifndef SOLARCORE_CORE_SIMULATION_HPP
#define SOLARCORE_CORE_SIMULATION_HPP

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/controller.hpp"
#include "core/load_adapter.hpp"
#include "cpu/thermal.hpp"
#include "obs/stats_registry.hpp"
#include "pv/bp3180n.hpp"
#include "pv/mpp.hpp"
#include "pv/pv_kernel.hpp"
#include "solar/trace.hpp"
#include "workload/multiprogram.hpp"

namespace solarcore::obs {
struct Recorders;
} // namespace solarcore::obs

namespace solarcore::core {

/**
 * One day's per-step inputs, staged once from its trace: the step
 * grid, the ambient temperature, the panel environment, the batched
 * MPP (findMppBatch under the selected kernel) and, when staged with
 * panel constants, the controller's scalar panel state
 * (PreparedArray::prepare) of every step. A stage is a pure function
 * of (trace, dt, arrangement, PV kernel, Newton-oracle flag), so it
 * is the same whichever thread builds it, and once built it is only
 * read: any number of units can replay it at once. The day drivers
 * panic on a stage staged for another dt, arrangement, kernel or
 * oracle setting than the day they run.
 */
struct DayStage
{
    double dtSeconds = 0.0;
    int modulesSeries = 0;
    int modulesParallel = 0;
    pv::PvKernel kernel = pv::PvKernel::Scalar;
    bool newtonOracle = false;
    double dtMinutes = 0.0;
    double startMinute = 0.0; //!< window start [minutes]
    double endMinute = 0.0;   //!< window end [minutes]
    std::vector<double> ambientC;        //!< per step
    std::vector<pv::Environment> envs;   //!< per step
    std::vector<pv::MppResult> mpps;     //!< per step, batched solve
    //! Per step, or empty: the controller then prepares each step's
    //! panel on its first pin, as a day run from a trace does.
    std::vector<pv::PreparedEnvironment> panel;
    //! The generated day staged here, recorded by a stager that built
    //! it from solar::generateDayTrace (campaign::SharedDays); stageDay
    //! clears it. campaign::runUnit panics on a stage of another day.
    std::optional<solar::DayId> day;

    std::size_t steps() const { return envs.size(); }

    /** Minute of step @p i: start + i * dt. */
    double minute(std::size_t i) const
    {
        return startMinute + static_cast<double>(i) * dtMinutes;
    }
};

/**
 * Stage @p trace into @p stage for a day at @p dt_seconds on a
 * series-parallel array of @p module. Step i runs at minute start +
 * i * dt for i < floor(window / dt) + 1. With @p panel_constants the
 * stage also carries every step's PreparedArray::prepare() state,
 * unless the Newton oracle is on (its controller keeps the legacy pin
 * path). Asserts a finite dt > 0 and a non-empty trace. Contents are
 * reset, capacity is kept.
 */
void stageDay(DayStage &stage, const pv::PvModule &module,
              const solar::SolarTrace &trace, double dt_seconds,
              int modules_series, int modules_parallel,
              bool panel_constants);

/**
 * Reusable scratch buffers for the day drivers. Each day run from a
 * trace is staged into `stage` (without panel constants), and every
 * day needs one thermal model per core; with a caller-owned workspace
 * those buffers keep their capacity across days, so a sweep over many
 * units allocates only on its first day (and on trace-length growth).
 * The drivers reset the *contents* every call -- a workspace carries
 * no state between days, only capacity -- which is what keeps results
 * bit-identical with and without one. Not thread-safe: one per worker.
 */
struct SimWorkspace
{
    DayStage stage;
    std::vector<cpu::ThermalModel> thermal;
};

/** Configuration of one simulated day. */
struct SimConfig
{
    PolicyKind policy = PolicyKind::MpptOpt;
    double fixedBudgetW = 75.0;        //!< Fixed-Power budget/threshold
    double dtSeconds = 15.0;           //!< simulation step
    double trackingPeriodMinutes = 10.0;
    double thresholdW = 15.0;           //!< power-transfer threshold:
                                       //!< SolarCore only needs enough
                                       //!< supply to run one core at the
                                       //!< bottom DVFS point (PCPG covers
                                       //!< the rest); Fixed-Power uses its
                                       //!< budget as the threshold instead
    double retrackSupplyDelta = 0.35;  //!< relative supply change that
                                       //!< triggers an early re-track
    double errorFloorW = 25.0;         //!< tracking periods whose mean
                                       //!< budget is below this level are
                                       //!< excluded from the Table 7
                                       //!< error -- the dawn/dusk tail
                                       //!< where one DVFS notch exceeds
                                       //!< 20% of the budget is not the
                                       //!< operating region the paper
                                       //!< characterizes
    double retrackDemandDelta = 0.30;  //!< relative drift of the chip's
                                       //!< own consumption (workload
                                       //!< phase changes) that triggers
                                       //!< an early re-track
    int dvfsLevels = 6;                //!< per-core DVFS points: 6 is
                                       //!< the paper's table; other
                                       //!< values interpolate the same
                                       //!< V/f range (granularity
                                       //!< ablation)
    int modulesSeries = 1;             //!< PV array: modules in series
    int modulesParallel = 1;           //!< PV array: parallel strings
    ControllerConfig controller;       //!< MPPT controller knobs
    std::uint64_t seed = 1;            //!< workload phase jitter seed
    bool pcpg = true;                  //!< allow per-core power gating
                                       //!< (ablation knob; the paper
                                       //!< uses DVFS + PCPG)
    bool rcThermal = false;            //!< use the per-core RC thermal
                                       //!< model for die temperature
                                       //!< (default: ambient + 30 K
                                       //!< proxy)
    double maxDieTempC = 95.0;         //!< thermal throttle: with the
                                       //!< RC model on, cores above
                                       //!< this temperature are forced
                                       //!< down one DVFS notch per step
    bool recordTimeline = false;       //!< keep the per-minute trace
    SimWorkspace *workspace = nullptr; //!< borrowed per-step scratch
                                       //!< buffers; sweep drivers pass
                                       //!< one so steady-state day
                                       //!< simulation is allocation-
                                       //!< free. A local workspace is
                                       //!< used when null. Not
                                       //!< thread-safe: one per worker.
    obs::Recorders *recorders = nullptr; //!< borrowed; null records
                                       //!< nothing. Each recorder it
                                       //!< holds takes the day: stats
                                       //!< (energies, per-core DVFS/
                                       //!< gate transitions, per-period
                                       //!< tracking error histogram),
                                       //!< events (re-tracks with
                                       //!< cause, DVFS/PCPG steps, ATS
                                       //!< switchovers, battery modes,
                                       //!< period boundaries), the
                                       //!< per-step waveform channels
                                       //!< (one schema for all three
                                       //!< day drivers, so per-unit
                                       //!< recorders concatenate) and
                                       //!< the invariant audit of every
                                       //!< step and the day-end energy
                                       //!< closure; the owner folds the
                                       //!< audit into the stats and
                                       //!< attaches the profiler. Not
                                       //!< thread-safe: one per task.
};

/** One per-minute sample for the tracking-accuracy figures. */
struct TimelinePoint
{
    double minute = 0.0;     //!< minutes since local midnight
    double budgetW = 0.0;    //!< panel MPP power (maximal budget)
    double consumedW = 0.0;  //!< power drawn from the panel (0 on grid)
    bool onSolar = false;
};

/** Aggregated results of one simulated day. */
struct DayResult
{
    double mppEnergyWh = 0.0;   //!< theoretical maximum solar energy
    double solarEnergyWh = 0.0; //!< energy the panel delivered: to the
                                //!< chip, plus (hybrid) the charge the
                                //!< buffer absorbed
    double gridEnergyWh = 0.0;  //!< energy drawn from the utility
    double chipEnergyWh = 0.0;  //!< energy the chip consumed in total
    double utilization = 0.0;   //!< solarEnergyWh / mppEnergyWh
    double effectiveFraction = 0.0; //!< green-powered share of daytime
                                    //!< (panel, or hybrid buffer)
    double solarInstructions = 0.0; //!< PTP: instructions on green power
    double totalInstructions = 0.0; //!< including grid-powered periods
    double avgTrackingError = 0.0;  //!< geomean of per-period rel. error
    int transferCount = 0;      //!< ATS transfers over the day
    int thermalThrottles = 0;   //!< forced notch-downs from overheating
    int retracks = 0;           //!< tracking events (periodic, entry,
                                //!< supply/demand-triggered; for
                                //!< Fixed-Power: re-allocations)
    long controllerSteps = 0;   //!< DVFS notches moved by the controller
    std::vector<TimelinePoint> timeline;
};

/**
 * Simulate one day of @p workload at the conditions of @p trace with
 * the policy selected in @p cfg. The PV source is a single @p module
 * (the paper's BP3180N), direct-coupled through the DC/DC converter.
 */
DayResult simulateDay(const pv::PvModule &module,
                      const solar::SolarTrace &trace,
                      workload::WorkloadId workload, const SimConfig &cfg);

/** simulateDay on a day staged by stageDay() from the same module. */
DayResult simulateDay(const pv::PvModule &module, const DayStage &stage,
                      workload::WorkloadId workload, const SimConfig &cfg);

/** Result of the battery-equipped baseline. */
struct BatteryDayResult
{
    double deratingFactor = 0.0; //!< overall de-rating applied
    double budgetW = 0.0;        //!< stable power level delivered
    double instructions = 0.0;   //!< PTP over the daytime window
    double mppEnergyWh = 0.0;
    double consumedWh = 0.0;     //!< energy the chip actually used
    double utilization = 0.0;    //!< consumed / mpp (<= derating)
};

/** Result of the hybrid direct-coupled + storage-buffer extension. */
struct HybridDayResult
{
    DayResult day;              //!< the underlying SolarCore day
    double batteryCapacityWh = 0.0;
    double bufferedWh = 0.0;    //!< energy delivered from the buffer
    double greenEnergyWh = 0.0; //!< panel -> chip plus buffer -> chip
    double greenFraction = 0.0; //!< green / (green + grid) energy
};

/**
 * Future-work extension (paper Section 8): a direct-coupled SolarCore
 * system with a small storage buffer. The day runs as simulateDay
 * under whatever policy @p cfg names; in addition, the MPP power the
 * chip leaves on the panel (the tracking margin, and all of it below
 * the transfer threshold) charges the buffer through a 0.95-efficient
 * path, and when the panel cannot carry the chip the buffer powers a
 * throughput-optimal allocation at twice the transfer threshold for
 * every step it holds enough energy. day.solarEnergyWh counts the
 * charge the buffer absorbed (at the panel side of the charge path),
 * not the charge offered to it. A capacity of 0 Wh means no buffer,
 * so the day is the plain simulateDay. A buffered day with cfg.stats
 * set also folds battery.absorbedWh, battery.deliveredWh and
 * battery.lostWh.
 */
HybridDayResult simulateHybridDay(const pv::PvModule &module,
                                  const solar::SolarTrace &trace,
                                  workload::WorkloadId workload,
                                  double battery_capacity_wh,
                                  const SimConfig &cfg);

/**
 * The paper's battery-equipped MPPT baseline: the panel is harvested
 * at the MPP into storage with the given overall de-rating factor
 * (Table 3), and the chip runs the whole daytime window at the stable
 * power level the stored energy sustains, allocated by the same
 * optimizer as Fixed-Power. Die temperatures follow cfg.rcThermal as
 * in the other drivers.
 */
BatteryDayResult simulateBatteryDay(const pv::PvModule &module,
                                    const solar::SolarTrace &trace,
                                    workload::WorkloadId workload,
                                    double derating_factor,
                                    const SimConfig &cfg);

/** simulateBatteryDay on a day staged by stageDay(). */
BatteryDayResult simulateBatteryDay(const pv::PvModule &module,
                                    const DayStage &stage,
                                    workload::WorkloadId workload,
                                    double derating_factor,
                                    const SimConfig &cfg);

/**
 * The dump-time formula a day driver registers under @p name
 * ("sim.solarUtilization"), or an empty
 * function for an unknown name. The single source of truth for the
 * drivers' own registrations, and the resolver a cross-process stats
 * merge uses to reconstruct a worker's formulas from their wire names.
 */
obs::FormulaStat::Fn dayFormulaByName(std::string_view name);

} // namespace solarcore::core

#endif // SOLARCORE_CORE_SIMULATION_HPP
