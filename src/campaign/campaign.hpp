/**
 * @file
 * The sharded scenario-campaign runner.
 *
 * runCampaign() expands a ScenarioGrid into work units, shards them
 * over util/thread_pool (the caller participates; --threads=0
 * auto-detects), and aggregates per-unit metrics into one summary.
 * Determinism contract: every unit writes into its index-addressed
 * result slot, per-worker stats registries and the summary are merged
 * /emitted in task-index order, and all numbers are rendered with
 * shortest-round-trip formatting -- so the summary JSON is
 * byte-identical at any thread count, and an interrupted campaign
 * re-run with the same unit cache reproduces the uninterrupted summary
 * exactly.
 */

#ifndef SOLARCORE_CAMPAIGN_CAMPAIGN_HPP
#define SOLARCORE_CAMPAIGN_CAMPAIGN_HPP

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "campaign/scenario.hpp"
#include "campaign/unit_metrics.hpp"
#include "obs/obs_options.hpp"

namespace solarcore::core {
struct DayStage;
struct SimWorkspace;
} // namespace solarcore::core

namespace solarcore::obs {
struct Recorders;
} // namespace solarcore::obs

namespace solarcore::campaign {

/** Execution knobs of one campaign invocation. */
struct CampaignOptions
{
    int threads = 0;          //!< thread count per process; 0 auto-detects
    int workers = 1;          //!< forked worker processes; <=1 runs
                              //!< in-process over the thread pool
    std::string unitCacheDir; //!< persistent unit-result cache; empty
                              //!< disables. A run re-uses the units an
                              //!< earlier (or interrupted) run stored.
    std::size_t unitCacheCap = 4096; //!< cache LRU cap [entries]; 0 =
                              //!< unlimited. A run raises it to its
                              //!< grid's unit count, so it never
                              //!< evicts its own units.
    obs::ObsOptions obs;      //!< --stats-out / --trace-out / manifest
    bool verbose = false;     //!< per-unit progress lines on stderr
    std::string statusPath;   //!< run-health status.json; empty disables
    /**
     * Request-span exports: when either path is set the campaign
     * records one trace (a root span, phase spans, and one span per
     * simulated unit). Forked shard workers stream their spans back
     * over the worker pipes ('T' frames) and stitch into the same
     * trace id -- CLOCK_MONOTONIC is shared across fork. Off by
     * default; span collection never touches unit results, merged
     * stats, or the summary bytes.
     */
    std::string spanOut;          //!< span JSONL path; empty disables
    std::string spanPerfettoOut;  //!< Chrome/Perfetto path; empty off
    std::uint64_t traceId = 0;    //!< stitch into this id (0 = fresh)
    /** Internal: campaign root span id, set by runCampaign on the
     *  options copy handed to shard workers so their spans parent
     *  correctly. Zero disables worker span emission. */
    std::uint64_t spanParentId = 0;
};

/** What one campaign run produced. */
struct CampaignOutcome
{
    std::vector<ScenarioUnit> units;   //!< the expanded grid
    std::vector<UnitMetrics> results;  //!< parallel to units
    int unitsRun = 0;                  //!< simulated in this invocation
    int unitsCached = 0;               //!< served from the unit cache
    int workerCrashes = 0;             //!< forked workers that died
                                       //!< (their shards were re-run)
};

/**
 * Simulate one unit of @p grid. Exposed for tests; the runner calls
 * this from worker threads. Non-null @p recorders record the unit
 * (the caller attaches their profiler); an auditor among them
 * contributes the unit's violation count to the returned metrics and
 * folds its audit.* counters into their stats. A non-null
 * @p workspace supplies reusable per-step buffers (one per worker
 * thread) so steady-state unit simulation is allocation-free. A
 * non-null @p stage is the unit's day, staged by SharedDays; without
 * one the unit stages its own day into the workspace. Both give the
 * same bits. Panics on a stage that does not name the unit's (site,
 * month, seed) day (DayStage::day).
 */
UnitMetrics runUnit(const ScenarioUnit &unit, const ScenarioGrid &grid,
                    obs::Recorders *recorders = nullptr,
                    core::SimWorkspace *workspace = nullptr,
                    const core::DayStage *stage = nullptr);

/**
 * One run's (or one request's) table of shared day stages. Every
 * (site, month, seed) day is replayed by each policy and workload of
 * the grid, and its stage -- the trace, every step's environment and
 * batched MPP, and the controller's panel constants -- depends on the
 * day alone. SharedDays groups the tasks of a run by day:
 *
 *  - a day with two or more tasks is staged once, by the first task
 *    that acquires it (any others that acquire it meanwhile wait),
 *    and released for reuse by a later day when its last task
 *    releases its lease;
 *  - it carries panel constants only when two or more of its tasks
 *    are MPPT policies: a stage prepares every step, one MPPT unit
 *    pinning lazily only its on-solar steps;
 *  - a day with one task is not shared: its unit stages into its own
 *    workspace, as a lone runUnit does.
 *
 * order() interleaves windows of `claimers` days, so the first claims
 * of a window land on distinct days: each of the claiming threads
 * builds a stage of its own instead of waiting for one builder. With
 * the pool's threads claiming in that order, a new claim comes after
 * every claim of the earlier windows, so only the current window's
 * days and the days of the units still running elsewhere are live:
 * at most 2 x claimers stages are ever allocated. A stage is a pure
 * function of the day, the grid's dt and the selected PV kernel, so
 * results do not depend on the claim order or on which thread builds
 * it. Thread-safe.
 */
class SharedDays
{
    struct Day;

  public:
    /** A task's hold on its day's stage; releases it on destruction. */
    class Lease
    {
      public:
        Lease() = default;
        Lease(Lease &&other) noexcept;
        Lease &operator=(Lease &&) = delete;
        ~Lease();

        /** The shared stage, or null for a day that is not shared. */
        const core::DayStage *stage() const;

      private:
        friend class SharedDays;
        SharedDays *owner_ = nullptr;
        Day *day_ = nullptr;
    };

    /**
     * @param units    expandGrid(@p grid)
     * @param tasks    indices into @p units of the units to simulate;
     *                 must outlive this table
     * @param claimers threads that claim tasks in order() (>= 1): the
     *                 pool's threadCount(); 1 claims day by day
     */
    SharedDays(const ScenarioGrid &grid,
               const std::vector<ScenarioUnit> &units,
               std::span<const std::size_t> tasks, int claimers = 1);
    ~SharedDays();

    SharedDays(const SharedDays &) = delete;
    SharedDays &operator=(const SharedDays &) = delete;

    /**
     * Task positions (into tasks) in claim order. The days that have
     * tasks are cut, in grid order (ScenarioUnit::day), into windows
     * of `claimers` days; within a window come the first task of each
     * day, then the second of each, and so on. Each day's tasks keep
     * their task order. With one claimer this is day by day.
     */
    const std::vector<std::size_t> &order() const { return order_; }

    /**
     * The lease of task position @p t: builds its day's stage if no
     * task did yet, or waits while another thread builds it. Runs
     * under the profiler scope "day.stage".
     */
    Lease acquire(std::size_t t);

  private:
    const ScenarioGrid *grid_;
    const std::vector<ScenarioUnit> *units_;
    std::span<const std::size_t> tasks_;
    std::unique_ptr<Day[]> days_; //!< the shared days
    std::vector<Day *> dayOf_;    //!< per task; null = not shared
    std::vector<std::size_t> order_;
    //! Stages whose day is done, kept for their capacity: the next day
    //! to be built restages one, so the table allocates only as many
    //! stages as are ever live at once, whichever threads build them.
    std::mutex spareMutex_;
    std::vector<std::unique_ptr<core::DayStage>> spare_;
};

/** Expand, shard, execute (resuming if asked) and aggregate @p grid. */
CampaignOutcome runCampaign(const ScenarioGrid &grid,
                            const CampaignOptions &options);

/**
 * Render the deterministic summary JSON: schema tag, the grid axes,
 * one object per unit in index order, and grid-wide aggregates.
 */
void writeSummaryJson(std::ostream &os, const ScenarioGrid &grid,
                      const CampaignOutcome &outcome);

} // namespace solarcore::campaign

#endif // SOLARCORE_CAMPAIGN_CAMPAIGN_HPP
