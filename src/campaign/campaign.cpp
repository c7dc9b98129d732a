#include "campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>

#include "campaign/journal.hpp"
#include "campaign/run_health.hpp"
#include "campaign/shard_exec.hpp"
#include "campaign/unit_cache.hpp"
#include "core/simulation.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics_export.hpp"
#include "obs/recorders.hpp"
#include "obs/span.hpp"
#include "pv/bp3180n.hpp"
#include "pv/pv_kernel.hpp"
#include "solar/trace.hpp"
#include "util/cpuid.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace solarcore::campaign {

namespace {

const MetricField (&kFields)[kNumMetricFields] = metricFields();

UnitMetrics
fromDayResult(const core::DayResult &day)
{
    UnitMetrics m;
    m.mppEnergyWh = day.mppEnergyWh;
    m.solarEnergyWh = day.solarEnergyWh;
    m.gridEnergyWh = day.gridEnergyWh;
    m.chipEnergyWh = day.chipEnergyWh;
    m.utilization = day.utilization;
    m.effectiveFraction = day.effectiveFraction;
    m.trackingError = day.avgTrackingError;
    m.solarInstructions = day.solarInstructions;
    m.totalInstructions = day.totalInstructions;
    m.retracks = day.retracks;
    m.transfers = day.transferCount;
    m.controllerSteps = static_cast<double>(day.controllerSteps);
    m.thermalThrottles = day.thermalThrottles;
    return m;
}

UnitMetrics
fromBatteryResult(const core::BatteryDayResult &day)
{
    // The battery baseline buffers everything: the chip runs the whole
    // window on stored solar energy, so the effective fraction is 1
    // and the direct-coupled tracking metrics do not apply.
    UnitMetrics m;
    m.mppEnergyWh = day.mppEnergyWh;
    m.solarEnergyWh = day.consumedWh;
    m.chipEnergyWh = day.consumedWh;
    m.utilization = day.utilization;
    m.effectiveFraction = 1.0;
    m.solarInstructions = day.instructions;
    m.totalInstructions = day.instructions;
    return m;
}

/** The panel every campaign unit runs: one BP3180N module. */
const pv::PvModule &
campaignModule()
{
    static const pv::PvModule module = pv::buildBp3180n();
    return module;
}

/** The (site, month, seed) day @p unit replays. */
solar::DayId
dayOf(const ScenarioUnit &unit)
{
    return {unit.site, unit.month, unit.seed};
}

/** The trace of the day @p unit replays. */
solar::SolarTrace
dayTrace(const ScenarioUnit &unit)
{
    return solar::generateDayTrace(unit.site, unit.month, unit.seed);
}

} // namespace

const MetricField (&metricFields())[kNumMetricFields]
{
    static constexpr MetricField fields[kNumMetricFields] = {
        {"mppEnergyWh", &UnitMetrics::mppEnergyWh},
        {"solarEnergyWh", &UnitMetrics::solarEnergyWh},
        {"gridEnergyWh", &UnitMetrics::gridEnergyWh},
        {"chipEnergyWh", &UnitMetrics::chipEnergyWh},
        {"utilization", &UnitMetrics::utilization},
        {"effectiveFraction", &UnitMetrics::effectiveFraction},
        {"trackingError", &UnitMetrics::trackingError},
        {"solarInstructions", &UnitMetrics::solarInstructions},
        {"totalInstructions", &UnitMetrics::totalInstructions},
        {"retracks", &UnitMetrics::retracks},
        {"transfers", &UnitMetrics::transfers},
        {"controllerSteps", &UnitMetrics::controllerSteps},
        {"thermalThrottles", &UnitMetrics::thermalThrottles},
        {"auditViolations", &UnitMetrics::auditViolations},
    };
    return fields;
}

UnitMetrics
runUnit(const ScenarioUnit &unit, const ScenarioGrid &grid,
        obs::Recorders *recorders, core::SimWorkspace *workspace,
        const core::DayStage *stage)
{
    SC_ASSERT(!stage || stage->day == dayOf(unit),
              "runUnit: stage of another day than ", unitKey(unit));
    const pv::PvModule &module = campaignModule();
    core::SimConfig cfg;
    cfg.dtSeconds = grid.dtSeconds;
    cfg.fixedBudgetW = grid.fixedBudgetW;
    cfg.trackingPeriodMinutes = grid.trackingPeriodMinutes;
    cfg.seed = unit.seed;
    cfg.recorders = recorders;
    cfg.workspace = workspace;

    UnitMetrics m;
    if (unit.policy == CampaignPolicy::Battery) {
        m = fromBatteryResult(
            stage ? core::simulateBatteryDay(module, *stage, unit.workload,
                                             grid.batteryDerating, cfg)
                  : core::simulateBatteryDay(module, dayTrace(unit),
                                             unit.workload,
                                             grid.batteryDerating, cfg));
    } else {
        cfg.policy = toSimPolicy(unit.policy);
        m = fromDayResult(
            stage ? core::simulateDay(module, *stage, unit.workload, cfg)
                  : core::simulateDay(module, dayTrace(unit), unit.workload,
                                      cfg));
    }
    if (recorders && recorders->audit) {
        m.auditViolations =
            static_cast<double>(recorders->audit->violationCount());
        recorders->foldAudit();
    }
    return m;
}

/** A day of the table: the tasks that replay it and, once the first
 *  of them acquired it, its stage. */
struct SharedDays::Day
{
    std::size_t firstTask = 0;   //!< first of its own tasks; its unit
                                 //!< names the day
    bool panelConstants = false; //!< >= 2 of its tasks track the MPP
    std::once_flag staged;
    std::atomic<std::size_t> leases{0}; //!< tasks yet to release it
    std::unique_ptr<core::DayStage> stage;
};

SharedDays::Lease::Lease(Lease &&other) noexcept
    : owner_(other.owner_), day_(other.day_)
{
    other.day_ = nullptr;
}

SharedDays::Lease::~Lease()
{
    // The last task of a day hands its stage back for a later day to
    // restage: with tasks claimed in order(), only the days in flight
    // hold a stage.
    if (day_ && day_->leases.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(owner_->spareMutex_);
        owner_->spare_.push_back(std::move(day_->stage));
    }
}

const core::DayStage *
SharedDays::Lease::stage() const
{
    return day_ ? day_->stage.get() : nullptr;
}

SharedDays::SharedDays(const ScenarioGrid &grid,
                       const std::vector<ScenarioUnit> &units,
                       std::span<const std::size_t> tasks, int claimers)
    : grid_(&grid), units_(&units), tasks_(tasks),
      dayOf_(tasks.size(), nullptr)
{
    SC_ASSERT(claimers >= 1, "SharedDays: no claimer");
    // Count each day's tasks and MPPT tasks.
    struct Tally
    {
        std::size_t tasks = 0;
        std::size_t mppt = 0;
        std::size_t start = 0; //!< its tasks' first slot in by_day
        std::size_t filled = 0;
        Day *shared = nullptr;
    };
    std::vector<Tally> tally(dayCount(grid));
    auto tally_of = [&](std::size_t t) -> Tally & {
        return tally[static_cast<std::size_t>(units[tasks[t]].day)];
    };
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        const ScenarioUnit &unit = units[tasks[t]];
        SC_ASSERT(unit.day >= 0 &&
                      static_cast<std::size_t>(unit.day) < tally.size(),
                  "SharedDays: unit not of this grid");
        Tally &day = tally_of(t);
        ++day.tasks;
        if (unit.policy != CampaignPolicy::FixedPower &&
            unit.policy != CampaignPolicy::Battery)
            ++day.mppt;
    }

    // Each day's tasks, in task order, day after day in grid order.
    std::vector<Tally *> present; //!< the days that have tasks
    std::size_t slot = 0;
    std::size_t shared = 0;
    for (Tally &day : tally) {
        if (day.tasks == 0)
            continue;
        present.push_back(&day);
        day.start = slot;
        slot += day.tasks;
        shared += day.tasks >= 2 ? 1 : 0;
    }
    std::vector<std::size_t> by_day(tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        Tally &day = tally_of(t);
        by_day[day.start + day.filled++] = t;
    }

    // Claim order: windows of `claimers` days; within a window, rank r
    // of every day before rank r + 1 of any.
    order_.reserve(tasks.size());
    const auto window = static_cast<std::size_t>(claimers);
    for (std::size_t w = 0; w < present.size(); w += window) {
        const std::size_t end = std::min(present.size(), w + window);
        std::size_t ranks = 0;
        for (std::size_t d = w; d < end; ++d)
            ranks = std::max(ranks, present[d]->tasks);
        for (std::size_t r = 0; r < ranks; ++r)
            for (std::size_t d = w; d < end; ++d)
                if (r < present[d]->tasks)
                    order_.push_back(by_day[present[d]->start + r]);
    }

    // A day with two or more tasks is shared; the first task of its
    // own list names it.
    days_ = std::make_unique<Day[]>(shared);
    std::size_t k = 0;
    for (Tally *day : present) {
        if (day->tasks < 2)
            continue;
        Day &entry = days_[k++];
        entry.firstTask = by_day[day->start];
        entry.leases = day->tasks;
        entry.panelConstants = day->mppt >= 2;
        day->shared = &entry;
    }
    for (std::size_t t = 0; t < tasks.size(); ++t)
        dayOf_[t] = tally_of(t).shared;
}

SharedDays::~SharedDays() = default;

SharedDays::Lease
SharedDays::acquire(std::size_t t)
{
    Lease lease;
    Day *const day = dayOf_[t];
    if (!day)
        return lease;
    SC_PROFILE_SCOPE("day.stage");
    std::call_once(day->staged, [&] {
        std::unique_ptr<core::DayStage> stage;
        {
            std::lock_guard<std::mutex> lock(spareMutex_);
            if (!spare_.empty()) {
                stage = std::move(spare_.back());
                spare_.pop_back();
            }
        }
        if (!stage)
            stage = std::make_unique<core::DayStage>();
        const ScenarioUnit &unit = (*units_)[tasks_[day->firstTask]];
        core::stageDay(*stage, campaignModule(), dayTrace(unit),
                       grid_->dtSeconds, 1, 1, day->panelConstants);
        stage->day = dayOf(unit);
        day->stage = std::move(stage);
    });
    lease.owner_ = this;
    lease.day_ = day;
    return lease;
}

CampaignOutcome
runCampaign(const ScenarioGrid &grid_in, const CampaignOptions &options)
{
    // Select the PV kernel for the whole campaign and bake the
    // *resolved* name into the grid signature: "auto" resolves
    // differently across machines, and a journal must never be resumed
    // under a different kernel than the one that produced it.
    ScenarioGrid grid = grid_in;
    const auto kernel = pv::resolvePvKernel(grid.pvKernel);
    if (!kernel)
        SC_FATAL("campaign: pv kernel '", grid.pvKernel,
                 "' unknown or not supported on this cpu (simd level: ",
                 cpuSimdLevelName(), ")");
    pv::setPvKernel(*kernel);
    grid.pvKernel = pv::pvKernelName(*kernel);

    // Request spans: one trace covering grid expansion, journal
    // resume, the cache scan, the worker drain and every simulated
    // unit. Forked shard workers stitch in over 'T' pipe frames (one
    // CLOCK_MONOTONIC timebase across fork). Span collection never
    // touches unit results, merged stats, or the summary bytes.
    const bool want_spans =
        !options.spanOut.empty() || !options.spanPerfettoOut.empty();
    obs::SpanSink span_sink(1u << 16);
    obs::RequestTrace rtrace;
    std::size_t root_span = obs::RequestTrace::kNoSpan;
    std::uint64_t trace_id = 0;
    if (want_spans) {
        trace_id =
            options.traceId != 0 ? options.traceId : obs::newTraceId();
        rtrace.begin(trace_id);
        root_span = rtrace.openSpan("campaign");
    }
    const std::uint64_t root_id = rtrace.spanId(root_span);

    CampaignOutcome outcome;
    {
        obs::SpanScope expand_span(&rtrace, "expand", root_id);
        outcome.units = expandGrid(grid);
        expand_span.attr(
            "units", static_cast<std::int64_t>(outcome.units.size()));
    }
    const std::string signature = gridSignature(grid);
    const std::size_t n = outcome.units.size();
    outcome.results.resize(n);

    obs::RunManifest manifest("solarcore_campaign");

    // Resume: restore completed units from the journal, then execute
    // only the rest. The summary below is assembled from the full
    // index-ordered result vector, so a resumed run and an
    // uninterrupted one emit the same bytes.
    std::vector<char> done(n, 0);
    JournalRecovery recovery;
    if (options.resume && !options.journalPath.empty()) {
        obs::SpanScope resume_span(&rtrace, "resume", root_id);
        recovery = loadJournal(options.journalPath, signature);
        for (const auto &[index, metrics] : recovery.completed) {
            if (index >= 0 && static_cast<std::size_t>(index) < n &&
                !done[static_cast<std::size_t>(index)]) {
                outcome.results[static_cast<std::size_t>(index)] = metrics;
                done[static_cast<std::size_t>(index)] = 1;
                ++outcome.unitsResumed;
            }
        }
        resume_span.attr("restored",
                         static_cast<std::int64_t>(outcome.unitsResumed));
    }
    // Persistent unit cache: completed units are served from disk
    // before any scheduling. The audit mode salts every key because it
    // changes the auditViolations metric.
    std::optional<UnitResultCache> cache;
    std::vector<std::size_t> cached_indices;
    if (!options.unitCacheDir.empty()) {
        const char *salt = options.obs.audit == obs::AuditMode::Off
            ? "audit=off"
            : options.obs.audit == obs::AuditMode::Count ? "audit=count"
                                                         : "audit=strict";
        cache.emplace(options.unitCacheDir, options.unitCacheCap, salt);
        if (!cache->ok()) {
            cache.reset();
        } else {
            obs::SpanScope scan_span(&rtrace, "cache.scan", root_id);
            for (std::size_t i = 0; i < n; ++i) {
                if (done[i])
                    continue;
                UnitMetrics m;
                if (cache->lookup(grid, outcome.units[i], m)) {
                    outcome.results[i] = m;
                    done[i] = 1;
                    cached_indices.push_back(i);
                }
            }
            outcome.unitsCached = static_cast<int>(cached_indices.size());
            scan_span.attr("hits", static_cast<std::int64_t>(
                                       cached_indices.size()));
        }
    }

    std::vector<std::size_t> pending;
    pending.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        if (!done[i])
            pending.push_back(i);

    std::optional<JournalWriter> journal;
    if (!options.journalPath.empty())
        journal.emplace(options.journalPath, signature,
                        /*fresh=*/!recovery.headerValid);
    // Cache hits are journaled like simulated units, so a later
    // --resume reproduces them even without the cache directory.
    if (journal)
        for (const std::size_t i : cached_indices)
            journal->append(static_cast<int>(i), outcome.results[i]);

    // Heavy per-unit recorders stream objects (trace buffers, telemetry
    // rows, profiler trees, audit violation records) that do not cross
    // the worker pipe; they force the in-process path. Plain
    // --audit=count still works under workers: the violation count
    // rides in the unit metrics and audit.* counters in the stats wire.
    const bool heavy = options.obs.traceRequested() ||
        options.obs.telemetryRequested() ||
        options.obs.profileRequested() || !options.obs.auditOut.empty();
    bool use_workers = options.workers > 1 && !pending.empty();
    if (use_workers && heavy) {
        SC_WARN("campaign: --workers needs per-process sinks "
                "(trace/telemetry/profile/audit-out); running in-process");
        use_workers = false;
    }
    if (use_workers && !processShardingSupported()) {
        SC_WARN("campaign: process sharding unsupported on this "
                "platform; running in-process");
        use_workers = false;
    }

    // Fork the worker shards strictly before the first thread exists
    // in this process (thread pool, metrics endpoint): fork() in a
    // threaded process is where the dragons live.
    // The shard.drain span opens at fork time (workers start living
    // here, not at drain()) and its id parents the worker shard
    // spans; spanParentId != 0 is what switches on their 'T' frames.
    std::unique_ptr<ProcessShardRun> shard;
    std::size_t drain_span = obs::RequestTrace::kNoSpan;
    if (use_workers) {
        drain_span = rtrace.openSpan("shard.drain", root_id);
        CampaignOptions worker_opts = options;
        if (want_spans) {
            worker_opts.traceId = trace_id;
            worker_opts.spanParentId = rtrace.spanId(drain_span);
        }
        shard = std::make_unique<ProcessShardRun>(
            grid, worker_opts, outcome.units, pending, options.workers);
    }

    // Run-health surfaces. Legacy per-unit heartbeats (journal
    // comments, --verbose stderr) and the new status.json / OpenMetrics
    // publications all render from one RunHealthReporter snapshot, so
    // every surface agrees on done/inflight/rate. Heartbeats never
    // touch the summary, which stays byte-identical at any thread
    // count; with no progress surface requested the reporter is not
    // even constructed.
    ThreadPool pool(options.threads);
    const bool want_metrics = options.obs.metricsRequested();
    obs::MetricsEndpoint endpoint;
    if (options.obs.metricsPort >= 0 &&
        endpoint.start(options.obs.metricsPort)) {
        // Announce the bound port (--metrics-port=0 is ephemeral) so
        // scrapers can find it.
        std::cerr << "campaign: serving metrics on 127.0.0.1:"
                  << endpoint.port() << "\n";
    }
    std::optional<RunHealthReporter> health;
    if (journal || options.verbose || want_metrics ||
        !options.statusPath.empty()) {
        RunHealthConfig health_cfg;
        health_cfg.totalUnits = n;
        health_cfg.pendingUnits = pending.size();
        health_cfg.unitsResumed =
            static_cast<std::size_t>(outcome.unitsResumed);
        health_cfg.workers =
            use_workers ? shard->workerCount() : pool.threadCount();
        health_cfg.processMode = use_workers;
        health_cfg.cacheEnabled = cache.has_value();
        health_cfg.signature = signature;
        health_cfg.statusPath = options.statusPath;
        health_cfg.metricsPath = options.obs.metricsOut;
        health_cfg.verbose = options.verbose;
        health_cfg.journal = journal ? &*journal : nullptr;
        health_cfg.endpoint =
            options.obs.metricsPort >= 0 ? &endpoint : nullptr;
        health.emplace(std::move(health_cfg));
        if (cache)
            health->setCacheCounters(cached_indices.size(),
                                     cache->counters());
    }
    if (options.obs.postmortemRequested()) {
        obs::FlightRecorderConfig fr_cfg;
        fr_cfg.outputPath = options.obs.postmortemOut;
        obs::FlightRecorder::install(fr_cfg);
    }

    obs::StatsRegistry merged_stats;

    // Once a unit's result has been journaled/cached/counted it must
    // not be acted on again -- a crashed worker's shard is re-run in
    // full when stats are on (the re-run regenerates the lost stats
    // contributions), and those units' identical results would
    // otherwise double-publish.
    std::vector<char> reported(n, 0);

    // Drain the worker pipes first; whatever they did not finish
    // (fork failure, crash re-queue) falls through to the in-process
    // path below.
    std::vector<std::size_t> inproc;
    if (use_workers) {
        shard->drain(
            [&](std::size_t i, const UnitMetrics &m) {
                if (reported[i])
                    return;
                reported[i] = 1;
                outcome.results[i] = m;
                const std::string key = unitKey(outcome.units[i]);
                if (health)
                    health->unitStarted(key);
                if (journal)
                    journal->append(static_cast<int>(i), m);
                if (cache)
                    cache->store(grid, outcome.units[i], m);
                if (health) {
                    if (cache)
                        health->setCacheCounters(cached_indices.size(),
                                                 cache->counters());
                    health->unitFinished(key);
                }
            },
            [&](const ShardWorkerState &w) {
                if (!health)
                    return;
                WorkerHealthRow row;
                row.id = w.id;
                row.pid = w.pid;
                row.done = w.received;
                row.total = w.shardEnd - w.shardBegin;
                row.lastKey = w.lastKey;
                row.alive = w.alive;
                row.crashed = w.crashed;
                health->workerUpdated(row);
            });
        if (obs::SpanRecord *s = rtrace.span(drain_span)) {
            s->attr("workers",
                    static_cast<std::int64_t>(shard->workerCount()));
            s->attr("crashes",
                    static_cast<std::int64_t>(shard->crashes()));
        }
        rtrace.closeSpan(drain_span);
        if (!shard->spans().empty())
            span_sink.commit(shard->spans().data(),
                             shard->spans().size());
        outcome.workerCrashes = static_cast<int>(shard->crashes());
        inproc = shard->unfinished();
        if (options.obs.statsRequested()) {
            // Worker registries come first (worker-id order), then the
            // in-process leftovers below in unit order.
            merged_stats.merge(shard->stats());
            if (!shard->statsValid())
                SC_WARN("campaign: some worker stats were lost; the "
                        "stats dump may be incomplete (unit results and "
                        "the summary are unaffected)");
        }
    } else {
        inproc = pending;
    }

    // Phase span over the in-process leftovers. The per-unit records
    // are built flat and committed straight into the thread-safe sink:
    // RequestTrace is single-threaded by design and stays on this
    // thread.
    const std::size_t inproc_span = inproc.empty()
        ? obs::RequestTrace::kNoSpan
        : rtrace.openSpan("inproc", root_id);
    const std::uint64_t inproc_id = rtrace.spanId(inproc_span);

    // The run's tasks are its grid's units: each unit simulated here
    // records into its own slot; the others (resumed, cached, run by a
    // worker) record nothing.
    std::vector<obs::Recorders> recs(n);

    // Tasks are claimed in windows of one day per pool thread
    // (SharedDays::order), but every recorder and result slot stays
    // indexed by unit, so the outputs do not depend on the claim order.
    SharedDays days(grid, outcome.units, inproc, pool.threadCount());
    pool.parallelFor(inproc.size(), [&](std::size_t k) {
        const std::size_t t = days.order()[k];
        const std::size_t i = inproc[t];
        const std::string key = unitKey(outcome.units[i]);
        const bool fresh = !reported[i];
        obs::Recorders &recorders = recs[i] = obs::Recorders(options.obs);
        if (health && fresh)
            health->unitStarted(key);
        const std::int64_t unit_t0 = want_spans ? obs::spanNowNs() : 0;
        obs::FlightRecorder::beginUnit(key.c_str(), recorders.trace.get());
        {
            std::optional<obs::Profiler::Attach> attach;
            if (recorders.profiler)
                attach.emplace(recorders.profiler.get());
            SC_PROFILE_SCOPE("campaign.unit");
            const SharedDays::Lease lease = days.acquire(t);
            // One workspace per pool thread: per-day step buffers keep
            // their capacity across every unit this thread simulates.
            static thread_local core::SimWorkspace workspace;
            outcome.results[i] = runUnit(outcome.units[i], grid,
                                         &recorders, &workspace,
                                         lease.stage());
        }
        obs::FlightRecorder::endUnit();
        if (want_spans) {
            // Salt 1 separates a parent-side re-run (crashed worker)
            // from the worker's own salt-0 span for the same unit.
            obs::SpanRecord rec;
            rec.traceId = trace_id;
            rec.spanId = campaignUnitSpanId(trace_id, i, /*salt=*/1);
            rec.parentId = inproc_id;
            rec.startNs = unit_t0;
            rec.endNs = obs::spanNowNs();
            rec.setName("unit");
            rec.attr("unit", static_cast<std::int64_t>(i));
            rec.attr("key", std::string_view(key));
            span_sink.commit(&rec, 1);
        }
        if (fresh) {
            reported[i] = 1;
            if (journal)
                journal->append(static_cast<int>(i), outcome.results[i]);
            if (cache)
                cache->store(grid, outcome.units[i], outcome.results[i]);
            if (health) {
                if (cache)
                    health->setCacheCounters(cached_indices.size(),
                                             cache->counters());
                health->unitFinished(key);
            }
        }
    });
    if (inproc_span != obs::RequestTrace::kNoSpan) {
        if (obs::SpanRecord *s = rtrace.span(inproc_span))
            s->attr("units", static_cast<std::int64_t>(inproc.size()));
        rtrace.closeSpan(inproc_span);
    }
    outcome.unitsRun = static_cast<int>(pending.size());
    if (health) {
        if (cache)
            health->setCacheCounters(cached_indices.size(),
                                     cache->counters());
        health->finish();
    }

    // The unit-cache counters are the campaign's own keys: no task
    // records them, so adding them ahead of the task merge moves no
    // bit of the dump.
    if (cache && options.obs.statsRequested()) {
        const UnitCacheCounters c = cache->counters();
        merged_stats.scalar("campaign.unitCache.hits",
                            "persistent unit-cache lookup hits") +=
            static_cast<double>(c.hits);
        merged_stats.scalar("campaign.unitCache.misses",
                            "persistent unit-cache lookup misses") +=
            static_cast<double>(c.misses);
        merged_stats.scalar("campaign.unitCache.stores",
                            "persistent unit-cache entries written") +=
            static_cast<double>(c.stores);
        merged_stats.scalar("campaign.unitCache.evictions",
                            "persistent unit-cache LRU evictions") +=
            static_cast<double>(c.evictions);
    }
    std::vector<std::string> lanes;
    lanes.reserve(n);
    for (const ScenarioUnit &unit : outcome.units)
        lanes.push_back(unitKey(unit));
    obs::writeRun(options.obs, recs, lanes, obs::TelemetryLayout::Tasks,
                  merged_stats, manifest);

    // Final scrape payload: campaign progress plus the merged stats
    // registry (when collected), pushed to the endpoint and snapshotted
    // to --metrics-out so post-run scrapes see the completed picture.
    if (health && want_metrics) {
        obs::OpenMetricsWriter w;
        RunHealthReporter::appendMetrics(w, health->snapshot());
        if (options.obs.statsRequested())
            obs::appendRegistry(w, merged_stats);
        endpoint.update(w.finish());
        if (!options.obs.metricsOut.empty())
            endpoint.writeSnapshot(options.obs.metricsOut);
    }

    if (options.obs.anyRequested()) {
        // In worker mode the recorders above only saw the in-process
        // leftovers; the true audit totals live in the unit metrics
        // (violations) and the stats wire (steps audited).
        if (options.obs.auditRequested() && use_workers) {
            double violations = 0.0;
            for (const std::size_t i : pending)
                violations += outcome.results[i].auditViolations;
            manifest.set("audit_violations",
                         static_cast<std::uint64_t>(violations));
            if (options.obs.statsRequested())
                manifest.set(
                    "audit_steps",
                    static_cast<std::uint64_t>(
                        merged_stats.value("audit.stepsAudited")));
        }
        manifest.set("grid", signature);
        manifest.set("pv_kernel", pv::pvKernelName(pv::selectedPvKernel()));
        manifest.set("simd_level", cpuSimdLevelName());
        manifest.set("threads",
                     static_cast<std::uint64_t>(pool.threadCount()));
        manifest.set("worker_processes",
                     static_cast<std::uint64_t>(
                         use_workers ? shard->workerCount() : 0));
        manifest.set("units", static_cast<std::uint64_t>(n));
        manifest.set("units_resumed",
                     static_cast<std::uint64_t>(outcome.unitsResumed));
        manifest.set("units_run",
                     static_cast<std::uint64_t>(outcome.unitsRun));
        manifest.set("units_cached",
                     static_cast<std::uint64_t>(outcome.unitsCached));
        manifest.set("worker_crashes",
                     static_cast<std::uint64_t>(outcome.workerCrashes));
        if (cache)
            manifest.set("unit_cache_dir", options.unitCacheDir);
        if (!options.journalPath.empty())
            manifest.set("journal", options.journalPath);
        options.obs.writeManifest(manifest);
    }

    if (want_spans) {
        if (obs::SpanRecord *root = rtrace.span(root_span)) {
            root->attr("units", static_cast<std::int64_t>(n));
            root->attr("workers",
                       static_cast<std::int64_t>(
                           use_workers ? shard->workerCount() : 0));
            root->attr("kernel", std::string_view(grid.pvKernel));
        }
        rtrace.closeSpan(root_span);
        span_sink.commit(rtrace);
        std::string span_error;
        if (!obs::writeSpanExports(span_sink.snapshot(), options.spanOut,
                                   options.spanPerfettoOut, span_error))
            SC_WARN("campaign: span export failed: ", span_error);
        else
            std::cerr << "campaign: trace " << obs::spanIdHex(trace_id)
                      << " (" << span_sink.counters().committedSpans
                      << " spans)\n";
    }
    return outcome;
}

void
writeSummaryJson(std::ostream &os, const ScenarioGrid &grid,
                 const CampaignOutcome &outcome)
{
    using obs::jsonNumber;
    using obs::jsonString;

    auto list = [](auto &&values, auto &&name) {
        std::string s;
        for (const auto v : values) {
            if (!s.empty())
                s += ',';
            s += name(v);
        }
        return s;
    };

    os << "{\n";
    os << "  \"schema\": \"solarcore-campaign-summary-v1\",\n";
    os << "  \"grid\": {\n";
    os << "    \"sites\": " << jsonString(list(grid.sites, solar::siteName))
       << ",\n";
    os << "    \"months\": "
       << jsonString(list(grid.months, solar::monthName)) << ",\n";
    os << "    \"policies\": "
       << jsonString(list(grid.policies, campaignPolicyToken)) << ",\n";
    os << "    \"workloads\": "
       << jsonString(list(grid.workloads, workload::workloadName))
       << ",\n";
    os << "    \"seeds\": "
       << jsonString(list(grid.seeds,
                          [](std::uint64_t s) { return std::to_string(s); }))
       << ",\n";
    os << "    \"dt_seconds\": " << jsonNumber(grid.dtSeconds) << ",\n";
    os << "    \"fixed_budget_w\": " << jsonNumber(grid.fixedBudgetW)
       << ",\n";
    os << "    \"battery_derating\": " << jsonNumber(grid.batteryDerating)
       << ",\n";
    os << "    \"tracking_period_minutes\": "
       << jsonNumber(grid.trackingPeriodMinutes) << "\n";
    os << "  },\n";

    os << "  \"units\": [\n";
    for (std::size_t i = 0; i < outcome.units.size(); ++i) {
        const auto &unit = outcome.units[i];
        const auto &m = outcome.results[i];
        os << "    {\"key\": " << jsonString(unitKey(unit))
           << ", \"site\": " << jsonString(solar::siteName(unit.site))
           << ", \"month\": " << jsonString(solar::monthName(unit.month))
           << ", \"policy\": "
           << jsonString(campaignPolicyToken(unit.policy))
           << ", \"workload\": "
           << jsonString(workload::workloadName(unit.workload))
           << ", \"seed\": " << jsonNumber(unit.seed);
        for (const auto &field : kFields)
            os << ", \"" << field.name
               << "\": " << jsonNumber(m.*(field.member));
        os << '}' << (i + 1 < outcome.units.size() ? "," : "") << '\n';
    }
    os << "  ],\n";

    // Aggregates: energies/instructions/counters sum; the ratio-like
    // metrics are reported as unweighted means across units.
    UnitMetrics sum;
    for (const auto &m : outcome.results)
        for (const auto &field : kFields)
            sum.*(field.member) += m.*(field.member);
    const double n = outcome.results.empty()
        ? 1.0
        : static_cast<double>(outcome.results.size());
    os << "  \"aggregate\": {\n";
    os << "    \"units\": "
       << jsonNumber(static_cast<std::uint64_t>(outcome.results.size()))
       << ",\n";
    for (const auto &field : kFields) {
        const bool ratio = std::string_view(field.name) == "utilization" ||
            std::string_view(field.name) == "effectiveFraction" ||
            std::string_view(field.name) == "trackingError";
        if (ratio)
            os << "    \"mean_" << field.name
               << "\": " << jsonNumber(sum.*(field.member) / n) << ",\n";
        else
            os << "    \"" << field.name
               << "\": " << jsonNumber(sum.*(field.member)) << ",\n";
    }
    os << "    \"solar_ptp_share\": "
       << jsonNumber(sum.totalInstructions > 0.0
                         ? sum.solarInstructions / sum.totalInstructions
                         : 0.0)
       << "\n";
    os << "  }\n";
    os << "}\n";
}

} // namespace solarcore::campaign
