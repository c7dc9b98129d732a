#include "run_health.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "obs/json.hpp"
#include "obs/metrics_export.hpp"
#include "util/atomic_file.hpp"
#include "util/logging.hpp"

namespace solarcore::campaign {

namespace {

/** Fill the rate-derived fields from the counters. */
void
deriveRates(RunHealthSnapshot &s)
{
    const std::size_t accounted = s.unitsDone + s.unitsInflight;
    s.queueDepth =
        s.pendingUnits > accounted ? s.pendingUnits - accounted : 0;
    s.unitsPerSecond = static_cast<double>(s.unitsDone) /
        std::max(s.elapsedSeconds, 1e-9);
    s.etaSeconds = static_cast<double>(s.pendingUnits - s.unitsDone) /
        std::max(s.unitsPerSecond, 1e-9);
    s.workerUtilization = s.workers == 0
        ? 0.0
        : static_cast<double>(s.unitsInflight) /
            static_cast<double>(s.workers);
}

} // namespace

RunHealthReporter::RunHealthReporter(RunHealthConfig config)
    : config_(std::move(config)), start_(std::chrono::steady_clock::now()),
      lastPublish_(start_)
{
    busy_.reserve(config_.workers + 1);
    publish(/*force=*/true); // an empty-progress heartbeat at startup
}

RunHealthReporter::~RunHealthReporter() = default;

void
RunHealthReporter::unitStarted(const std::string &key)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        busy_.push_back(key);
    }
    publish(/*force=*/false);
}

void
RunHealthReporter::unitFinished(const std::string &key)
{
    std::size_t finished = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        finished = ++done_;
        const auto it = std::find(busy_.begin(), busy_.end(), key);
        if (it != busy_.end())
            busy_.erase(it);
    }

    if (config_.verbose) {
        // One preformatted string per line so concurrent progress
        // reports interleave whole, never mid-line.
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start_)
                                .count();
        const double rate =
            static_cast<double>(finished) / std::max(secs, 1e-9);
        const double eta_s =
            static_cast<double>(config_.pendingUnits - finished) /
            std::max(rate, 1e-9);
        char suffix[96];
        std::snprintf(suffix, sizeof(suffix),
                      " done [%zu/%zu, %.1f u/s, eta %.0fs]\n", finished,
                      config_.pendingUnits, rate, eta_s);
        std::cerr << (key + suffix);
    }

    publish(/*force=*/finished == config_.pendingUnits);
}

void
RunHealthReporter::workerUpdated(const WorkerHealthRow &row)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = std::find_if(
            workerRows_.begin(), workerRows_.end(),
            [&](const WorkerHealthRow &r) { return r.id == row.id; });
        if (it == workerRows_.end())
            workerRows_.push_back(row);
        else
            *it = row;
    }
    publish(/*force=*/false);
}

void
RunHealthReporter::setCacheCounters(std::size_t units_cached,
                                    const UnitCacheCounters &counters)
{
    std::lock_guard<std::mutex> lock(mutex_);
    unitsCached_ = units_cached;
    cache_ = counters;
}

void
RunHealthReporter::finish()
{
    publish(/*force=*/true);
}

RunHealthSnapshot
RunHealthReporter::snapshot() const
{
    RunHealthSnapshot s;
    s.totalUnits = config_.totalUnits;
    s.pendingUnits = config_.pendingUnits;
    s.workers = config_.workers;
    s.processMode = config_.processMode;
    s.cacheEnabled = config_.cacheEnabled;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        s.unitsDone = done_;
        s.busyKeys = busy_;
        s.workerRows = workerRows_;
        s.unitsCached = unitsCached_;
        s.cache = cache_;
        s.elapsedSeconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
    }
    s.unitsInflight = s.busyKeys.size();
    deriveRates(s);
    return s;
}

std::string
RunHealthReporter::renderStatusJson(const RunHealthSnapshot &snap,
                                    const std::string &signature)
{
    using obs::jsonNumber;
    using obs::jsonString;
    std::string out = "{\"schema\":\"solarcore-campaign-status-v2\"";
    out += ",\"signature\":" + jsonString(signature);
    out += ",\"units_total\":" +
        jsonNumber(static_cast<std::uint64_t>(snap.totalUnits));
    out += ",\"units_pending\":" +
        jsonNumber(static_cast<std::uint64_t>(snap.pendingUnits));
    out += ",\"units_done\":" +
        jsonNumber(static_cast<std::uint64_t>(snap.unitsDone));
    out += ",\"units_inflight\":" +
        jsonNumber(static_cast<std::uint64_t>(snap.unitsInflight));
    out += ",\"queue_depth\":" +
        jsonNumber(static_cast<std::uint64_t>(snap.queueDepth));
    out += ",\"workers\":" +
        jsonNumber(static_cast<std::uint64_t>(snap.workers));
    out += ",\"elapsed_seconds\":" + jsonNumber(snap.elapsedSeconds);
    out += ",\"units_per_second\":" + jsonNumber(snap.unitsPerSecond);
    out += ",\"eta_seconds\":" + jsonNumber(snap.etaSeconds);
    out += ",\"worker_utilization\":" + jsonNumber(snap.workerUtilization);
    out += ",\"busy\":[";
    for (std::size_t i = 0; i < snap.busyKeys.size(); ++i) {
        if (i)
            out += ',';
        out += jsonString(snap.busyKeys[i]);
    }
    out += ']';
    out += ",\"process_mode\":";
    out += snap.processMode ? "true" : "false";
    if (snap.processMode) {
        out += ",\"worker_rows\":[";
        for (std::size_t i = 0; i < snap.workerRows.size(); ++i) {
            const WorkerHealthRow &r = snap.workerRows[i];
            if (i)
                out += ',';
            out += "{\"id\":" +
                jsonNumber(static_cast<std::int64_t>(r.id));
            out += ",\"pid\":" +
                jsonNumber(static_cast<std::int64_t>(r.pid));
            out += ",\"done\":" +
                jsonNumber(static_cast<std::uint64_t>(r.done));
            out += ",\"total\":" +
                jsonNumber(static_cast<std::uint64_t>(r.total));
            out += ",\"last_key\":" + jsonString(r.lastKey);
            out += ",\"alive\":";
            out += r.alive ? "true" : "false";
            out += ",\"crashed\":";
            out += r.crashed ? "true" : "false";
            out += '}';
        }
        out += ']';
    }
    if (snap.cacheEnabled) {
        out += ",\"unit_cache\":{\"units_cached\":" +
            jsonNumber(static_cast<std::uint64_t>(snap.unitsCached));
        out += ",\"hits\":" + jsonNumber(snap.cache.hits);
        out += ",\"misses\":" + jsonNumber(snap.cache.misses);
        out += ",\"stores\":" + jsonNumber(snap.cache.stores);
        out += ",\"evictions\":" + jsonNumber(snap.cache.evictions);
        out += '}';
    }
    out += "}\n";
    return out;
}

std::string
RunHealthReporter::renderMetrics(const RunHealthSnapshot &snap)
{
    obs::OpenMetricsWriter w;
    appendMetrics(w, snap);
    return w.finish();
}

void
RunHealthReporter::appendMetrics(obs::OpenMetricsWriter &w,
                                 const RunHealthSnapshot &snap)
{
    w.counter("solarcore_campaign_units_done",
              "work units completed this invocation",
              static_cast<double>(snap.unitsDone));
    w.gauge("solarcore_campaign_units_total",
            "expanded grid size [units]",
            static_cast<double>(snap.totalUnits));
    w.gauge("solarcore_campaign_units_pending",
            "units executing this invocation",
            static_cast<double>(snap.pendingUnits));
    w.gauge("solarcore_campaign_units_inflight",
            "units currently being simulated",
            static_cast<double>(snap.unitsInflight));
    w.gauge("solarcore_campaign_queue_depth",
            "units not yet started",
            static_cast<double>(snap.queueDepth));
    w.gauge("solarcore_campaign_workers", "thread-pool width",
            static_cast<double>(snap.workers));
    w.gauge("solarcore_campaign_elapsed_seconds",
            "wall time since the campaign started [s]",
            snap.elapsedSeconds);
    w.gauge("solarcore_campaign_units_per_second",
            "completion rate [units/s]", snap.unitsPerSecond);
    w.gauge("solarcore_campaign_eta_seconds",
            "estimated time to completion [s]", snap.etaSeconds);
    w.gauge("solarcore_campaign_worker_utilization",
            "in-flight units / workers", snap.workerUtilization);
    if (snap.processMode) {
        w.gauge("solarcore_campaign_worker_processes",
                "forked worker processes",
                static_cast<double>(snap.workerRows.size()));
        double crashed = 0.0;
        for (const WorkerHealthRow &r : snap.workerRows)
            crashed += r.crashed ? 1.0 : 0.0;
        w.counter("solarcore_campaign_worker_crashes",
                  "workers that died before completing their shard",
                  crashed);
        w.family("solarcore_campaign_worker_units_done", "gauge",
                 "unit results received per forked worker");
        for (const WorkerHealthRow &r : snap.workerRows)
            w.sample("", {{"worker", std::to_string(r.id)}},
                     static_cast<double>(r.done));
    }
    if (snap.cacheEnabled) {
        w.counter("solarcore_campaign_unit_cache_hits",
                  "persistent unit-cache lookup hits",
                  static_cast<double>(snap.cache.hits));
        w.counter("solarcore_campaign_unit_cache_misses",
                  "persistent unit-cache lookup misses",
                  static_cast<double>(snap.cache.misses));
        w.counter("solarcore_campaign_unit_cache_stores",
                  "persistent unit-cache entries written",
                  static_cast<double>(snap.cache.stores));
        w.counter("solarcore_campaign_unit_cache_evictions",
                  "persistent unit-cache LRU evictions",
                  static_cast<double>(snap.cache.evictions));
        w.gauge("solarcore_campaign_units_cached",
                "units served from the persistent cache this run",
                static_cast<double>(snap.unitsCached));
    }
}

void
RunHealthReporter::publish(bool force)
{
    if (config_.statusPath.empty() && config_.endpoint == nullptr &&
        config_.metricsPath.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto now = std::chrono::steady_clock::now();
        const double since =
            std::chrono::duration<double>(now - lastPublish_).count();
        if (!force && published_ && since < config_.minPublishSeconds)
            return;
        lastPublish_ = now;
        published_ = true;
    }
    const RunHealthSnapshot snap = snapshot();
    std::string error;
    if (!config_.statusPath.empty() &&
        !util::writeFileAtomically(
            config_.statusPath, renderStatusJson(snap, config_.signature),
            error))
        SC_WARN_ONCE("run-health: ", error);
    if (config_.endpoint != nullptr || !config_.metricsPath.empty()) {
        const std::string payload = renderMetrics(snap);
        if (config_.endpoint != nullptr)
            config_.endpoint->update(payload);
        if (!config_.metricsPath.empty() &&
            !util::writeFileAtomically(config_.metricsPath, payload, error))
            SC_WARN_ONCE("run-health: ", error);
    }
}

} // namespace solarcore::campaign
