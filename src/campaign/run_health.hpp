/**
 * @file
 * Campaign run-health reporting: one snapshot source feeding every
 * progress surface.
 *
 * The RunHealthReporter keeps a campaign's progress state -- done
 * counter, in-flight unit keys, monotonic wall clock -- and fans one
 * consistent snapshot out to three surfaces:
 *
 *   - the --verbose stderr ETA line   (one per completed unit)
 *   - a versioned status.json         (--status-out, atomic rename)
 *   - the OpenMetrics endpoint        (--metrics-port/--metrics-out)
 *
 * The --verbose line fires on every completion; the file/endpoint
 * publications are throttled on the monotonic clock (default 4 Hz) so
 * a million-unit campaign does not spend its time rewriting
 * status.json. All surfaces are off by default and the reporter is
 * never constructed unless one of them is requested, keeping the
 * disabled-path cost at zero.
 */

#ifndef SOLARCORE_CAMPAIGN_RUN_HEALTH_HPP
#define SOLARCORE_CAMPAIGN_RUN_HEALTH_HPP

#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/unit_cache.hpp"

namespace solarcore::obs {
class MetricsEndpoint;
class OpenMetricsWriter;
}

namespace solarcore::campaign {

/** One forked worker's progress, as shown on the health surfaces. */
struct WorkerHealthRow
{
    int id = -1;
    long pid = -1;
    std::size_t done = 0;  //!< unit results received from this worker
    std::size_t total = 0; //!< its shard size
    std::string lastKey;   //!< most recent unit key it completed
    bool alive = true;
    bool crashed = false;
};

/** What the reporter publishes and where. */
struct RunHealthConfig
{
    std::size_t totalUnits = 0;   //!< expanded grid size
    std::size_t pendingUnits = 0; //!< units executing this invocation
    std::size_t workers = 0;      //!< thread-pool width (or process
                                  //!< count in --workers mode)
    bool processMode = false;     //!< forked-worker execution
    bool cacheEnabled = false;    //!< --unit-cache in effect
    std::string signature;        //!< grid signature string
    std::string statusPath;       //!< status.json path; empty disables
    std::string metricsPath;      //!< OpenMetrics snapshot file path
    bool verbose = false;         //!< stderr progress lines
    obs::MetricsEndpoint *endpoint = nullptr; //!< scrape payloads
    double minPublishSeconds = 0.25;        //!< file/endpoint throttle
};

/** One coherent view of campaign progress. */
struct RunHealthSnapshot
{
    std::size_t totalUnits = 0;
    std::size_t pendingUnits = 0;
    std::size_t unitsDone = 0;
    std::size_t unitsInflight = 0;
    std::size_t queueDepth = 0; //!< not yet started
    std::size_t workers = 0;
    double elapsedSeconds = 0.0;
    double unitsPerSecond = 0.0;
    double etaSeconds = 0.0;
    double workerUtilization = 0.0; //!< inflight / workers
    std::vector<std::string> busyKeys; //!< in-flight unit keys
    bool processMode = false;          //!< forked-worker execution
    std::vector<WorkerHealthRow> workerRows; //!< per forked worker
    bool cacheEnabled = false;     //!< --unit-cache in effect
    std::size_t unitsCached = 0;   //!< served from the unit cache
    UnitCacheCounters cache;       //!< this run's cache activity
};

/** Thread-safe progress aggregator + publisher (see file header). */
class RunHealthReporter
{
  public:
    explicit RunHealthReporter(RunHealthConfig config);
    ~RunHealthReporter();

    RunHealthReporter(const RunHealthReporter &) = delete;
    RunHealthReporter &operator=(const RunHealthReporter &) = delete;

    /** A worker picked up the unit named @p key. */
    void unitStarted(const std::string &key);

    /**
     * A worker finished the unit named @p key: emits the --verbose
     * line and (throttled) republishes status.json and the metrics
     * payload.
     */
    void unitFinished(const std::string &key);

    /**
     * Upsert (by id) one forked worker's progress row and republish
     * (throttled). Only the --workers parent calls this.
     */
    void workerUpdated(const WorkerHealthRow &row);

    /** Refresh the unit-cache counters shown on the surfaces. */
    void setCacheCounters(std::size_t units_cached,
                          const UnitCacheCounters &counters);

    /** Final unthrottled publication (campaign end). */
    void finish();

    /** The current progress view. */
    RunHealthSnapshot snapshot() const;

    /** Render @p snap as the status.json document. */
    static std::string renderStatusJson(const RunHealthSnapshot &snap,
                                        const std::string &signature);

    /** Render @p snap as an OpenMetrics exposition document. */
    static std::string renderMetrics(const RunHealthSnapshot &snap);

    /** Append @p snap's campaign_* families to @p w (composing the
     *  final payload with the merged stats registry). */
    static void appendMetrics(obs::OpenMetricsWriter &w,
                              const RunHealthSnapshot &snap);

  private:
    void publish(bool force);

    RunHealthConfig config_;
    mutable std::mutex mutex_;
    std::size_t done_ = 0;
    std::vector<std::string> busy_;
    std::vector<WorkerHealthRow> workerRows_;
    std::size_t unitsCached_ = 0;
    UnitCacheCounters cache_;
    std::chrono::steady_clock::time_point start_;
    std::chrono::steady_clock::time_point lastPublish_;
    bool published_ = false;
};

} // namespace solarcore::campaign

#endif // SOLARCORE_CAMPAIGN_RUN_HEALTH_HPP
