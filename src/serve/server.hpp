/**
 * @file
 * The solarcore_serve planning daemon core.
 *
 * A Server binds an AF_UNIX stream socket and answers PlanQuery
 * frames (src/serve/protocol.hpp) with fleet energy/carbon/payback
 * projections computed by the campaign unit simulator. The moving
 * parts:
 *
 *  - one IO thread multiplexing accept + per-connection reads with
 *    poll(); every connection gets a FrameReader capped at
 *    kMaxFrameBytes, so an absurd declared length drops the client
 *    instead of ballooning the heap;
 *  - a bounded request queue feeding N worker threads. Admission is
 *    load-shedding, never unbounded queueing: a full queue answers
 *    ShedCapacity immediately, and a deadline the server predicts it
 *    cannot meet (EWMA of measured per-unit service time x grid
 *    size) answers ShedDeadline without simulating anything. Workers
 *    re-check the deadline at dequeue and between units and answer
 *    Expired the moment it lapses;
 *  - two cache layers: an in-memory LRU of whole query answers
 *    (ResultCache, keyed by the clear-text query material) over the
 *    campaign's persistent on-disk unit cache (shared with
 *    solarcore_campaign runs, salt "audit=off");
 *  - observability: lock-free counters materialized into a stats
 *    registry, queue/service latency through the self-profiler
 *    (p50/p99 from its log2 histograms), and a throttled publisher
 *    fanning one snapshot out to status.json (atomic rename,
 *    schema solarcore-serve-status-v1), an OpenMetrics snapshot file
 *    and the embedded /metrics HTTP endpoint -- the same surfaces
 *    solarcore_top and CI lint already speak.
 *
 * Determinism: a request executes on exactly one worker, units in
 * index order, and the reply body is encoded once and cached, so
 * identical queries produce byte-identical answer payloads at any
 * worker count and any cache state.
 */

#ifndef SOLARCORE_SERVE_SERVER_HPP
#define SOLARCORE_SERVE_SERVER_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/unit_cache.hpp"
#include "obs/metrics_export.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "obs/stats_registry.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"
#include "util/pipe_channel.hpp"

namespace solarcore::core {
struct SimWorkspace;
}

namespace solarcore::serve {

/** True when AF_UNIX socket serving is available on this platform. */
bool serveSupported();

/** Everything a Server instance is configured with. */
struct ServeConfig
{
    std::string socketPath;        //!< AF_UNIX path (required)
    int workers = 2;               //!< planner worker threads
    std::size_t maxQueueDepth = 64;   //!< admission bound [requests]
    std::size_t resultCacheCap = 1024; //!< answer LRU [entries]; 0 off
    std::size_t maxUnitsPerQuery = 4096; //!< grid-size cap per query
    std::string unitCacheDir;      //!< persistent unit cache; "" off
    std::size_t unitCacheCap = 4096; //!< unit-cache LRU cap [files]
    std::string pvKernel = "auto"; //!< "auto"/"scalar"/"avx2"
    /**
     * Seed of the per-unit service-time estimate [us] used by the
     * ShedDeadline admission test. 0 starts with no estimate (the
     * first requests are always admitted and the EWMA learns from
     * them); tests pin it high to make shedding deterministic.
     */
    double estimateInitUnitMicros = 0.0;
    std::string statusPath;        //!< status.json path; "" disables
    std::string metricsOut;        //!< OpenMetrics snapshot; "" off
    int metricsPort = -1;          //!< /metrics HTTP; -1 off, 0 ephemeral
    double minPublishSeconds = 0.25; //!< publisher throttle
    bool verbose = false;          //!< per-request stderr lines
    /**
     * Request tracing. Tracing is enabled when either export path is
     * set; otherwise every span hook degrades to one null check and
     * the reply bytes are untouched (the <1% bench gate covers this).
     * With tracing on, every request stages spans speculatively and
     * the keep/discard decision happens at request end, which is what
     * makes the tail bias (always keep slow/shed/expired/error
     * requests) free; head sampling keeps every Nth request on top,
     * and a client-stamped trace id is always kept.
     */
    std::string traceOut;          //!< span JSONL path; "" off
    std::string tracePerfettoOut;  //!< Chrome/Perfetto path; "" off
    std::uint64_t traceSample = 0; //!< head-sample every Nth request;
                                   //!< 0 = only client-traced + tail
    std::size_t traceBufferSpans = 1u << 16; //!< span sink capacity
    double slowMillis = 250.0;     //!< queue+service ms deemed "slow"
    std::size_t slowLogCap = 16;   //!< slow-query log entries kept
};

/** One entry of the bounded slow-query log (status.json). */
struct SlowQueryEntry
{
    std::uint64_t requestId = 0;
    std::uint64_t traceId = 0; //!< 0 = trace not kept / tracing off
    std::string status;        //!< replyStatusName() token
    double queueMs = 0.0;
    double serviceMs = 0.0;
    std::uint32_t units = 0;
};

/** One coherent view of server health (status.json / tests). */
struct ServeSnapshot
{
    double uptimeSeconds = 0.0;
    std::size_t workers = 0;
    std::size_t queueDepth = 0;
    std::size_t inflight = 0;
    std::uint64_t connections = 0;
    std::uint64_t disconnects = 0;
    std::uint64_t protocolErrors = 0;
    std::uint64_t requests = 0;
    std::uint64_t ok = 0;
    std::uint64_t shedCapacity = 0;
    std::uint64_t shedDeadline = 0;
    std::uint64_t expired = 0;
    std::uint64_t badRequest = 0;
    std::uint64_t serverError = 0;
    std::uint64_t shuttingDown = 0;
    std::uint64_t unitsSimulated = 0;
    std::uint64_t unitsFromUnitCache = 0;
    // In-memory answer cache.
    std::size_t resultCacheSize = 0;
    std::uint64_t resultCacheHits = 0;
    std::uint64_t resultCacheMisses = 0;
    std::uint64_t resultCacheInsertions = 0;
    std::uint64_t resultCacheEvictions = 0;
    // Persistent unit cache (when enabled).
    bool unitCacheEnabled = false;
    std::size_t unitCacheSize = 0;
    campaign::UnitCacheCounters unitCache;
    // Latency quantiles from the self-profiler [ms].
    double queueP50Ms = 0.0;
    double queueP99Ms = 0.0;
    double serviceP50Ms = 0.0;
    double serviceP99Ms = 0.0;
    double estimateUnitMicros = 0.0;
    // Request tracing (spans) + the always-on slow-query log.
    bool tracingEnabled = false;
    obs::SpanSinkCounters trace;
    std::uint64_t tracesClientStamped = 0;
    std::uint64_t tracesHeadSampled = 0;
    std::uint64_t tracesTailKept = 0;
    std::vector<SlowQueryEntry> slowQueries; //!< oldest first
};

/** The daemon (see file header). */
class Server
{
  public:
    explicit Server(ServeConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Resolve the PV kernel, open the caches, bind the socket and
     * start the IO + worker threads. @return false (with a warning)
     * when the socket cannot be bound or the kernel token is invalid.
     */
    bool start();

    /**
     * Stop accepting, answer every queued request with ShuttingDown,
     * join all threads, close and unlink the socket, and force a
     * final publication. Idempotent.
     */
    void stop();

    bool running() const { return running_.load(); }

    /** The resolved PV kernel name ("scalar"/"avx2"). */
    const std::string &resolvedKernel() const { return resolvedKernel_; }

    /** The bound /metrics port (0 when not serving HTTP). */
    int metricsPort() const { return endpoint_.port(); }

    /** The current health view. */
    ServeSnapshot snapshot() const;

    /** Force an immediate unthrottled publication (tests). */
    void publishNow();

    /**
     * Materialize the current counters into the stats registry and
     * return its flattened (name, value) rows -- the registry surface
     * the shed/cache counters are exported through.
     */
    std::vector<std::pair<std::string, double>> statsRows();

    /** Render @p snap as the status.json document. */
    static std::string renderStatusJson(const ServeSnapshot &snap,
                                        const std::string &socket_path,
                                        const std::string &kernel);

  private:
    struct Conn;
    struct Request;

    /** Per-bin latency histogram with one exemplar slot per bucket
     *  (bounds in latencyBoundsMs(); last slot = +Inf). */
    struct LatencyHist
    {
        std::vector<std::uint64_t> counts;
        std::vector<obs::MetricExemplar> exemplars;
        std::uint64_t total = 0;
        double sumMs = 0.0;
    };

    static void addLatency(LatencyHist &hist, double ms,
                           std::uint64_t trace_id);

    void ioLoop();
    void workerLoop(int worker_index);
    void acceptClients();
    bool drainConn(const std::shared_ptr<Conn> &conn);
    void handleFrame(const std::shared_ptr<Conn> &conn,
                     const std::string &frame);
    void replyError(const std::shared_ptr<Conn> &conn,
                    std::uint64_t request_id, ReplyStatus status,
                    const std::string &message);
    bool executeQueryWith(const Request &req, std::string &body,
                          bool &expired,
                          core::SimWorkspace &workspace);
    void recordLatency(const char *scope, std::int64_t ns);
    /**
     * End-of-request bookkeeping shared by every outcome path: closes
     * and commits/discards the staged trace (client-stamped and
     * head-sampled traces always commit; slow/shed/expired/error ones
     * tail-commit), feeds the exemplar-bearing latency histograms
     * (negative ms = stage never ran), and appends to the bounded
     * slow-query log. @p units is the expanded grid size when known.
     */
    void finishRequest(Request &req, ReplyStatus status,
                       double queue_ms, double service_ms,
                       std::uint32_t units);
    void fillRegistry(const ServeSnapshot &snap);
    std::string renderMetrics(const ServeSnapshot &snap);
    void publish(bool force);
    double estimateUnitMicros() const;
    void updateEstimate(double measured_unit_micros);

    ServeConfig config_;
    std::string resolvedKernel_;
    std::atomic<bool> running_{false};
    bool started_ = false;

    int listenFd_ = -1;
    std::thread ioThread_;
    std::vector<std::shared_ptr<Conn>> conns_; //!< IO thread only

    mutable std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::deque<Request> queue_;
    std::vector<std::thread> workers_;
    std::atomic<std::size_t> inflight_{0};

    // Monotonic counters (lock-free increments on the hot path;
    // materialized into stats_ at publish time).
    std::atomic<std::uint64_t> connections_{0};
    std::atomic<std::uint64_t> disconnects_{0};
    std::atomic<std::uint64_t> protocolErrors_{0};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> ok_{0};
    std::atomic<std::uint64_t> shedCapacity_{0};
    std::atomic<std::uint64_t> shedDeadline_{0};
    std::atomic<std::uint64_t> expired_{0};
    std::atomic<std::uint64_t> badRequest_{0};
    std::atomic<std::uint64_t> serverError_{0};
    std::atomic<std::uint64_t> shuttingDown_{0};
    std::atomic<std::uint64_t> unitsSimulated_{0};
    std::atomic<std::uint64_t> unitsFromUnitCache_{0};

    mutable std::mutex resultCacheMutex_;
    ResultCache resultCache_;
    std::unique_ptr<campaign::UnitResultCache> unitCache_;

    mutable std::mutex profMutex_;
    obs::Profiler prof_;

    mutable std::mutex estimateMutex_;
    double unitMicrosEwma_ = 0.0;

    // Tracing: the process-wide span sink plus sampling counters.
    bool tracingEnabled_ = false;
    obs::SpanSink spanSink_;
    std::atomic<std::uint64_t> traceSeq_{0};
    std::atomic<std::uint64_t> tracesClientStamped_{0};
    std::atomic<std::uint64_t> tracesHeadSampled_{0};
    std::atomic<std::uint64_t> tracesTailKept_{0};

    // Slow-query log + latency histograms (always on; cheap:
    // once-per-request under their own mutex).
    mutable std::mutex slowMutex_;
    std::deque<SlowQueryEntry> slowQueries_;
    mutable std::mutex histMutex_;
    LatencyHist queueHist_;
    LatencyHist serviceHist_;

    std::mutex publishMutex_; //!< also guards stats_
    obs::StatsRegistry stats_;
    obs::MetricsEndpoint endpoint_;
    std::chrono::steady_clock::time_point start_;
    std::chrono::steady_clock::time_point lastPublish_;
    bool published_ = false;
};

} // namespace solarcore::serve

#endif // SOLARCORE_SERVE_SERVER_HPP
