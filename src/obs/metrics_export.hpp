/**
 * @file
 * OpenMetrics/Prometheus text exposition of the observability layer.
 *
 * Three pieces, all dependency-free:
 *
 *  - An OpenMetricsWriter that renders metric families (gauge,
 *    counter, histogram, info) with HELP/TYPE lines, label escaping
 *    and the terminating `# EOF`, plus appendRegistry() mapping the
 *    stats registry onto it: scalars/formulas become gauges, vectors
 *    become one gauge family with a `lane` label, histograms become
 *    classic cumulative-bucket histograms with `_sum`/`_count`.
 *
 *  - A MetricsEndpoint: a payload mailbox serving the most recent
 *    exposition text over a tiny embedded blocking-accept TCP/HTTP
 *    endpoint (--metrics-port; port 0 binds ephemerally for tests)
 *    and/or snapshotting it to a file via atomic rename
 *    (--metrics-out). Producers render a snapshot under their own
 *    locking and hand the finished string to update(); the server
 *    thread never touches live simulation state, which is what keeps
 *    scraping off the determinism-critical paths.
 *
 *  - lintOpenMetrics(): the structural validator CI pipes scrapes
 *    through -- HELP/TYPE presence, name/label syntax, histogram
 *    bucket monotonicity and `_sum`/`_count` consistency, `# EOF`.
 *
 * Metric names are sanitized from the registry's dotted names:
 * "sim.solarUtilization" => "solarcore_sim_solarUtilization".
 */

#ifndef SOLARCORE_OBS_METRICS_EXPORT_HPP
#define SOLARCORE_OBS_METRICS_EXPORT_HPP

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace solarcore::obs {

class StatsRegistry;
class Profiler;

/** Dotted stat name => exposition metric name ("solarcore_" prefix,
 *  [a-zA-Z0-9_:] alphabet, '.' => '_', junk => '_'). */
std::string openMetricsName(std::string_view dotted);

/** Escape a label value per OpenMetrics (backslash, quote, newline). */
std::string openMetricsEscapeLabel(std::string_view value);

/** Escape a HELP/info text per OpenMetrics (backslash, newline). */
std::string openMetricsEscapeHelp(std::string_view text);

/**
 * One OpenMetrics exemplar: a reference (typically a trace id) pinned
 * to a histogram bucket sample, rendered as
 * `... # {trace_id="<id>"} value timestamp`. Only meaningful on
 * `_bucket` samples of histogram families; the lint enforces that.
 */
struct MetricExemplar
{
    bool valid = false;
    std::vector<std::pair<std::string, std::string>> labels;
    double value = 0.0;
    double timestampSeconds = 0.0; //!< unix seconds; <= 0 omits it
};

/** Incremental builder of one exposition document. */
class OpenMetricsWriter
{
  public:
    using Labels = std::vector<std::pair<std::string, std::string>>;

    /** Start family @p name (already sanitized) of @p type
     *  ("gauge"/"counter"/"histogram"/"info") with HELP @p help. */
    void family(std::string_view name, std::string_view type,
                std::string_view help);

    /** One sample of the current family; @p suffix extends the metric
     *  name ("_total", "_bucket", ...). */
    void sample(std::string_view suffix, const Labels &labels,
                double value);

    /** A sample carrying an exemplar (histogram `_bucket` lines). */
    void sample(std::string_view suffix, const Labels &labels,
                double value, const MetricExemplar &exemplar);

    /** Convenience: a one-sample gauge family. */
    void gauge(std::string_view name, std::string_view help, double value);

    /** Convenience: a one-sample counter family (adds `_total`). */
    void counter(std::string_view name, std::string_view help,
                 double value);

    /**
     * A classic cumulative histogram family from per-bin counts.
     * @p upperBounds holds each bin's inclusive upper edge (the final
     * +Inf bucket is added automatically), @p counts the matching
     * non-cumulative per-bin tallies, @p sum the value sum.
     */
    void histogram(std::string_view name, std::string_view help,
                   const std::vector<double> &upperBounds,
                   const std::vector<std::uint64_t> &counts,
                   std::uint64_t total, double sum);

    /**
     * histogram() with per-bucket exemplars: @p exemplars aligns with
     * @p upperBounds plus one trailing entry for the +Inf bucket;
     * invalid entries render a plain bucket line.
     */
    void histogram(std::string_view name, std::string_view help,
                   const std::vector<double> &upperBounds,
                   const std::vector<std::uint64_t> &counts,
                   std::uint64_t total, double sum,
                   const std::vector<MetricExemplar> &exemplars);

    /** An info family (`name_info{labels} 1`). */
    void info(std::string_view name, std::string_view help,
              const Labels &labels);

    /** Finish with `# EOF` and return the document. */
    std::string finish();

    const std::string &text() const { return text_; }

  private:
    std::string text_;
    std::string familyName_;
    bool finished_ = false;
};

/** Render every stat of @p reg into @p w (see file header mapping). */
void appendRegistry(OpenMetricsWriter &w, const StatsRegistry &reg);

/**
 * Render the self-profiler tree as one `solarcore_profile_scope_us`
 * histogram family: one series per collapsed stack path (label
 * `scope="day;step;chip.step"`), log2 latency buckets in microseconds
 * trimmed to the occupied prefix.
 */
void appendProfiler(OpenMetricsWriter &w, const Profiler &profiler);

/**
 * Structural OpenMetrics lint. @return true when @p text is clean;
 * otherwise false with one message per problem in @p errors.
 */
bool lintOpenMetrics(std::string_view text,
                     std::vector<std::string> &errors);

/**
 * The scrape surface: holds the latest exposition payload and serves
 * it over HTTP/1.0 from a background blocking-accept loop. start()
 * and the server are optional -- writeSnapshot() alone gives the
 * file-based scrape path.
 */
class MetricsEndpoint
{
  public:
    MetricsEndpoint();
    ~MetricsEndpoint();

    MetricsEndpoint(const MetricsEndpoint &) = delete;
    MetricsEndpoint &operator=(const MetricsEndpoint &) = delete;

    /**
     * Bind 127.0.0.1:@p port (0 = ephemeral) and start the accept
     * thread. @return false (with a warning) when the bind fails.
     */
    bool start(int port);

    /** The bound port (after start()); 0 when not serving. */
    int port() const { return port_; }

    /** Swap in a freshly rendered exposition document. */
    void update(std::string payload);

    /** The current payload (tests / snapshot writers). */
    std::string payload() const;

    /**
     * Write the current payload to @p path via write-to-temp +
     * atomic rename, so a concurrent reader never sees a torn file.
     * @return false (with a warning) on I/O failure
     */
    bool writeSnapshot(const std::string &path) const;

    /** Stop the accept thread and close the socket (idempotent). */
    void stop();

  private:
    void serveLoop();

    mutable std::mutex mutex_;
    std::string payload_ = "# EOF\n";
    std::atomic<bool> running_{false};
    int listenFd_ = -1;
    int port_ = 0;
    std::thread server_;
};

} // namespace solarcore::obs

#endif // SOLARCORE_OBS_METRICS_EXPORT_HPP
