/**
 * @file
 * Scoped self-profiler: RAII phase timers on the simulator's hot
 * paths, aggregated into a per-profiler hierarchical tree.
 *
 *   SC_PROFILE_SCOPE("chip.step");
 *
 * opens a frame under the profiler attached to the current thread (a
 * plain thread-local pointer). With no profiler attached the macro
 * costs one thread-local load and a branch, which is what lets the
 * scopes live permanently inside the batched MPP solve, the
 * TPR allocator, the day loop and the campaign unit without showing
 * up in the profiler-off microbench gate.
 *
 * Each tree node keeps count / total / min / max plus a log2-bucket
 * latency histogram from which p50/p99 are interpolated -- no
 * per-sample storage, so profiling allocates only when a new scope
 * name first appears. Children are keyed by name in an ordered map,
 * so merging per-task profilers in task-index order (the same
 * contract as PR 2's trace buffers and stats registries) produces a
 * tree whose structure and counts are identical at any thread count.
 *
 * Dump formats: a hierarchical JSON tree, and flamegraph-compatible
 * collapsed stacks ("day;step;chip.step <total_us>") for
 * flamegraph.pl / speedscope.
 */

#ifndef SOLARCORE_OBS_PROFILER_HPP
#define SOLARCORE_OBS_PROFILER_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace solarcore::obs {

/** A hierarchical scope-timing aggregator. Not thread-safe: one per
 *  worker, merge()d in task order. */
class Profiler
{
  public:
    /** log2(ns) latency buckets: [2^i, 2^(i+1)) ns up to ~17 min. */
    static constexpr std::size_t kHistBuckets = 40;

    /** One aggregated scope node. */
    struct Node
    {
        std::string name;
        std::uint64_t count = 0;
        std::int64_t totalNs = 0;
        std::int64_t minNs = 0;
        std::int64_t maxNs = 0;
        std::uint64_t hist[kHistBuckets] = {};
        std::map<std::string, std::unique_ptr<Node>> children;

        /** Interpolated latency quantile (q in [0,1]) from the
         *  histogram [ns]; 0 with no samples. */
        double quantileNs(double q) const;

        void record(std::int64_t elapsed_ns);
    };

    Profiler();
    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /** Open a frame named @p name under the current frame. */
    void enter(const char *name);

    /** Close the innermost frame, crediting @p elapsed_ns to it. */
    void exit(std::int64_t elapsed_ns);

    /** The synthetic root ("" name; holds top-level phases). */
    const Node &root() const { return root_; }

    /**
     * The currently open scope names, outermost first, written into
     * @p out (up to @p max). Allocation-free and async-signal-safe
     * when called on the owning thread (the crash flight recorder
     * snapshots the crashing thread's own stack): the returned
     * pointers alias live Node names, which the owning thread is not
     * mutating while it sits inside a signal handler.
     * @return the number of entries written
     */
    std::size_t openScopeNames(const char **out,
                               std::size_t max) const noexcept;

    /** Total time credited to top-level phases [ns]. */
    std::int64_t totalNs() const;

    /**
     * Fold @p other into this tree: same-path nodes add their counts,
     * totals and histograms; min/max combine; new paths are copied.
     * Call in task-index order for thread-count-independent output.
     */
    void merge(const Profiler &other);

    /** Hierarchical JSON dump (count/total/min/max/p50/p99 per node,
     *  times in microseconds). */
    void writeJson(std::ostream &os) const;

    /** Flamegraph collapsed stacks: "a;b;c <total_us>" per node. */
    void writeCollapsed(std::ostream &os) const;

    /** The profiler attached to this thread (nullptr: detached). */
    static Profiler *current();

    /** RAII thread attachment; restores the previous binding. */
    class Attach
    {
      public:
        explicit Attach(Profiler *profiler);
        ~Attach();
        Attach(const Attach &) = delete;
        Attach &operator=(const Attach &) = delete;

      private:
        Profiler *previous_;
    };

  private:
    Node root_;
    Node *current_ = &root_;
    std::vector<Node *> frameStack_; //!< open frames (parents)
};

/** Monotonic timestamp for scope timing [ns]. */
std::int64_t profileNowNs();

/** One RAII profiling frame; no-op while no profiler is attached. */
class ProfileScope
{
  public:
    explicit ProfileScope(const char *name)
        : profiler_(Profiler::current())
    {
        if (profiler_) {
            profiler_->enter(name);
            startNs_ = profileNowNs();
        }
    }

    ~ProfileScope()
    {
        if (profiler_)
            profiler_->exit(profileNowNs() - startNs_);
    }

    ProfileScope(const ProfileScope &) = delete;
    ProfileScope &operator=(const ProfileScope &) = delete;

  private:
    Profiler *profiler_;
    std::int64_t startNs_ = 0;
};

#define SC_PROFILE_CONCAT2(a, b) a##b
#define SC_PROFILE_CONCAT(a, b) SC_PROFILE_CONCAT2(a, b)

/** Time the rest of the enclosing block as profiler phase @p name. */
#define SC_PROFILE_SCOPE(name)                                               \
    ::solarcore::obs::ProfileScope SC_PROFILE_CONCAT(sc_profile_scope_,     \
                                                     __LINE__)(name)

} // namespace solarcore::obs

#endif // SOLARCORE_OBS_PROFILER_HPP
