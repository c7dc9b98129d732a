/**
 * @file
 * minibench: an in-tree, source-compatible subset of the
 * google-benchmark API (benchmark::State, BENCHMARK(), DoNotOptimize,
 * the JSON reporter and the --benchmark_* flags this repo's harness
 * uses).
 *
 * Why not the system libbenchmark: distribution packages ship the
 * library prebuilt without NDEBUG, so every BENCH_*.json it produced
 * stamped `"library_build_type": "debug"` -- assert-laden timing loops
 * under a Release benchmark binary. This shim compiles as part of the
 * project with the project's flags: a Release tree measures (and
 * stamps) release, and the stamp below is derived from the same NDEBUG
 * the timing loop was compiled with.
 *
 * Implemented surface (everything bench/microbench_components.cpp and
 * bench/run_microbench.sh touch):
 *   - benchmark::State: range(i), iterations(), SetItemsProcessed(),
 *     SkipWithError(), range-for timing loop
 *   - benchmark::DoNotOptimize / ClobberMemory
 *   - BENCHMARK(fn)->Arg(n)->Unit(benchmark::kMillisecond),
 *     BENCHMARK_MAIN()
 *   - flags: --benchmark_filter (ECMAScript regex, partial match),
 *     --benchmark_format=console|json, --benchmark_out=FILE,
 *     --benchmark_out_format=json, --benchmark_repetitions=N,
 *     --benchmark_min_time=SECONDS
 *   - JSON schema: context {date, host_name, executable, num_cpus,
 *     mhz_per_cpu, cpu_scaling_enabled, caches, load_avg,
 *     library_build_type} and one iteration row per repetition {name,
 *     run_name, run_type, iterations, real_time, cpu_time, time_unit,
 *     items_per_second}; rows skipped via SkipWithError() carry
 *     error_occurred/error_message and no real_time.
 *
 * Semantics match google-benchmark where the harness depends on them:
 * the timing window opens at the first loop iteration (setup before
 * the range-for is free), iterations are calibrated by doubling until
 * the loop runs >= min_time, and every repetition re-runs the loop at
 * the calibrated iteration count.
 */

#ifndef SOLARCORE_MINIBENCH_BENCHMARK_H
#define SOLARCORE_MINIBENCH_BENCHMARK_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace benchmark {

enum TimeUnit { kNanosecond, kMicrosecond, kMillisecond, kSecond };

/** One timing run's mutable state; the benchmark body loops over it. */
class State
{
  public:
    State(std::int64_t max_iterations, std::vector<std::int64_t> args)
        : maxIterations_(max_iterations), args_(std::move(args))
    {}

    struct StateIterator
    {
        /** What `for (auto _ : state)` binds: an empty type, as in
         *  google-benchmark, so the unused loop variable draws no
         *  -Wunused-variable. */
        struct [[maybe_unused]] Value
        {};

        State *parent;
        std::int64_t remaining;

        Value operator*() const { return {}; }
        StateIterator &operator++()
        {
            --remaining;
            return *this;
        }
        bool operator!=(const StateIterator &)
        {
            if (remaining > 0 && !parent->error_)
                return true;
            parent->finishLoop();
            return false;
        }
    };

    StateIterator begin()
    {
        startLoop();
        return StateIterator{this, maxIterations_};
    }
    StateIterator end() { return StateIterator{this, 0}; }

    std::int64_t range(std::size_t i = 0) const
    {
        return i < args_.size() ? args_[i] : 0;
    }

    /** Total iterations of the completed loop (google-benchmark calls
     *  this after the loop to scale SetItemsProcessed). */
    std::int64_t iterations() const { return maxIterations_; }

    void SetItemsProcessed(std::int64_t items) { items_ = items; }

    void SkipWithError(const char *message)
    {
        error_ = true;
        errorMessage_ = message != nullptr ? message : "";
    }

    bool errorOccurred() const { return error_; }
    const std::string &errorMessage() const { return errorMessage_; }
    double realSeconds() const { return realSeconds_; }
    double cpuSeconds() const { return cpuSeconds_; }
    std::int64_t itemsProcessed() const { return items_; }

  private:
    void startLoop();
    void finishLoop();

    std::int64_t maxIterations_ = 0;
    std::vector<std::int64_t> args_;
    std::int64_t items_ = 0;
    bool error_ = false;
    std::string errorMessage_;

    bool started_ = false;
    bool finished_ = false;
    std::chrono::steady_clock::time_point realStart_;
    double cpuStart_ = 0.0;
    double realSeconds_ = 0.0;
    double cpuSeconds_ = 0.0;
};

#if defined(__GNUC__) || defined(__clang__)
template <class Tp>
inline __attribute__((always_inline)) void
DoNotOptimize(Tp const &value)
{
    asm volatile("" : : "r,m"(value) : "memory");
}

template <class Tp>
inline __attribute__((always_inline)) void
DoNotOptimize(Tp &value)
{
#if defined(__clang__)
    asm volatile("" : "+r,m"(value) : : "memory");
#else
    // gcc needs the memory alternative first or large/odd types hit
    // "impossible constraint in asm".
    asm volatile("" : "+m,r"(value) : : "memory");
#endif
}

inline __attribute__((always_inline)) void
ClobberMemory()
{
    asm volatile("" : : : "memory");
}
#else
template <class Tp>
inline void
DoNotOptimize(Tp const &)
{
}
inline void
ClobberMemory()
{
}
#endif

namespace internal {

using Function = void (*)(State &);

/** One BENCHMARK() registration; Arg()/Unit() configure it. */
class Benchmark
{
  public:
    Benchmark(std::string name, Function fn);

    /** Add a one-argument instance (each Arg() call is one run). */
    Benchmark *Arg(std::int64_t value);

    /** Reporting unit for every instance of this benchmark. */
    Benchmark *Unit(TimeUnit unit);

    const std::string &name() const { return name_; }
    Function function() const { return fn_; }
    TimeUnit unit() const { return unit_; }
    const std::vector<std::vector<std::int64_t>> &argLists() const
    {
        return argLists_;
    }

  private:
    std::string name_;
    Function fn_;
    TimeUnit unit_ = kNanosecond;
    std::vector<std::vector<std::int64_t>> argLists_;
};

Benchmark *RegisterBenchmark(const char *name, Function fn);

/** Parse flags, run every (filtered) benchmark, write reports.
 *  @return process exit code. */
int RunAllBenchmarks(int argc, char **argv);

} // namespace internal

} // namespace benchmark

#define MINIBENCH_CONCAT2(a, b) a##b
#define MINIBENCH_CONCAT(a, b) MINIBENCH_CONCAT2(a, b)

#define BENCHMARK(fn)                                                  \
    static ::benchmark::internal::Benchmark *MINIBENCH_CONCAT(         \
        minibench_reg_, __LINE__) [[maybe_unused]] =                   \
        ::benchmark::internal::RegisterBenchmark(#fn, fn)

#define BENCHMARK_MAIN()                                               \
    int main(int argc, char **argv)                                    \
    {                                                                  \
        return ::benchmark::internal::RunAllBenchmarks(argc, argv);    \
    }

#endif // SOLARCORE_MINIBENCH_BENCHMARK_H
