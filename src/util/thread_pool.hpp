/**
 * @file
 * Fixed-size worker pool with a deterministic parallel-for.
 *
 * The figure sweeps fan independent (site x month x policy x workload)
 * days across cores. Tasks are identified by index and write their
 * results into index-addressed slots, so the aggregation order -- and
 * therefore every derived table -- is bit-identical regardless of the
 * thread count or scheduling interleave. Determinism contract: task
 * bodies must derive any randomness from their index (the simulations
 * seed from SimConfig::seed), never from thread identity or timing.
 */

#ifndef SOLARCORE_UTIL_THREAD_POOL_HPP
#define SOLARCORE_UTIL_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace solarcore {

/**
 * A fixed pool of worker threads executing index-based jobs.
 *
 * One job runs at a time (parallelFor blocks until completion); the
 * calling thread participates, so ThreadPool(1) degenerates to a plain
 * sequential loop with zero thread traffic.
 */
class ThreadPool
{
  public:
    /**
     * @param threads total worker count including the caller; 0 (or
     * any negative value) auto-detects via hardwareThreads().
     */
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Run body(i) for every i in [0, count), fanned across the pool.
     *
     * Indices are claimed from a shared counter, so execution order is
     * arbitrary -- the body must only touch state owned by its index.
     * The first exception thrown by any body is rethrown here after
     * all workers have drained.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &body);

    int threadCount() const { return threads_; }

    /** Hardware concurrency with a floor of 1. */
    static int hardwareThreads();

    /** Threads per hardware thread that maxThreads() allows. */
    static constexpr int kThreadsPerHardwareThread = 16;

    /**
     * The most threads a tool starts for one count it reads (threads,
     * workers, or threads x workers): kThreadsPerHardwareThread x
     * hardwareThreads(). Each tool refuses a larger count with its
     * usage text, so a mistyped count cannot ask the OS for 2^31
     * threads. The pool itself takes any count its caller passes.
     */
    static int maxThreads();

  private:
    void workerLoop();
    void runJob();

    int threads_;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable wake_;   //!< workers wait for a job / stop
    std::condition_variable done_;   //!< caller waits for completion
    const std::function<void(std::size_t)> *body_ = nullptr;
    std::size_t count_ = 0;
    std::atomic<std::size_t> next_{0}; //!< next unclaimed task index
    int active_ = 0;                 //!< workers still inside the job
    std::uint64_t generation_ = 0;   //!< bumps per job to re-arm waits
    std::exception_ptr error_;
    bool stop_ = false;
};

} // namespace solarcore

#endif // SOLARCORE_UTIL_THREAD_POOL_HPP
