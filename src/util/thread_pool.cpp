#include "thread_pool.hpp"

#include <algorithm>

#include "logging.hpp"

namespace solarcore {

ThreadPool::ThreadPool(int threads)
    : threads_(threads >= 1 ? threads : hardwareThreads())
{
    // The caller is thread 0; only the extras are spawned.
    workers_.reserve(static_cast<std::size_t>(threads_ - 1));
    for (int i = 1; i < threads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &w : workers_)
        w.join();
}

int
ThreadPool::hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

int
ThreadPool::maxThreads()
{
    return kThreadsPerHardwareThread * hardwareThreads();
}

void
ThreadPool::runJob()
{
    // Claim indices until the job is exhausted. body_/count_ are
    // stable for the duration of a job, and a stale wakeup only ever
    // sees an exhausted counter -- it never dereferences body_.
    for (;;) {
        const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= count_)
            return;
        try {
            (*body_)(i);
        } catch (...) {
            std::lock_guard<std::mutex> lk(mutex_);
            if (!error_)
                error_ = std::current_exception();
        }
    }
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lk(mutex_);
    std::uint64_t seen = 0;
    for (;;) {
        wake_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_)
            return;
        seen = generation_;
        ++active_;
        lk.unlock();
        runJob();
        lk.lock();
        --active_;
        if (active_ == 0 && next_.load(std::memory_order_relaxed) >= count_)
            done_.notify_all();
    }
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &body)
{
    if (count == 0)
        return;
    if (workers_.empty() || count == 1) {
        // Sequential degenerate case: no thread traffic, exceptions
        // propagate directly.
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }

    std::unique_lock<std::mutex> lk(mutex_);
    body_ = &body;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    error_ = nullptr;
    ++generation_;
    ++active_; // the caller participates
    wake_.notify_all();
    lk.unlock();

    runJob();

    lk.lock();
    --active_;
    done_.wait(lk, [&] {
        return active_ == 0 &&
            next_.load(std::memory_order_relaxed) >= count_;
    });
    body_ = nullptr;
    if (error_) {
        auto err = error_;
        error_ = nullptr;
        lk.unlock();
        std::rethrow_exception(err);
    }
}

} // namespace solarcore
