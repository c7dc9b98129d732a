#include "shard_exec.hpp"

#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>

#include "core/simulation.hpp"
#include "obs/recorders.hpp"
#include "obs/stats_wire.hpp"
#include "util/logging.hpp"
#include "util/pipe_channel.hpp"
#include "util/thread_pool.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define SC_HAVE_FORK 1
#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define SC_HAVE_FORK 0
#endif

namespace solarcore::campaign {

bool
processShardingSupported()
{
    return SC_HAVE_FORK != 0 && util::pipeChannelSupported();
}

std::uint64_t
campaignUnitSpanId(std::uint64_t trace_id, std::size_t index,
                   std::uint64_t salt)
{
    // The golden-ratio constant keeps this input domain disjoint from
    // RequestTrace's sequential ids (trace ^ small-seq), so a unit
    // span can never collide with a parent-side phase span.
    return obs::mixId(trace_id ^ 0x9e3779b97f4a7c15ULL ^
                      (salt << 56) ^
                      static_cast<std::uint64_t>(index + 1));
}

#if SC_HAVE_FORK

namespace {

constexpr char kTagUnit = 'U';
constexpr char kTagStats = 'S';
constexpr char kTagSpan = 'T';

std::string
packSpanFrame(const obs::SpanRecord &record)
{
    // Raw POD bytes: same machine, same binary, native endianness --
    // the same contract the 'U' metric frames rely on.
    static_assert(std::is_trivially_copyable_v<obs::SpanRecord>);
    std::string payload;
    payload.reserve(1 + sizeof record);
    payload.push_back(kTagSpan);
    payload.append(reinterpret_cast<const char *>(&record),
                   sizeof record);
    return payload;
}

bool
unpackSpanFrame(const std::string &payload, obs::SpanRecord &record)
{
    if (payload.size() != 1 + sizeof record || payload[0] != kTagSpan)
        return false;
    std::memcpy(&record, payload.data() + 1, sizeof record);
    return true;
}

std::string
packUnitFrame(std::uint32_t unit_index, const UnitMetrics &metrics)
{
    // Raw little-endian doubles: parent and child are the same binary
    // on the same machine, so the decoded metrics are bit-exact and
    // the parent-side summary stays byte-identical.
    std::string payload;
    payload.reserve(1 + sizeof(unit_index) +
                    kNumMetricFields * sizeof(double));
    payload.push_back(kTagUnit);
    payload.append(reinterpret_cast<const char *>(&unit_index),
                   sizeof(unit_index));
    const MetricField(&fields)[kNumMetricFields] = metricFields();
    for (const auto &field : fields) {
        const double v = metrics.*(field.member);
        payload.append(reinterpret_cast<const char *>(&v), sizeof(v));
    }
    return payload;
}

bool
unpackUnitFrame(const std::string &payload, std::uint32_t &unit_index,
                UnitMetrics &metrics)
{
    constexpr std::size_t expect =
        1 + sizeof(std::uint32_t) + kNumMetricFields * sizeof(double);
    if (payload.size() != expect || payload[0] != kTagUnit)
        return false;
    std::size_t pos = 1;
    std::memcpy(&unit_index, payload.data() + pos, sizeof(unit_index));
    pos += sizeof(unit_index);
    const MetricField(&fields)[kNumMetricFields] = metricFields();
    for (const auto &field : fields) {
        double v = 0.0;
        std::memcpy(&v, payload.data() + pos, sizeof(v));
        metrics.*(field.member) = v;
        pos += sizeof(v);
    }
    return true;
}

/**
 * The worker child: simulate pending[begin..end) over this process's
 * own thread pool, streaming each unit frame as it completes and the
 * shard-merged stats registry once at the end. Never returns; exits
 * 0 on success. Uses _exit so the parent's inherited state (open
 * streams, atexit hooks) is never touched from the child.
 */
[[noreturn]] void
runWorkerShard(int fd, int worker_id, const ScenarioGrid &grid,
               const CampaignOptions &options,
               const std::vector<ScenarioUnit> &units,
               const std::vector<std::size_t> &pending, std::size_t begin,
               std::size_t end)
{
    // If the parent dies first, frame writes must fail with EPIPE (so
    // the worker exits 3) instead of dying on SIGPIPE mid-unit.
    ::signal(SIGPIPE, SIG_IGN);

    int exit_code = 0;
    try {
        // Span stitching: the parent only sets spanParentId when it is
        // collecting request spans; each completed unit streams one
        // 'T' frame as it finishes, so a crashed worker still leaves
        // its partial spans in the parent's trace.
        const bool want_spans =
            options.spanParentId != 0 && options.traceId != 0;
        const std::int64_t shard_start_ns =
            want_spans ? obs::spanNowNs() : 0;
        const std::uint64_t shard_span_id = want_spans
            ? obs::mixId(options.traceId ^
                         (static_cast<std::uint64_t>(worker_id + 1)
                          << 32))
            : 0;
        // A forked run records only stats and audit counts (heavier
        // recorders keep a campaign in-process), one set per task.
        const std::size_t n = end - begin;
        std::vector<obs::Recorders> recs(n);
        std::mutex write_mutex;
        bool write_failed = false;

        // The shard shares the days its own slice replays; tasks are
        // claimed in windows of one day per thread, outputs stay
        // indexed by task.
        ThreadPool pool(options.threads);
        SharedDays days(grid, units,
                        std::span<const std::size_t>(pending).subspan(begin,
                                                                      n),
                        pool.threadCount());
        pool.parallelFor(n, [&](std::size_t k) {
            const std::size_t t = days.order()[k];
            const std::size_t i = pending[begin + t];
            recs[t] = obs::Recorders(options.obs);
            // One reusable workspace per pool thread: buffers keep
            // their capacity across the whole shard.
            static thread_local core::SimWorkspace workspace;
            const std::int64_t t0 = want_spans ? obs::spanNowNs() : 0;
            UnitMetrics m;
            {
                const SharedDays::Lease lease = days.acquire(t);
                m = runUnit(units[i], grid, &recs[t], &workspace,
                            lease.stage());
            }
            const std::string frame =
                packUnitFrame(static_cast<std::uint32_t>(i), m);
            std::string span_frame;
            if (want_spans) {
                obs::SpanRecord rec;
                rec.traceId = options.traceId;
                rec.spanId =
                    campaignUnitSpanId(options.traceId, i, /*salt=*/0);
                rec.parentId = shard_span_id;
                rec.startNs = t0;
                rec.endNs = obs::spanNowNs();
                rec.lane = static_cast<std::uint32_t>(worker_id) + 1;
                rec.setName("unit");
                rec.attr("unit", static_cast<std::int64_t>(i));
                rec.attr("key", std::string_view(unitKey(units[i])));
                rec.attr("proc",
                         static_cast<std::int64_t>(worker_id));
                span_frame = packSpanFrame(rec);
            }
            std::lock_guard<std::mutex> lock(write_mutex);
            if (!util::writeFrame(fd, frame.data(), frame.size()))
                write_failed = true;
            if (!span_frame.empty() &&
                !util::writeFrame(fd, span_frame.data(),
                                  span_frame.size()))
                write_failed = true;
        });

        if (want_spans) {
            obs::SpanRecord rec;
            rec.traceId = options.traceId;
            rec.spanId = shard_span_id;
            rec.parentId = options.spanParentId;
            rec.startNs = shard_start_ns;
            rec.endNs = obs::spanNowNs();
            rec.lane = static_cast<std::uint32_t>(worker_id) + 1;
            rec.setName("shard");
            rec.attr("proc", static_cast<std::int64_t>(worker_id));
            rec.attr("units", static_cast<std::int64_t>(n));
            const std::string frame = packSpanFrame(rec);
            if (!util::writeFrame(fd, frame.data(), frame.size()))
                write_failed = true;
        }

        if (options.obs.statsRequested()) {
            // Shard order, matching the in-process task-order merge.
            obs::StatsRegistry merged;
            obs::mergeStats(recs, merged);
            std::string blob;
            blob.push_back(kTagStats);
            blob += obs::serializeRegistry(merged);
            if (!util::writeFrame(fd, blob.data(), blob.size()))
                write_failed = true;
        }
        if (write_failed)
            exit_code = 3;
    } catch (const std::exception &e) {
        SC_WARN("campaign worker: ", e.what());
        exit_code = 2;
    } catch (...) {
        exit_code = 2;
    }
    ::close(fd);
    ::_exit(exit_code);
}

} // namespace

ProcessShardRun::ProcessShardRun(const ScenarioGrid &grid,
                                 const CampaignOptions &options,
                                 const std::vector<ScenarioUnit> &units,
                                 const std::vector<std::size_t> &pending,
                                 int workers)
    : grid_(&grid), units_(&units), pending_(&pending),
      wantStats_(options.obs.statsRequested())
{
    const std::size_t n = pending.size();
    const std::size_t count = std::min<std::size_t>(
        n, static_cast<std::size_t>(std::max(workers, 1)));
    if (count == 0)
        return;

    // Contiguous shards: worker w owns [w*base + min(w, extra), ...)
    // with the first `extra` workers taking one additional unit.
    const std::size_t base = n / count;
    const std::size_t extra = n % count;

    std::size_t begin = 0;
    for (std::size_t w = 0; w < count; ++w) {
        const std::size_t size = base + (w < extra ? 1 : 0);
        const std::size_t end = begin + size;

        int pipe_fds[2];
        if (::pipe(pipe_fds) != 0) {
            SC_WARN("campaign: pipe() failed; remaining shards run "
                    "in-process");
            break;
        }
        const pid_t pid = ::fork();
        if (pid < 0) {
            ::close(pipe_fds[0]);
            ::close(pipe_fds[1]);
            SC_WARN("campaign: fork() failed; remaining shards run "
                    "in-process");
            break;
        }
        if (pid == 0) {
            // Child: keep only its own write end.
            ::close(pipe_fds[0]);
            for (const int fd : fds_)
                ::close(fd);
            runWorkerShard(pipe_fds[1], static_cast<int>(w), grid,
                           options, units, pending, begin, end);
        }
        ::close(pipe_fds[1]);
        const int flags = ::fcntl(pipe_fds[0], F_GETFL, 0);
        ::fcntl(pipe_fds[0], F_SETFL, flags | O_NONBLOCK);

        ShardWorkerState state;
        state.id = static_cast<int>(w);
        state.pid = static_cast<long>(pid);
        state.shardBegin = begin;
        state.shardEnd = end;
        workers_.push_back(state);
        fds_.push_back(pipe_fds[0]);
        got_.emplace_back(size, 0);
        begin = end;
    }
    statsBlobs_.resize(workers_.size());

    // Shard slots no worker took (early pipe/fork failure) run
    // in-process.
    for (std::size_t t = begin; t < n; ++t)
        unfinished_.push_back(pending[t]);
}

void
ProcessShardRun::drain(const UnitCallback &onUnit,
                       const WorkerCallback &onWorker)
{
    std::vector<util::FrameReader> readers(workers_.size());
    std::size_t open = 0;
    for (const auto &w : workers_)
        open += w.alive ? 1 : 0;

    std::vector<pollfd> fds;
    while (open > 0) {
        fds.clear();
        for (std::size_t w = 0; w < workers_.size(); ++w) {
            if (!workers_[w].alive)
                continue;
            pollfd p;
            p.fd = fds_[w];
            p.events = POLLIN;
            p.revents = 0;
            fds.push_back(p);
        }
        const int rc = ::poll(fds.data(),
                              static_cast<nfds_t>(fds.size()), -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            SC_WARN("campaign: poll() failed; abandoning worker drain");
            break;
        }
        for (const pollfd &p : fds) {
            if (p.revents == 0)
                continue;
            // Map back to the worker index.
            std::size_t w = 0;
            while (w < workers_.size() && fds_[w] != p.fd)
                ++w;
            ShardWorkerState &state = workers_[w];

            std::vector<std::string> frames;
            const auto status = readers[w].drain(p.fd, frames);
            bool changed = false;
            for (const std::string &frame : frames) {
                if (frame.empty())
                    continue;
                if (frame[0] == kTagUnit) {
                    std::uint32_t index = 0;
                    UnitMetrics m;
                    if (!unpackUnitFrame(frame, index, m))
                        continue;
                    // Mark the shard slot as delivered.
                    for (std::size_t t = state.shardBegin;
                         t < state.shardEnd; ++t) {
                        if ((*pending_)[t] == index) {
                            if (!got_[w][t - state.shardBegin]) {
                                got_[w][t - state.shardBegin] = 1;
                                ++state.received;
                            }
                            break;
                        }
                    }
                    state.lastKey = unitKey((*units_)[index]);
                    changed = true;
                    if (onUnit)
                        onUnit(index, m);
                } else if (frame[0] == kTagStats) {
                    statsBlobs_[w] = frame.substr(1);
                } else if (frame[0] == kTagSpan) {
                    obs::SpanRecord rec;
                    if (unpackSpanFrame(frame, rec))
                        spans_.push_back(rec);
                }
            }
            if (status != util::FrameReader::Status::Open) {
                state.alive = false;
                --open;
                int wstatus = 0;
                ::waitpid(static_cast<pid_t>(state.pid), &wstatus, 0);
                const bool clean_exit =
                    WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
                const std::size_t shard_size =
                    state.shardEnd - state.shardBegin;
                const bool complete = state.received == shard_size &&
                    (!wantStats_ || !statsBlobs_[w].empty());
                state.crashed = !clean_exit || !complete;
                if (state.crashed) {
                    ++crashes_;
                    SC_WARN("campaign: worker ", state.id, " (pid ",
                            state.pid, ") died with ", state.received,
                            "/", shard_size,
                            " results; re-queueing its shard");
                    // With stats on, partial results are unusable
                    // (their counters died with the worker): re-run
                    // the whole shard. Without stats only the missing
                    // units need a re-run.
                    for (std::size_t t = state.shardBegin;
                         t < state.shardEnd; ++t) {
                        if (wantStats_ ||
                            !got_[w][t - state.shardBegin])
                            unfinished_.push_back((*pending_)[t]);
                    }
                    statsBlobs_[w].clear();
                }
                changed = true;
            }
            if (changed && onWorker)
                onWorker(state);
        }
    }
    for (const int fd : fds_)
        ::close(fd);

    if (wantStats_) {
        statsValid_ = true;
        for (std::size_t w = 0; w < workers_.size(); ++w) {
            if (statsBlobs_[w].empty())
                continue; // crashed shard; its units re-run in-process
            std::string error;
            if (!obs::mergeSerializedRegistry(
                    statsBlobs_[w], stats_,
                    [](std::string_view name) {
                        return core::dayFormulaByName(name);
                    },
                    error)) {
                SC_WARN("campaign: worker ", w, " stats rejected: ",
                        error);
                statsValid_ = false;
            }
        }
    }
}

#else // !SC_HAVE_FORK

ProcessShardRun::ProcessShardRun(const ScenarioGrid &grid,
                                 const CampaignOptions &,
                                 const std::vector<ScenarioUnit> &units,
                                 const std::vector<std::size_t> &pending,
                                 int)
    : grid_(&grid), units_(&units), pending_(&pending)
{
    unfinished_ = pending;
}

void
ProcessShardRun::drain(const UnitCallback &, const WorkerCallback &)
{
}

#endif

} // namespace solarcore::campaign
