/**
 * @file
 * solarcore_serve: the planner-as-a-service daemon.
 *
 *   solarcore_serve --socket=/tmp/sc.sock --workers=4 \
 *       --unit-cache=.cache/units --status-out=serve-status.json \
 *       --metrics-port=0 &
 *   solarcore_query --socket=/tmp/sc.sock --sites=AZ --months=Jul ...
 *   solarcore_top --status=serve-status.json
 *
 * Binds an AF_UNIX socket, answers planning queries (fleet spec x
 * scenario grid -> energy/carbon/payback) with per-request deadlines
 * and load shedding, and publishes health to status.json and
 * OpenMetrics. Runs until SIGINT/SIGTERM, then drains cleanly:
 * queued requests get ShuttingDown replies, the socket is unlinked,
 * and a final status/metrics snapshot is written.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "serve/server.hpp"
#include "util/parse_number.hpp"
#include "util/thread_pool.hpp"

using namespace solarcore;

namespace {

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true);
}

[[noreturn]] void
usage(const char *complaint = nullptr)
{
    if (complaint)
        std::cerr << "solarcore_serve: " << complaint << "\n";
    std::cerr <<
        "usage: solarcore_serve --socket=PATH [options]\n"
        "  --socket=PATH            AF_UNIX socket to bind (required)\n"
        "  --workers=N              planner worker threads (default 2,\n"
        "                           at most 16 per hardware thread)\n"
        "  --queue-depth=N          admission bound (default 64)\n"
        "  --result-cache-cap=N     answer LRU entries (default 1024,"
        " 0 off)\n"
        "  --max-units=N            per-query grid cap (default 4096)\n"
        "  --unit-cache=DIR         persistent unit cache (shared with\n"
        "                           solarcore_campaign --audit=off)\n"
        "  --unit-cache-cap=N       unit-cache LRU cap (default 4096)\n"
        "  --pv-kernel=K            auto|scalar|avx2\n"
        "  --estimate-init-micros=X seed of the per-unit service-time\n"
        "                           estimate for deadline shedding\n"
        "  --status-out=FILE        status.json (atomic rename)\n"
        "  --metrics-out=FILE       OpenMetrics snapshot file\n"
        "  --metrics-port=N         /metrics HTTP port (0 = ephemeral)\n"
        "  --publish-interval=S     publisher throttle (default 0.25)\n"
        "  --trace-out=FILE         span JSONL written at shutdown\n"
        "  --trace-perfetto=FILE    Chrome/Perfetto trace at shutdown\n"
        "  --trace-sample=N         head-sample every Nth request\n"
        "                           (0 = only client-traced + tail-kept\n"
        "                           slow/shed/error requests)\n"
        "  --slow-ms=X              slow-query threshold [ms]\n"
        "                           (default 250)\n"
        "  --slow-log-cap=N         slow-query log entries (default 16)\n"
        "  --verbose                per-request stderr lines\n";
    std::exit(2);
}

/** Parse @p value with util::parseNumber, or exit via usage(). */
template <typename T>
T
numberFlag(const std::string &flag, const std::string &value)
{
    const auto v = util::parseNumber<T>(value);
    if (!v)
        usage(("bad value for " + flag).c_str());
    return *v;
}

} // namespace

int
main(int argc, char **argv)
{
    serve::ServeConfig config;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "--socket")
            config.socketPath = value;
        else if (key == "--workers")
            config.workers = numberFlag<int>(key, value);
        else if (key == "--queue-depth")
            config.maxQueueDepth = numberFlag<std::size_t>(key, value);
        else if (key == "--result-cache-cap")
            config.resultCacheCap = numberFlag<std::size_t>(key, value);
        else if (key == "--max-units")
            config.maxUnitsPerQuery = numberFlag<std::size_t>(key, value);
        else if (key == "--unit-cache")
            config.unitCacheDir = value;
        else if (key == "--unit-cache-cap")
            config.unitCacheCap = numberFlag<std::size_t>(key, value);
        else if (key == "--pv-kernel")
            config.pvKernel = value;
        else if (key == "--estimate-init-micros")
            config.estimateInitUnitMicros = numberFlag<double>(key, value);
        else if (key == "--status-out")
            config.statusPath = value;
        else if (key == "--metrics-out")
            config.metricsOut = value;
        else if (key == "--metrics-port")
            config.metricsPort = numberFlag<std::uint16_t>(key, value);
        else if (key == "--publish-interval")
            config.minPublishSeconds = numberFlag<double>(key, value);
        else if (key == "--trace-out")
            config.traceOut = value;
        else if (key == "--trace-perfetto")
            config.tracePerfettoOut = value;
        else if (key == "--trace-sample")
            config.traceSample = numberFlag<std::uint64_t>(key, value);
        else if (key == "--slow-ms")
            config.slowMillis = numberFlag<double>(key, value);
        else if (key == "--slow-log-cap")
            config.slowLogCap = numberFlag<std::size_t>(key, value);
        else if (key == "--verbose")
            config.verbose = true;
        else if (key == "--help" || key == "-h")
            usage();
        else
            usage(("unknown option " + key).c_str());
    }
    if (config.workers > ThreadPool::maxThreads())
        usage(("bad value for --workers: above the thread cap of " +
               std::to_string(ThreadPool::maxThreads()))
                  .c_str());
    if (config.socketPath.empty())
        usage("--socket=PATH is required");
    if (!serve::serveSupported()) {
        std::cerr << "solarcore_serve: AF_UNIX sockets are not supported"
                     " on this platform\n";
        return 1;
    }

    serve::Server server(config);
    if (!server.start()) {
        std::cerr << "solarcore_serve: failed to start on '"
                  << config.socketPath << "'\n";
        return 1;
    }
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    std::cerr << "solarcore_serve: listening on " << config.socketPath
              << " (pv kernel " << server.resolvedKernel() << ", "
              << std::max(1, config.workers) << " workers)\n";
    if (server.metricsPort() > 0)
        std::cerr << "solarcore_serve: metrics on http://127.0.0.1:"
                  << server.metricsPort() << "/metrics\n";

    while (!g_stop.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::cerr << "solarcore_serve: shutting down\n";
    server.stop();
    const serve::ServeSnapshot snap = server.snapshot();
    std::cerr << "solarcore_serve: served " << snap.ok << " ok, "
              << snap.shedCapacity + snap.shedDeadline << " shed, "
              << snap.expired << " expired, " << snap.badRequest
              << " bad over " << snap.connections << " connections\n";
    return 0;
}
