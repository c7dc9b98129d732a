/**
 * @file
 * solarcore_top: a refreshing terminal dashboard over the campaign
 * runner's --status-out heartbeat file.
 *
 *   solarcore_campaign --preset=fig13 --status-out=status.json ... &
 *   solarcore_top --status=status.json
 *
 * Re-reads the atomically-replaced status.json on an interval and
 * renders progress (bar, units/s, ETA), worker occupancy and the
 * in-flight unit keys. Exits on its own once the campaign reports
 * completion; --once prints a single frame without the ANSI refresh
 * (scripts, CI logs).
 *
 * The reader tolerates a missing file (the campaign has not started
 * yet) and a schema it does not recognize (it says so and keeps
 * polling), so it can be started before the campaign.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/golden.hpp"
#include "util/parse_number.hpp"

using namespace solarcore;

namespace {

struct WorkerRow
{
    long id = -1, pid = -1, done = 0, total = 0;
    std::string lastKey;
    bool alive = true, crashed = false;
};

struct SlowQueryRow
{
    long requestId = 0;
    std::string traceId; //!< 16-hex, empty when the trace was dropped
    std::string status;
    double queueMs = 0, serviceMs = 0;
    long units = 0;
};

struct Status
{
    bool serve = false; //!< solarcore-serve-status-v1 document
    std::string signature;
    double total = 0, pending = 0, resumed = 0, done = 0;
    double inflight = 0, queueDepth = 0, workers = 0;
    double elapsed = 0, rate = 0, eta = 0, utilization = 0;
    std::vector<std::string> busy;
    bool processMode = false;
    std::vector<WorkerRow> workerRows;
    bool cacheEnabled = false;
    double cacheHits = 0, cacheMisses = 0, cacheStores = 0;
    double cacheEvictions = 0, unitsCached = 0;
    // Serve-mode fields.
    std::string socket, kernel;
    double requests = 0, ok = 0, shedCapacity = 0, shedDeadline = 0;
    double expired = 0, badRequest = 0, protocolErrors = 0;
    double connections = 0, disconnects = 0;
    double unitsSimulated = 0, unitsFromUnitCache = 0;
    double queueP50 = 0, queueP99 = 0, serviceP50 = 0, serviceP99 = 0;
    double resultHits = 0, resultMisses = 0, resultSize = 0;
    bool tracing = false;
    double committedTraces = 0, committedSpans = 0, droppedSpans = 0;
    double clientStamped = 0, headSampled = 0, tailKept = 0;
    std::vector<SlowQueryRow> slowQueries;
};

[[noreturn]] void
usage(const char *complaint = nullptr)
{
    if (complaint)
        std::cerr << "solarcore_top: " << complaint << "\n";
    std::cerr << "usage: solarcore_top --status=FILE [--interval=SECONDS]"
                 " [--once]\n";
    std::exit(2);
}

double
num(const campaign::FlatJson &doc, const std::string &key)
{
    const auto it = doc.find(key);
    return it == doc.end() ? 0.0 : it->second.number;
}

bool
loadStatus(const std::string &path, Status &out, std::string &problem)
{
    std::ifstream is(path);
    if (!is) {
        problem = "waiting for " + path;
        return false;
    }
    std::stringstream ss;
    ss << is.rdbuf();
    campaign::FlatJson doc;
    std::string error;
    if (!campaign::parseJsonFlat(ss.str(), doc, error)) {
        // A torn read cannot happen (the writer renames); a parse
        // error means the file is something else entirely.
        problem = "unparsable status file: " + error;
        return false;
    }
    const auto schema = doc.find("schema");
    if (schema != doc.end() &&
        schema->second.text == "solarcore-serve-status-v1") {
        out.serve = true;
        const auto socket = doc.find("socket");
        out.socket = socket == doc.end() ? std::string()
                                         : socket->second.text;
        const auto kernel = doc.find("pv_kernel");
        out.kernel = kernel == doc.end() ? std::string()
                                         : kernel->second.text;
        out.elapsed = num(doc, "uptime_seconds");
        out.workers = num(doc, "workers");
        out.queueDepth = num(doc, "queue_depth");
        out.inflight = num(doc, "inflight");
        out.connections = num(doc, "connections");
        out.disconnects = num(doc, "disconnects");
        out.protocolErrors = num(doc, "protocol_errors");
        out.requests = num(doc, "requests");
        out.ok = num(doc, "ok");
        out.shedCapacity = num(doc, "shed_capacity");
        out.shedDeadline = num(doc, "shed_deadline");
        out.expired = num(doc, "expired");
        out.badRequest = num(doc, "bad_request");
        out.unitsSimulated = num(doc, "units_simulated");
        out.unitsFromUnitCache = num(doc, "units_from_unit_cache");
        out.queueP50 = num(doc, "latency_ms.queue_p50");
        out.queueP99 = num(doc, "latency_ms.queue_p99");
        out.serviceP50 = num(doc, "latency_ms.service_p50");
        out.serviceP99 = num(doc, "latency_ms.service_p99");
        out.resultHits = num(doc, "result_cache.hits");
        out.resultMisses = num(doc, "result_cache.misses");
        out.resultSize = num(doc, "result_cache.size");
        out.cacheEnabled = doc.find("unit_cache.hits") != doc.end();
        out.cacheHits = num(doc, "unit_cache.hits");
        out.cacheMisses = num(doc, "unit_cache.misses");
        out.cacheStores = num(doc, "unit_cache.stores");
        out.cacheEvictions = num(doc, "unit_cache.evictions");
        const auto tracing = doc.find("tracing.enabled");
        out.tracing = tracing != doc.end() && tracing->second.boolean;
        out.committedTraces = num(doc, "tracing.committed_traces");
        out.committedSpans = num(doc, "tracing.committed_spans");
        out.droppedSpans = num(doc, "tracing.dropped_spans");
        out.clientStamped = num(doc, "tracing.client_stamped");
        out.headSampled = num(doc, "tracing.head_sampled");
        out.tailKept = num(doc, "tracing.tail_kept");
        out.slowQueries.clear();
        for (std::size_t i = 0;; ++i) {
            const std::string prefix =
                "slow_queries." + std::to_string(i);
            const auto rid = doc.find(prefix + ".request_id");
            if (rid == doc.end())
                break;
            SlowQueryRow row;
            row.requestId = static_cast<long>(rid->second.number);
            const auto tid = doc.find(prefix + ".trace_id");
            if (tid != doc.end())
                row.traceId = tid->second.text;
            const auto status = doc.find(prefix + ".status");
            if (status != doc.end())
                row.status = status->second.text;
            row.queueMs = num(doc, prefix + ".queue_ms");
            row.serviceMs = num(doc, prefix + ".service_ms");
            row.units = static_cast<long>(num(doc, prefix + ".units"));
            out.slowQueries.push_back(row);
        }
        return true;
    }
    if (schema == doc.end() ||
        schema->second.text != "solarcore-campaign-status-v1") {
        problem = "not a solarcore status file";
        return false;
    }
    const auto sig = doc.find("signature");
    out.signature =
        sig == doc.end() ? std::string() : sig->second.text;
    out.total = num(doc, "units_total");
    out.pending = num(doc, "units_pending");
    out.resumed = num(doc, "units_resumed");
    out.done = num(doc, "units_done");
    out.inflight = num(doc, "units_inflight");
    out.queueDepth = num(doc, "queue_depth");
    out.workers = num(doc, "workers");
    out.elapsed = num(doc, "elapsed_seconds");
    out.rate = num(doc, "units_per_second");
    out.eta = num(doc, "eta_seconds");
    out.utilization = num(doc, "worker_utilization");
    out.busy.clear();
    for (std::size_t i = 0;; ++i) {
        const auto it = doc.find("busy." + std::to_string(i));
        if (it == doc.end())
            break;
        out.busy.push_back(it->second.text);
    }
    const auto pm = doc.find("process_mode");
    out.processMode = pm != doc.end() && pm->second.boolean;
    out.workerRows.clear();
    for (std::size_t i = 0;; ++i) {
        const std::string prefix = "worker_rows." + std::to_string(i);
        const auto id = doc.find(prefix + ".id");
        if (id == doc.end())
            break;
        WorkerRow row;
        row.id = static_cast<long>(id->second.number);
        row.pid = static_cast<long>(num(doc, prefix + ".pid"));
        row.done = static_cast<long>(num(doc, prefix + ".done"));
        row.total = static_cast<long>(num(doc, prefix + ".total"));
        const auto key = doc.find(prefix + ".last_key");
        if (key != doc.end())
            row.lastKey = key->second.text;
        const auto alive = doc.find(prefix + ".alive");
        row.alive = alive != doc.end() && alive->second.boolean;
        const auto crashed = doc.find(prefix + ".crashed");
        row.crashed = crashed != doc.end() && crashed->second.boolean;
        out.workerRows.push_back(row);
    }
    out.cacheEnabled = doc.find("unit_cache.hits") != doc.end();
    out.cacheHits = num(doc, "unit_cache.hits");
    out.cacheMisses = num(doc, "unit_cache.misses");
    out.cacheStores = num(doc, "unit_cache.stores");
    out.cacheEvictions = num(doc, "unit_cache.evictions");
    out.unitsCached = num(doc, "unit_cache.units_cached");
    return true;
}

std::string
fmtDuration(double seconds)
{
    if (!std::isfinite(seconds) || seconds < 0)
        seconds = 0;
    const auto s = static_cast<long>(seconds + 0.5);
    char buf[32];
    if (s >= 3600)
        std::snprintf(buf, sizeof(buf), "%ldh%02ldm", s / 3600,
                      (s % 3600) / 60);
    else if (s >= 60)
        std::snprintf(buf, sizeof(buf), "%ldm%02lds", s / 60, s % 60);
    else
        std::snprintf(buf, sizeof(buf), "%lds", s);
    return buf;
}

void
renderServe(std::ostream &os, const Status &st)
{
    os << "solarcore serve";
    if (!st.socket.empty())
        os << "  (" << st.socket << ")";
    os << "\n";
    os << "  uptime   " << fmtDuration(st.elapsed);
    if (!st.kernel.empty())
        os << "   pv kernel " << st.kernel;
    os << "\n";
    os << "  load     " << static_cast<long>(st.inflight) << "/"
       << static_cast<long>(st.workers) << " busy   queue "
       << static_cast<long>(st.queueDepth) << "   conns "
       << static_cast<long>(st.connections - st.disconnects) << " open/"
       << static_cast<long>(st.connections) << " total\n";
    os << "  requests " << static_cast<long>(st.ok) << " ok";
    const long shed =
        static_cast<long>(st.shedCapacity + st.shedDeadline);
    if (shed > 0)
        os << "   " << shed << " shed ("
           << static_cast<long>(st.shedCapacity) << " capacity, "
           << static_cast<long>(st.shedDeadline) << " deadline)";
    if (st.expired > 0)
        os << "   " << static_cast<long>(st.expired) << " expired";
    if (st.badRequest > 0)
        os << "   " << static_cast<long>(st.badRequest) << " bad";
    if (st.protocolErrors > 0)
        os << "   " << static_cast<long>(st.protocolErrors)
           << " protocol errors";
    os << "\n";
    char lat[96];
    std::snprintf(lat, sizeof(lat),
                  "  latency  queue p50 %.2fms p99 %.2fms   service"
                  " p50 %.2fms p99 %.2fms\n",
                  st.queueP50, st.queueP99, st.serviceP50, st.serviceP99);
    os << lat;
    const double lookups = st.resultHits + st.resultMisses;
    char hitrate[16];
    std::snprintf(hitrate, sizeof(hitrate), "%.0f%%",
                  lookups > 0 ? st.resultHits / lookups * 100.0 : 0.0);
    os << "  answers  " << static_cast<long>(st.resultHits) << " hit/"
       << static_cast<long>(st.resultMisses) << " miss (" << hitrate
       << ")   " << static_cast<long>(st.resultSize) << " cached\n";
    os << "  units    " << static_cast<long>(st.unitsSimulated)
       << " simulated";
    if (st.cacheEnabled) {
        os << "   " << static_cast<long>(st.unitsFromUnitCache)
           << " from unit cache (" << static_cast<long>(st.cacheHits)
           << " hit/" << static_cast<long>(st.cacheMisses) << " miss)";
    }
    os << "\n";
    if (st.tracing) {
        os << "  tracing  " << static_cast<long>(st.committedTraces)
           << " traces (" << static_cast<long>(st.committedSpans)
           << " spans)   " << static_cast<long>(st.clientStamped)
           << " client / " << static_cast<long>(st.headSampled)
           << " sampled / " << static_cast<long>(st.tailKept)
           << " tail-kept";
        if (st.droppedSpans > 0)
            os << "   " << static_cast<long>(st.droppedSpans)
               << " dropped";
        os << "\n";
    }
    if (!st.slowQueries.empty()) {
        os << "  slow queries (most recent last)\n";
        for (const SlowQueryRow &row : st.slowQueries) {
            char line[160];
            std::snprintf(line, sizeof(line),
                          "    #%-6ld %-13s queue %8.2fms  service"
                          " %8.2fms  %ld units",
                          row.requestId, row.status.c_str(),
                          std::max(row.queueMs, 0.0),
                          std::max(row.serviceMs, 0.0), row.units);
            os << line;
            if (!row.traceId.empty())
                os << "  trace " << row.traceId;
            os << "\n";
        }
    }
}

void
render(std::ostream &os, const Status &st)
{
    if (st.serve) {
        renderServe(os, st);
        return;
    }
    const double denom = st.pending > 0 ? st.pending : 1.0;
    const double frac = std::min(st.done / denom, 1.0);
    constexpr int kBarWidth = 40;
    const int fill = static_cast<int>(frac * kBarWidth + 0.5);

    os << "solarcore campaign\n";
    if (!st.signature.empty())
        os << "  grid     " << st.signature << "\n";
    os << "  progress [";
    for (int i = 0; i < kBarWidth; ++i)
        os << (i < fill ? '#' : '-');
    char pct[16];
    std::snprintf(pct, sizeof(pct), "%5.1f%%", frac * 100.0);
    os << "] " << pct << "  " << static_cast<long>(st.done) << "/"
       << static_cast<long>(st.pending);
    if (st.resumed > 0)
        os << " (+" << static_cast<long>(st.resumed) << " resumed)";
    os << "\n";
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.1f", st.rate);
    os << "  rate     " << rate << " units/s   elapsed "
       << fmtDuration(st.elapsed) << "   eta "
       << (st.done >= st.pending ? "done" : fmtDuration(st.eta)) << "\n";
    char util[16];
    std::snprintf(util, sizeof(util), "%.0f%%", st.utilization * 100.0);
    os << "  workers  " << static_cast<long>(st.inflight) << "/"
       << static_cast<long>(st.workers) << " busy (" << util
       << ")   queue " << static_cast<long>(st.queueDepth) << "\n";
    if (!st.busy.empty()) {
        os << "  running ";
        constexpr std::size_t kMaxShown = 8;
        for (std::size_t i = 0; i < st.busy.size() && i < kMaxShown; ++i)
            os << ' ' << st.busy[i];
        if (st.busy.size() > kMaxShown)
            os << " (+" << st.busy.size() - kMaxShown << " more)";
        os << "\n";
    }
    if (st.processMode && !st.workerRows.empty()) {
        os << "  shards\n";
        for (const WorkerRow &row : st.workerRows) {
            os << "    w" << row.id << " [pid " << row.pid << "] "
               << row.done << "/" << row.total;
            if (row.crashed)
                os << "  CRASHED";
            else if (!row.alive)
                os << "  done";
            if (!row.lastKey.empty())
                os << "  " << row.lastKey;
            os << "\n";
        }
    }
    if (st.cacheEnabled) {
        const double lookups = st.cacheHits + st.cacheMisses;
        char hitrate[16];
        std::snprintf(hitrate, sizeof(hitrate), "%.0f%%",
                      lookups > 0 ? st.cacheHits / lookups * 100.0 : 0.0);
        os << "  cache    " << static_cast<long>(st.cacheHits) << " hit/"
           << static_cast<long>(st.cacheMisses) << " miss (" << hitrate
           << ")   " << static_cast<long>(st.unitsCached)
           << " units served   " << static_cast<long>(st.cacheStores)
           << " stored";
        if (st.cacheEvictions > 0)
            os << "   " << static_cast<long>(st.cacheEvictions)
               << " evicted";
        os << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string status_path;
    double interval = 1.0;
    bool once = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "--status")
            status_path = value;
        else if (key == "--interval")
            interval = util::parseNumber<double>(value).value_or(0.0);
        else if (key == "--once")
            once = true;
        else
            usage(("unknown option " + key).c_str());
    }
    if (status_path.empty())
        usage("--status=FILE is required");
    if (!(interval > 0))
        usage("--interval must be positive");

    for (;;) {
        Status st;
        std::string problem;
        const bool ok = loadStatus(status_path, st, problem);
        if (once) {
            if (!ok) {
                std::cerr << "solarcore_top: " << problem << "\n";
                return 1;
            }
            render(std::cout, st);
            return 0;
        }
        // One frame per refresh: clear, home, draw.
        std::ostringstream frame;
        frame << "\x1b[H\x1b[2J";
        if (ok)
            render(frame, st);
        else
            frame << "solarcore_top: " << problem << "\n";
        std::cout << frame.str() << std::flush;
        // A serve status never "completes": keep watching until the
        // user quits or the daemon removes the file.
        if (ok && !st.serve && st.done >= st.pending && st.pending > 0) {
            std::cout << "campaign complete\n";
            return 0;
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(interval));
    }
}
