/**
 * @file
 * perfbench_driver: runs one SolarCore benchmark workload in-process and
 * prints its raw measurements as one JSON object on stdout. run.py (next
 * to this file) builds the driver, launches it, checks the host, and
 * turns the raw samples into the metrics named in BENCHMARK.json;
 * README.md explains why each workload exists.
 *
 *   perfbench_driver run --workload=W --seed=N --seconds=S --trace=0|1
 *                        --tmp=DIR --ref-dir=DIR [--tiny] [--corrupt-ref]
 *   perfbench_driver probe --workload=W --seed=N --tmp=DIR --ref-dir=DIR
 *   perfbench_driver inputs --workload=W --seed=N [--tiny]
 *   perfbench_driver freeze --grid=full|mppt > ref/GRID-KERNEL.txt
 *
 * Workloads: campaign-full, campaign-mppt, campaign-observed, serve-plan.
 * Every input (unit seeds, query mix, arrival schedule) is generated here
 * from --seed; the library under test only ever sees the generated grids
 * and queries. Campaign summaries are checked row by row against the
 * frozen references in --ref-dir; serve answers are checked against a
 * cache-off reference server answering the same queries.
 *
 * The driver chdir()s into --tmp first, so every relative output path
 * (sink files, the unit cache, the AF_UNIX socket) lands there and the
 * socket path stays short whatever the checkout path is.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "campaign/campaign.hpp"
#include "obs/profiler.hpp"
#include "pv/pv_kernel.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "solar/trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace solarcore;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------
// Frozen workload constants. Changing any of them changes the benchmark.

/** Unit seeds 1..kRefPool have frozen campaign references. */
constexpr int kRefPool = 24;
/** Threads of the in-process campaign workloads. */
constexpr int kCampaignThreads = 4;
/** campaign-observed threads. runCampaign runs a campaign with an event
 *  trace or telemetry in-process whatever its worker count, so every arm
 *  of this workload (sinks on, off, traced) runs in one process. */
constexpr int kObservedThreads = 2;
/** campaign-full traced run: the worker-mode campaign whose span export
 *  gives the parent-side pipe merge time. */
constexpr int kPipeWorkers = 2;
constexpr int kPipeThreads = 2;
/** campaign-observed telemetry decimation (--telemetry-every). */
constexpr std::size_t kObservedTelemetryEvery = 10;

/** serve-plan: daemon workers and client connections. */
constexpr int kServeWorkers = 2;
constexpr int kServeClients = 4;
/** Open-loop arrival rate [requests/s]: about 47 % of the 74 requests/s
 *  the seed code sustains on the query mix below with kServeWorkers
 *  (measured by overloading it at 150/s). At 50/s (68 %) the run-to-run
 *  spread of the p50 and p99 latency was 0.30, above any usable bound. */
constexpr double kServeRate = 35.0;
constexpr double kServeWarmupSeconds = 1.0;
constexpr int kServeCallTimeoutMs = 60000;
/** Seed of the frozen query-shape stream and arrival jitter. */
constexpr std::uint64_t kServeShapeSeed = 0x5e7e;

enum class Workload
{
    CampaignFull,
    CampaignMppt,
    CampaignObserved,
    ServePlan,
};

struct WorkloadName
{
    const char *name;
    Workload workload;
};

constexpr WorkloadName kWorkloads[] = {
    {"campaign-full", Workload::CampaignFull},
    {"campaign-mppt", Workload::CampaignMppt},
    {"campaign-observed", Workload::CampaignObserved},
    {"serve-plan", Workload::ServePlan},
};

const char *
workloadName(Workload w)
{
    for (const auto &entry : kWorkloads)
        if (entry.workload == w)
            return entry.name;
    return "?";
}

// ---------------------------------------------------------------------
// Small helpers.

[[noreturn]] void
die(int code, const std::string &message)
{
    std::cerr << "perfbench_driver: " << message << "\n";
    std::exit(code);
}

/** splitmix64: the only random source of the benchmark inputs. */
struct Rng
{
    std::uint64_t state;

    explicit Rng(std::uint64_t seed) : state(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    std::size_t below(std::size_t n) { return next() % n; }

    double uniform() { return (next() >> 11) * 0x1.0p-53; }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }
};

std::uint64_t
fnv1a64(std::string_view text)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : text)
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    return h;
}

std::uint32_t
fnv1a32(std::string_view text)
{
    std::uint32_t h = 2166136261u;
    for (const char c : text)
        h = (h ^ static_cast<unsigned char>(c)) * 16777619u;
    return h;
}

std::string
hex(std::uint64_t v, int digits)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%0*llx", digits,
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quote(std::string_view s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

template <typename T, typename F>
std::string
jsonArray(const std::vector<T> &items, F render)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += ',';
        out += render(items[i]);
    }
    return out + "]";
}

double
msSince(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

std::int64_t
monotonicNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** When main() started; set-up probes report it next to their ready
 *  time so process start-up shows separately. */
std::int64_t mainStartNs = 0;

/** CPUs this process may run on (what `nproc` prints). */
int
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return CPU_COUNT(&set);
    return static_cast<int>(std::thread::hardware_concurrency());
}

/** Refuse a workload configuration that asks for more parallelism
 *  than the host has CPUs: its numbers would measure time slicing. */
void
requireParallelism(int wanted, const char *what)
{
    const int cpus = hostCpus();
    if (wanted > cpus)
        die(4, std::string("refusing ") + what + " = " +
                std::to_string(wanted) + " on a host with nproc = " +
                std::to_string(cpus));
}

std::string
rssJson()
{
    struct rusage self {}, kids {};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    return "\"rss_self_kb\":" + std::to_string(self.ru_maxrss) +
        ",\"rss_children_kb\":" + std::to_string(kids.ru_maxrss);
}

/** "@p prefix@p n": per-repetition file and socket names. */
std::string
tagged(const char *prefix, std::size_t n)
{
    std::string tag = prefix;
    tag += std::to_string(n);
    return tag;
}

std::uintmax_t
fileSize(const std::string &path)
{
    std::error_code ec;
    const auto n = fs::file_size(path, ec);
    return ec ? 0 : n;
}

std::size_t
countLines(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::size_t lines = 0;
    char buf[1 << 16];
    while (in.read(buf, sizeof buf) || in.gcount() > 0)
        lines += static_cast<std::size_t>(
            std::count(buf, buf + in.gcount(), '\n'));
    return lines;
}

// ---------------------------------------------------------------------
// Command line.

struct Args
{
    std::string command;
    Workload workload = Workload::CampaignFull;
    bool haveWorkload = false;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string tmp;
    std::string refDir;
    std::string gridName = "full";
    bool tiny = false;
    bool corruptRef = false;
};

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        die(2, "usage: perfbench_driver run|probe|inputs|freeze --...");
    Args a;
    a.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        try {
            if (key == "--workload") {
                a.haveWorkload = false;
                for (const auto &entry : kWorkloads)
                    if (value == entry.name) {
                        a.workload = entry.workload;
                        a.haveWorkload = true;
                    }
                if (!a.haveWorkload)
                    die(2, "unknown workload '" + value + "'");
            } else if (key == "--seed") {
                a.seed = std::stoull(value);
            } else if (key == "--seconds") {
                a.seconds = std::stod(value);
            } else if (key == "--trace") {
                a.trace = value == "1";
            } else if (key == "--tmp") {
                a.tmp = value;
            } else if (key == "--ref-dir") {
                a.refDir = value;
            } else if (key == "--grid") {
                a.gridName = value;
            } else if (key == "--tiny") {
                a.tiny = true;
            } else if (key == "--corrupt-ref") {
                a.corruptRef = true;
            } else {
                die(2, "unknown option " + arg);
            }
        } catch (const std::exception &) {
            die(2, "bad value in " + arg);
        }
    }
    return a;
}

// ---------------------------------------------------------------------
// Campaign workloads: grids, seed plan, options.

bool
isMpptGrid(Workload w)
{
    return w == Workload::CampaignMppt || w == Workload::CampaignObserved;
}

/** The grids with frozen references: "full", the paper's grid at
 *  dt 30 s, and "mppt", its MPPT policies at dt 15 s. */
campaign::ScenarioGrid
referenceGrid(bool mppt)
{
    campaign::ScenarioGrid g;
    campaign::applyPreset("full", g);
    if (mppt) {
        g.policies = {campaign::CampaignPolicy::MpptOpt,
                      campaign::CampaignPolicy::MpptRr,
                      campaign::CampaignPolicy::MpptIc,
                      campaign::CampaignPolicy::MpptIcMotion};
        g.dtSeconds = 15.0;
    }
    return g;
}

/**
 * A workload's grid. campaign-observed keeps the Fig. 13/14 months (Jan,
 * Jul) of the mppt grid: its recording sinks make a campaign about four
 * times slower, and halving the grid gives a run enough campaigns for a
 * steady median. --tiny keeps one site and one month (self-tests).
 */
campaign::ScenarioGrid
campaignGrid(Workload w, bool tiny)
{
    campaign::ScenarioGrid g = referenceGrid(isMpptGrid(w));
    if (w == Workload::CampaignObserved)
        g.months = {solar::Month::Jan, solar::Month::Jul};
    if (tiny) {
        g.sites.resize(1);
        g.months.resize(1);
    }
    return g;
}

/** The unit seed of every repetition: a seeded shuffle of the
 *  reference pool, cycled. */
std::vector<std::uint64_t>
seedPlan(std::uint64_t seed, Workload w, std::size_t reps)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(w));
    std::vector<std::uint64_t> pool(kRefPool);
    std::iota(pool.begin(), pool.end(), 1);
    rng.shuffle(pool);
    std::vector<std::uint64_t> plan(reps);
    for (std::size_t r = 0; r < reps; ++r)
        plan[r] = pool[r % pool.size()];
    return plan;
}

/** Files a campaign repetition writes, named by repetition. */
struct RepFiles
{
    std::string profile, spans, stats, events, telemetry;
};

RepFiles
repFiles(const std::string &tag)
{
    return {tag + ".profile.json", tag + ".spans.jsonl",
            tag + ".stats.json", tag + ".events.jsonl",
            tag + ".telemetry.csv"};
}

enum class Sinks
{
    Bare,     //!< default audit only
    Workload, //!< what the workload arms (recording sinks on observed)
    Traced,   //!< workload sinks plus profiler, spans and stats
};

campaign::CampaignOptions
campaignOptions(Workload w, Sinks sinks, const RepFiles &files)
{
    campaign::CampaignOptions o;
    o.obs.audit = obs::AuditMode::Count; // the campaign tool's default
    if (w == Workload::CampaignObserved) {
        o.threads = kObservedThreads;
        if (sinks != Sinks::Bare) {
            o.obs.statsOut = files.stats;
            o.obs.traceOut = files.events;
            o.obs.telemetryOut = files.telemetry;
            o.obs.telemetryEvery = kObservedTelemetryEvery;
            o.spanOut = files.spans;
        }
    } else {
        o.threads = kCampaignThreads;
    }
    if (sinks == Sinks::Traced) {
        o.obs.profileOut = files.profile;
        o.spanOut = files.spans;
        o.obs.statsOut = files.stats;
    }
    return o;
}

// ---------------------------------------------------------------------
// Campaign references (frozen from the seed code by `freeze`).

struct RefSeed
{
    std::string summaryHash;
    std::unordered_map<std::string, std::uint32_t> rows; //!< key -> hash
};

struct Aggregates
{
    double meanUtilization = 0.0;
    double ptpShare = 0.0;
    double retracks = 0.0;
};

double
aggregateField(const std::string &summary, const char *field)
{
    const auto agg = summary.find("\"aggregate\"");
    const std::string needle = std::string("\"") + field + "\": ";
    const auto at = summary.find(needle, agg == std::string::npos ? 0 : agg);
    if (at == std::string::npos)
        return std::nan("");
    return std::strtod(summary.c_str() + at + needle.size(), nullptr);
}

Aggregates
summaryAggregates(const std::string &summary)
{
    return {aggregateField(summary, "mean_utilization"),
            aggregateField(summary, "solar_ptp_share"),
            aggregateField(summary, "retracks")};
}

/** Unit rows of a summary: (key, row text without the trailing comma). */
std::vector<std::pair<std::string, std::string>>
summaryRows(const std::string &summary)
{
    std::vector<std::pair<std::string, std::string>> rows;
    static const std::string prefix = "    {\"key\": \"";
    std::istringstream in(summary);
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, prefix.size(), prefix) != 0)
            continue;
        const auto end = line.find('"', prefix.size());
        if (!line.empty() && line.back() == ',')
            line.pop_back();
        rows.emplace_back(line.substr(prefix.size(), end - prefix.size()),
                          line);
    }
    return rows;
}

std::string
refFileName(bool mppt, const std::string &kernel)
{
    return std::string(mppt ? "mppt" : "full") + "-" + kernel + ".txt";
}

/** Load the frozen reference of one grid kind; rows are stored in
 *  full-grid expansion order, so keys are rebuilt from the grid. */
std::map<std::uint64_t, RefSeed>
loadRef(const std::string &path, bool mppt, bool corrupt)
{
    std::ifstream in(path);
    if (!in)
        die(5, "no frozen reference " + path +
                " (references exist per resolved PV kernel)");
    std::map<std::uint64_t, RefSeed> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        // "seed S summary H util U ptp P retracks R rows HHHH...": the
        // aggregates are for people (run.py prints them), not checked here.
        std::string tag, rows, word, rows_tag;
        std::uint64_t seed = 0;
        RefSeed ref;
        ls >> tag >> seed >> word >> ref.summaryHash;
        for (int i = 0; i < 6; ++i)
            ls >> word;
        ls >> rows_tag >> rows;
        if (tag != "seed" || rows_tag != "rows")
            die(5, "malformed reference line in " + path);
        campaign::ScenarioGrid grid = referenceGrid(mppt);
        grid.seeds = {seed};
        const auto units = campaign::expandGrid(grid);
        if (rows.size() != units.size() * 8)
            die(5, "reference row count mismatch in " + path);
        for (std::size_t i = 0; i < units.size(); ++i) {
            std::uint32_t h = static_cast<std::uint32_t>(
                std::stoul(rows.substr(i * 8, 8), nullptr, 16));
            if (corrupt && i == 0)
                h ^= 1u; // self-test hook: one wrong row per seed
            ref.rows[campaign::unitKey(units[i])] = h;
        }
        out[seed] = std::move(ref);
    }
    if (out.empty())
        die(5, "empty reference " + path);
    return out;
}

struct CheckResult
{
    std::size_t rows = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;
};

CheckResult
checkSummary(const std::string &summary, const RefSeed &ref, bool whole)
{
    CheckResult r;
    for (const auto &[key, text] : summaryRows(summary)) {
        ++r.rows;
        const auto it = ref.rows.find(key);
        if (it == ref.rows.end() || it->second != fnv1a32(text)) {
            ++r.failed;
            if (r.failures.size() < 4)
                r.failures.push_back("unit row differs: " + key);
        }
    }
    // A byte difference outside the unit rows (the aggregate block)
    // still fails one operation.
    if (whole && r.failed == 0 && hex(fnv1a64(summary), 16) != ref.summaryHash) {
        ++r.failed;
        r.failures.push_back("summary bytes differ outside the unit rows");
    }
    return r;
}

// ---------------------------------------------------------------------
// Campaign execution.

struct RepOutcome
{
    std::uint64_t seed = 0;
    std::string mode; //!< "bare", "untraced", "traced"
    int threads = 0, workers = 0;
    double ms = 0.0;
    std::size_t units = 0;
    CheckResult check;
    Aggregates agg;
    std::string summaryHash;
    std::string profile, spans, stats; //!< kept for run.py (traced)
    std::uintmax_t sinkBytes = 0;
    std::size_t traceEvents = 0;
};

std::string
repJson(const RepOutcome &r)
{
    std::string s = "{\"seed\":" + std::to_string(r.seed) +
        ",\"mode\":" + quote(r.mode) +
        ",\"threads\":" + std::to_string(r.threads) +
        ",\"workers\":" + std::to_string(r.workers) +
        ",\"ms\":" + num(r.ms) + ",\"units\":" + std::to_string(r.units) +
        ",\"failed\":" + std::to_string(r.check.failed) +
        ",\"summary_hash\":" + quote(r.summaryHash) +
        ",\"mean_utilization\":" + num(r.agg.meanUtilization) +
        ",\"solar_ptp_share\":" + num(r.agg.ptpShare) +
        ",\"retracks\":" + num(r.agg.retracks) +
        ",\"sink_bytes\":" + std::to_string(r.sinkBytes) +
        ",\"trace_events\":" + std::to_string(r.traceEvents);
    if (!r.profile.empty())
        s += ",\"profile\":" + quote(r.profile);
    if (!r.spans.empty())
        s += ",\"spans\":" + quote(r.spans);
    if (!r.stats.empty())
        s += ",\"stats\":" + quote(r.stats);
    return s + "}";
}

class CampaignRunner
{
  public:
    CampaignRunner(const Args &args)
        : args_(args), grid_(campaignGrid(args.workload, args.tiny)),
          wholeSummary_(!args.tiny &&
                        args.workload != Workload::CampaignObserved)
    {
        // Resolve the PV kernel exactly as runCampaign will, to pick the
        // reference written under the same kernel.
        kernel_ = pv::pvKernelName(pv::detectPvKernel());
        const bool mppt = isMpptGrid(args.workload);
        refFile_ = refFileName(mppt, kernel_);
        refs_ = loadRef(args.refDir + "/" + refFile_, mppt, args.corruptRef);
    }

    const std::string &kernel() const { return kernel_; }
    const std::string &refFile() const { return refFile_; }
    bool wholeSummary() const { return wholeSummary_; }

    /** One campaign invocation: run, render the summary, check it.
     *  Non-zero @p threads overrides the workload's parallelism (the
     *  scaling side-report); @p keep_spans also exports its spans. */
    RepOutcome
    rep(std::uint64_t seed, Sinks sinks, const std::string &tag,
        int threads = 0, int workers = 0, bool keep_spans = false)
    {
        campaign::ScenarioGrid grid = grid_;
        grid.seeds = {seed};
        const RepFiles files = repFiles(tag);
        campaign::CampaignOptions options =
            campaignOptions(args_.workload, sinks, files);
        if (threads > 0) {
            options.threads = threads;
            options.workers = workers;
        }
        if (keep_spans)
            options.spanOut = files.spans;
        requireParallelism(options.threads * std::max(1, options.workers),
                           "campaign threads x workers");

        RepOutcome out;
        out.seed = seed;
        out.mode = sinks == Sinks::Bare
            ? "bare"
            : (sinks == Sinks::Traced ? "traced" : "untraced");
        out.threads = options.threads;
        out.workers = std::max(1, options.workers);
        const auto t0 = Clock::now();
        const campaign::CampaignOutcome outcome =
            campaign::runCampaign(grid, options);
        std::ostringstream summary;
        campaign::writeSummaryJson(summary, grid, outcome);
        const auto t1 = Clock::now();
        out.ms = msSince(t0, t1);
        out.units = outcome.results.size();

        const std::string text = summary.str();
        out.summaryHash = hex(fnv1a64(text), 16);
        out.agg = summaryAggregates(text);
        const auto ref = refs_.find(seed);
        if (ref == refs_.end())
            die(5, "no reference for unit seed " + std::to_string(seed));
        out.check = checkSummary(text, ref->second, wholeSummary_);

        for (const std::string *f :
             {&options.obs.statsOut, &options.obs.traceOut,
              &options.obs.telemetryOut, &options.obs.profileOut,
              &options.spanOut})
            if (!f->empty())
                out.sinkBytes += fileSize(*f);
        if (!options.obs.traceOut.empty() && sinks == Sinks::Traced)
            out.traceEvents = countLines(options.obs.traceOut);
        // The bulky recording outputs are measured, never kept; the small
        // ones stay in the run's temp directory for run.py.
        for (const std::string *f :
             {&options.obs.traceOut, &options.obs.telemetryOut})
            if (!f->empty())
                fs::remove(*f);
        if (sinks == Sinks::Traced || keep_spans)
            out.spans = options.spanOut;
        if (sinks == Sinks::Traced) {
            out.profile = options.obs.profileOut;
            out.stats = options.obs.statsOut;
        }
        return out;
    }

    /** Time solar::generateDayTrace over the units of @p seed's grid. */
    double
    traceGenMicrosPerUnit(std::uint64_t seed)
    {
        campaign::ScenarioGrid grid = grid_;
        grid.seeds = {seed};
        const auto units = campaign::expandGrid(grid);
        const auto t0 = Clock::now();
        std::size_t samples = 0;
        for (const auto &u : units)
            samples +=
                solar::generateDayTrace(u.site, u.month, u.seed).size();
        const double us = msSince(t0, Clock::now()) * 1e3;
        if (samples == 0)
            die(6, "empty solar traces");
        return us / static_cast<double>(units.size());
    }

    std::size_t unitCount() const { return grid_.unitCount(); }

  private:
    const Args &args_;
    campaign::ScenarioGrid grid_;
    bool wholeSummary_; //!< the grid is a reference grid: check all bytes
    std::string kernel_;
    std::string refFile_;
    std::map<std::uint64_t, RefSeed> refs_;
};

std::string
hostJson(const std::string &kernel)
{
    return "\"nproc\":" + std::to_string(hostCpus()) +
        ",\"build_type\":" + quote(PERFBENCH_BUILD_TYPE) +
        ",\"kernel\":" + quote(kernel);
}

int
runCampaignWorkload(const Args &args)
{
    CampaignRunner runner(args);
    const auto plan = seedPlan(args.seed, args.workload, 4096);
    std::vector<RepOutcome> reps;
    std::size_t next = 0;

    // Untimed warm-up: first-touch page faults and lazy statics.
    runner.rep(plan[next++], Sinks::Workload, "warmup");

    // Timed repetitions. The traced run interleaves untraced and traced
    // repetitions (alternating which goes first) so their difference is
    // the measured cost of tracing; campaign-observed adds a sinks-off
    // repetition to each group, giving the recording share.
    const std::size_t min_reps = args.seconds > 0.0 ? 3 : 1;
    const auto t0 = Clock::now();
    for (std::size_t group = 0;; ++group) {
        std::vector<Sinks> order = {Sinks::Workload};
        if (args.trace) {
            order = {Sinks::Workload, Sinks::Traced};
            if (args.workload == Workload::CampaignObserved)
                order.push_back(Sinks::Bare);
            std::rotate(order.begin(),
                        order.begin() +
                            static_cast<long>(group % order.size()),
                        order.end());
        }
        // Paired modes share one unit seed so they do the same work.
        const std::uint64_t seed = plan[next++];
        for (const Sinks s : order)
            reps.push_back(runner.rep(seed, s, tagged("r", reps.size())));
        const double elapsed = msSince(t0, Clock::now()) / 1e3;
        if (group + 1 >= min_reps && elapsed >= args.seconds)
            break;
    }
    const double wall_s = msSince(t0, Clock::now()) / 1e3;

    // Traced-run extras: solar trace generation timed from outside, the
    // thread/worker scaling side-report, and one worker-mode run with
    // span export for the pipe-merge time.
    std::string extras;
    std::vector<RepOutcome> scaling;
    if (args.trace) {
        extras += ",\"trace_gen_us_per_unit\":" +
            num(runner.traceGenMicrosPerUnit(reps.front().seed));
        if (args.workload == Workload::CampaignFull) {
            const std::uint64_t seed = reps.front().seed;
            const int cpus = hostCpus();
            for (const auto &[threads, workers] :
                 std::vector<std::pair<int, int>>{
                     {1, 1}, {2, 1}, {4, 1}, {1, 2}, {1, 4}}) {
                if (threads * workers > cpus) {
                    std::cerr << "perfbench_driver: scaling point "
                              << threads << "x" << workers
                              << " skipped (nproc " << cpus << ")\n";
                    continue;
                }
                scaling.push_back(runner.rep(
                    seed, Sinks::Bare,
                    tagged("scale", scaling.size()), threads,
                    workers));
            }
            extras += ",\"scaling\":" + jsonArray(scaling, repJson);
            // Span export switches on the workers' 'T' frames: the
            // parent-side pipe merge shows in the shard.drain span.
            if (cpus >= kPipeWorkers * kPipeThreads) {
                scaling.push_back(runner.rep(seed, Sinks::Bare, "pipes",
                                             kPipeThreads, kPipeWorkers,
                                             true));
                extras += ",\"pipe_spans\":" + quote(scaling.back().spans);
            }
        }
    }

    std::size_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    for (const auto *list : {&reps, &scaling}) {
        for (const auto &r : *list) {
            attempted += r.check.rows;
            failed += r.check.failed;
            for (const auto &f : r.check.failures)
                if (failures.size() < 8)
                    failures.push_back(f + " (seed " +
                                       std::to_string(r.seed) + ")");
        }
    }
    std::cout << "{\"workload\":" << quote(workloadName(args.workload))
              << "," << hostJson(runner.kernel())
              << ",\"trace\":" << (args.trace ? "true" : "false")
              << ",\"grid_units\":" << runner.unitCount()
              << ",\"reference\":" << quote(runner.refFile())
              << ",\"whole_summary\":"
              << (runner.wholeSummary() ? "true" : "false")
              << ",\"wall_s\":" << num(wall_s)
              << ",\"attempted\":" << attempted << ",\"failed\":" << failed
              << ",\"failures\":" << jsonArray(failures, quote)
              << ",\"reps\":" << jsonArray(reps, repJson) << extras << ","
              << rssJson() << "}\n";
    return 0;
}

// ---------------------------------------------------------------------
// serve-plan: query mix and arrival schedule.

enum class QueryKind
{
    Fresh,   //!< units never seen before: simulate
    Overlap, //!< half its units were answered before: unit-cache hits
    Repeat,  //!< exact repeat of an earlier query: answer-cache hit
};

const char *
kindName(QueryKind k)
{
    return k == QueryKind::Fresh ? "fresh"
                                 : (k == QueryKind::Overlap ? "overlap"
                                                            : "repeat");
}

struct ServeRequest
{
    serve::PlanQuery query;
    QueryKind kind = QueryKind::Fresh;
    double dueS = 0.0; //!< offset from the phase start
};

const campaign::CampaignPolicy kServePolicies[] = {
    campaign::CampaignPolicy::MpptOpt, campaign::CampaignPolicy::MpptRr,
    campaign::CampaignPolicy::MpptIc, campaign::CampaignPolicy::MpptIcMotion};
const workload::WorkloadId kServeMixes[] = {
    workload::WorkloadId::H1, workload::WorkloadId::HM2,
    workload::WorkloadId::L1};

/** Append a value of @p all not yet in @p have (false when full). */
template <typename T, std::size_t N>
bool
addDistinct(std::vector<T> &have, const T (&all)[N], Rng &rng)
{
    std::vector<T> left;
    for (const T &v : all)
        if (std::find(have.begin(), have.end(), v) == have.end())
            left.push_back(v);
    if (left.empty())
        return false;
    have.push_back(left[rng.below(left.size())]);
    return true;
}

/**
 * The serve-plan query stream. Query shapes (kind, axes, size) come
 * from a frozen shape seed, so every workload seed offers the daemon the
 * same service demand and latency comparisons across seeds measure the
 * code, not the draw. The workload seed picks what differs between real
 * planning requests of the same shape: the unit seeds (each unit's
 * weather). The three kinds come in equal shares, every block of three
 * queries in a shuffled order. Apart from its grid axes a query keeps
 * solarcore_query's defaults (dt 30 s, one node per unit).
 */
class QueryGenerator
{
  public:
    explicit QueryGenerator(std::uint64_t seed)
        : rng_(kServeShapeSeed),
          // Fresh unit seeds start in a per-seed range far above the
          // campaign reference pool, so no two workload seeds share units.
          nextUnitSeed_(1000 + (seed % 1000003) * 100000)
    {
        const auto sites = solar::allSites();
        const auto months = solar::allMonths();
        std::copy(sites.begin(), sites.end(), sites_);
        std::copy(months.begin(), months.end(), months_);
    }

    ServeRequest
    next()
    {
        if (cycle_.empty()) {
            cycle_ = {QueryKind::Fresh, QueryKind::Overlap,
                      QueryKind::Repeat};
            rng_.shuffle(cycle_);
        }
        ServeRequest req;
        req.kind = fresh_.empty() ? QueryKind::Fresh : cycle_.back();
        cycle_.pop_back();
        if (req.kind == QueryKind::Fresh) {
            makeFresh(req.query);
            fresh_.push_back(history_.size());
        } else if (req.kind == QueryKind::Overlap) {
            makeOverlap(req.query);
        } else {
            req.query = history_[rng_.below(history_.size())];
        }
        history_.push_back(req.query);
        return req;
    }

  private:
    /** A grid of 1-8 units: the unit count is drawn uniformly, each of
     *  its factors of two widens one of the site, month and policy axes
     *  (in a shuffled order) to two values, the rest are weather seeds. */
    void
    makeFresh(serve::PlanQuery &q)
    {
        int units = 1 + static_cast<int>(rng_.below(8));
        std::vector<int> axes = {0, 1, 2}; // sites, months, policies
        rng_.shuffle(axes);
        int sizes[3] = {1, 1, 1};
        for (const int axis : axes) {
            if (units % 2 == 0) {
                sizes[axis] = 2;
                units /= 2;
            }
        }
        q = serve::PlanQuery{};
        for (int i = 0; i < sizes[0]; ++i)
            addDistinct(q.grid.sites, sites_, rng_);
        for (int i = 0; i < sizes[1]; ++i)
            addDistinct(q.grid.months, months_, rng_);
        for (int i = 0; i < sizes[2]; ++i)
            addDistinct(q.grid.policies, kServePolicies, rng_);
        q.grid.workloads = {kServeMixes[rng_.below(3)]};
        for (int i = 0; i < units; ++i)
            q.grid.seeds.push_back(nextUnitSeed_++);
    }

    /** An earlier fresh grid grown by one new site, month, policy or
     *  weather seed: its earlier units come from the unit cache. */
    void
    makeOverlap(serve::PlanQuery &q)
    {
        q = history_[fresh_[rng_.below(fresh_.size())]];
        const std::size_t axis = rng_.below(4);
        if ((axis == 0 && addDistinct(q.grid.sites, sites_, rng_)) ||
            (axis == 1 && addDistinct(q.grid.months, months_, rng_)) ||
            (axis == 2 &&
             addDistinct(q.grid.policies, kServePolicies, rng_)))
            return;
        q.grid.seeds.push_back(nextUnitSeed_++);
    }

    Rng rng_; //!< query shapes (frozen)
    std::uint64_t nextUnitSeed_;
    solar::SiteId sites_[solar::kNumSites];
    solar::Month months_[solar::kNumMonths];
    std::vector<QueryKind> cycle_;
    std::vector<serve::PlanQuery> history_;
    std::vector<std::size_t> fresh_; //!< history_ indices of fresh grids
};

/** Warm-up plus timed requests of one phase, due times from the seed. */
std::vector<ServeRequest>
serveSchedule(std::uint64_t seed, double seconds, std::size_t &warmup)
{
    QueryGenerator gen(seed);
    Rng jitter(kServeShapeSeed ^ 0xa0761f41ull);
    warmup = static_cast<std::size_t>(kServeWarmupSeconds * kServeRate);
    const std::size_t timed = std::max<std::size_t>(
        1, static_cast<std::size_t>(seconds * kServeRate));
    std::vector<ServeRequest> reqs;
    reqs.reserve(warmup + timed);
    for (std::size_t i = 0; i < warmup + timed; ++i) {
        ServeRequest r = gen.next();
        r.query.requestId = i + 1;
        // Even spacing with +-30 % jitter: a fixed schedule, not a burst.
        const std::size_t slot = i < warmup ? i : i - warmup;
        r.dueS =
            (static_cast<double>(slot) + 0.6 * (jitter.uniform() - 0.5)) /
            kServeRate;
        reqs.push_back(std::move(r));
    }
    return reqs;
}

struct ServeSample
{
    std::size_t index = 0;
    double latencyMs = 0.0; //!< due time -> reply
    double lateMs = 0.0;    //!< due time -> send (generator lateness)
    double callMs = 0.0;    //!< send -> reply (Client::call)
    int status = -1;        //!< ReplyStatus, -1 = transport failure
    bool correct = false;
    std::uint32_t units = 0;
    std::string body;
};

/**
 * Open loop over requests [begin, end): kServeClients connections each
 * take the next request, wait for its due time, and call. A request
 * whose due time passes while every connection is busy is sent late;
 * its latency still runs from the due time.
 */
std::vector<ServeSample>
openLoop(const std::string &socket, const std::vector<ServeRequest> &reqs,
         std::size_t begin, std::size_t end, int clients)
{
    std::vector<ServeSample> samples(end - begin);
    std::atomic<std::size_t> cursor{begin};
    const auto t0 = Clock::now() + std::chrono::milliseconds(5);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
            serve::Client client;
            const bool connected = client.connect(socket);
            for (;;) {
                const std::size_t i = cursor.fetch_add(1);
                if (i >= end)
                    return;
                ServeSample &s = samples[i - begin];
                s.index = i;
                const auto due = t0 +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(reqs[i].dueS));
                std::this_thread::sleep_until(due);
                const auto sent = Clock::now();
                serve::PlanReply reply;
                std::string error;
                const bool ok = connected &&
                    client.call(reqs[i].query, reply, kServeCallTimeoutMs,
                                error);
                const auto done = Clock::now();
                s.latencyMs = msSince(due, done);
                s.lateMs = std::max(0.0, msSince(due, sent));
                s.callMs = msSince(sent, done);
                if (ok) {
                    s.status = static_cast<int>(reply.status);
                    s.units = reply.answer.unitCount;
                    if (reply.status == serve::ReplyStatus::Ok)
                        s.body = serve::encodeAnswerBody(reply.answer);
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
    return samples;
}

/**
 * Stop @p server once its workers sit idle in their queue wait.
 * Server::stop() clears running_ and notifies the queue condition
 * variable without holding the queue mutex, so a worker caught between
 * its wait predicate and the wait itself misses the wakeup and stop()
 * never returns (about 3 % of immediate start/stop cycles hang). Workers
 * pass through that window only at thread start and right after a
 * request; a quiet period first keeps them out of it.
 */
void
stopWhenIdle(serve::Server &server)
{
    for (int i = 0; i < 5000; ++i) {
        const serve::ServeSnapshot snap = server.snapshot();
        if (snap.inflight == 0 && snap.queueDepth == 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.stop();
}

serve::ServeConfig
serveConfig(const std::string &socket, const std::string &cache_dir,
            bool traced, const std::string &span_out)
{
    serve::ServeConfig cfg;
    cfg.socketPath = socket;
    cfg.workers = kServeWorkers;
    cfg.unitCacheDir = cache_dir;
    if (traced) {
        cfg.traceOut = span_out;
        cfg.traceSample = 1; // keep every request's spans
        cfg.traceBufferSpans = 1u << 20;
    }
    return cfg;
}

struct PhaseResult
{
    bool traced = false;
    std::uint64_t streamSeed = 0;
    std::vector<ServeSample> samples;
    serve::ServeSnapshot before, after; //!< around the timed window
    std::string spans;
    std::vector<ServeRequest> reqs;
    std::size_t warmup = 0;
};

/** One serve phase: fresh daemon and unit cache, warm-up, timed loop. */
PhaseResult
servePhase(std::uint64_t stream_seed, double seconds, bool traced,
           const std::string &tag, std::string &kernel)
{
    PhaseResult p;
    p.traced = traced;
    p.streamSeed = stream_seed;
    p.reqs = serveSchedule(stream_seed, seconds, p.warmup);
    const std::string socket = tag + ".sock";
    p.spans = traced ? tag + ".spans.jsonl" : "";
    serve::Server server(
        serveConfig(socket, tag + ".unitcache", traced, p.spans));
    if (!server.start())
        die(6, "serve: cannot start the daemon");
    kernel = server.resolvedKernel();
    openLoop(socket, p.reqs, 0, p.warmup, kServeClients);
    p.before = server.snapshot();
    p.samples = openLoop(socket, p.reqs, p.warmup, p.reqs.size(),
                         kServeClients);
    p.after = server.snapshot();
    stopWhenIdle(server); // joins the daemon threads, writes span exports
    fs::remove_all(tag + ".unitcache");
    return p;
}

/**
 * Reference answers: every distinct timed query, answered by a daemon
 * with both caches off. @return key material -> answer body.
 */
std::unordered_map<std::string, std::string>
referenceAnswers(const std::vector<PhaseResult> &phases,
                 const std::string &kernel, bool corrupt)
{
    std::vector<ServeRequest> distinct;
    std::set<std::string> seen;
    for (const auto &p : phases)
        for (std::size_t i = p.warmup; i < p.reqs.size(); ++i)
            if (seen.insert(serve::queryKeyMaterial(p.reqs[i].query, kernel))
                    .second)
                distinct.push_back(p.reqs[i]);
    for (std::size_t i = 0; i < distinct.size(); ++i) {
        distinct[i].dueS = 0.0; // as fast as the reference daemon answers
        distinct[i].query.requestId = i + 1;
    }
    serve::ServeConfig cfg = serveConfig("ref.sock", "", false, "");
    cfg.resultCacheCap = 0;
    cfg.workers = std::min(hostCpus(), kServeClients);
    serve::Server server(cfg);
    if (!server.start())
        die(6, "serve: cannot start the reference daemon");
    const auto samples =
        openLoop("ref.sock", distinct, 0, distinct.size(), cfg.workers);
    stopWhenIdle(server);
    std::unordered_map<std::string, std::string> ref;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        if (samples[i].status != static_cast<int>(serve::ReplyStatus::Ok))
            die(6, "serve: the reference daemon failed a query");
        std::string body = samples[i].body;
        if (corrupt && i % 2 == 0)
            body.back() ^= 1; // self-test hook
        ref[serve::queryKeyMaterial(distinct[i].query, kernel)] = body;
    }
    return ref;
}

/** What profileServeUnits() measured. */
struct UnitProfile
{
    std::string path;
    std::size_t units = 0;
    double traceGenMicrosPerUnit = 0.0;
};

/** Replay up to @p max fresh units of the phase under the profiler:
 *  the daemon's workers carry no profiler, so this is the per-unit
 *  layer mix of the simulations the serve workload runs. */
UnitProfile
profileServeUnits(const PhaseResult &p, std::size_t max)
{
    obs::Profiler prof;
    UnitProfile out;
    double gen_us = 0.0;
    for (std::size_t i = p.warmup; i < p.reqs.size() && out.units < max;
         ++i) {
        if (p.reqs[i].kind != QueryKind::Fresh)
            continue;
        const campaign::ScenarioGrid &grid = p.reqs[i].query.grid;
        for (const auto &unit : campaign::expandGrid(grid)) {
            if (out.units >= max)
                break;
            const auto g0 = Clock::now();
            solar::generateDayTrace(unit.site, unit.month, unit.seed);
            gen_us += msSince(g0, Clock::now()) * 1e3;
            obs::Profiler::Attach attach(&prof);
            SC_PROFILE_SCOPE("campaign.unit");
            campaign::runUnit(unit, grid);
            ++out.units;
        }
    }
    out.path = "serve_units.profile.json";
    std::ofstream file(out.path);
    prof.writeJson(file);
    if (out.units > 0)
        out.traceGenMicrosPerUnit = gen_us / static_cast<double>(out.units);
    return out;
}

/** The daemon's counters over the timed window (after - before). */
std::string
snapJson(const serve::ServeSnapshot &a, const serve::ServeSnapshot &b)
{
    std::string out;
    auto field = [&out](const char *name, std::uint64_t after,
                        std::uint64_t before) {
        out += out.empty() ? "{\"" : ",\"";
        out += name;
        out += "\":" + std::to_string(after - before);
    };
    field("requests", a.requests, b.requests);
    field("ok", a.ok, b.ok);
    field("shed_capacity", a.shedCapacity, b.shedCapacity);
    field("shed_deadline", a.shedDeadline, b.shedDeadline);
    field("expired", a.expired, b.expired);
    field("units_simulated", a.unitsSimulated, b.unitsSimulated);
    field("result_cache_hits", a.resultCacheHits, b.resultCacheHits);
    field("result_cache_misses", a.resultCacheMisses, b.resultCacheMisses);
    field("unit_cache_hits", a.unitCache.hits, b.unitCache.hits);
    field("unit_cache_misses", a.unitCache.misses, b.unitCache.misses);
    return out + "}";
}

/** One phase; a sample is [schedule index, latency ms, generator
 *  lateness ms, call ms, status, correct, units, query kind]. */
std::string
phaseJson(const PhaseResult &p)
{
    std::string samples = "[";
    for (const ServeSample &s : p.samples) {
        if (samples.size() > 1)
            samples += ',';
        samples += "[" + std::to_string(s.index) + "," + num(s.latencyMs) +
            "," + num(s.lateMs) + "," + num(s.callMs) + "," +
            std::to_string(s.status) + "," + (s.correct ? "1" : "0") + "," +
            std::to_string(s.units) + "," +
            quote(kindName(p.reqs[s.index].kind)) + "]";
    }
    return "{\"traced\":" + std::string(p.traced ? "true" : "false") +
        ",\"stream_seed\":" + std::to_string(p.streamSeed) +
        ",\"spans\":" + quote(p.spans) +
        ",\"snapshot\":" + snapJson(p.after, p.before) +
        ",\"samples\":" + samples + "]}";
}

/** Why a timed request failed (empty when it did not). */
std::string
replyProblem(const ServeSample &s)
{
    if (s.correct)
        return "";
    if (s.status < 0)
        return "transport failure";
    if (s.status != static_cast<int>(serve::ReplyStatus::Ok))
        return std::string("status ") +
            serve::replyStatusName(static_cast<serve::ReplyStatus>(s.status));
    return "answer bytes differ from the cache-off reference";
}

int
runServeWorkload(const Args &args)
{
    if (!serve::serveSupported())
        die(6, "serve: AF_UNIX sockets unsupported here");
    requireParallelism(kServeClients, "serve client connections");
    requireParallelism(kServeWorkers, "serve workers");

    // The traced run pairs untraced and traced phases over the same
    // query stream, alternating which runs first.
    std::vector<PhaseResult> phases;
    std::string kernel;
    if (!args.trace) {
        phases.push_back(
            servePhase(args.seed, args.seconds, false, "p0", kernel));
    } else {
        const double each = std::max(1.0, args.seconds / 4.0);
        for (int pair = 0; pair < 2; ++pair) {
            const std::uint64_t stream = args.seed * 16 + pair;
            for (int k = 0; k < 2; ++k) {
                const bool traced = (k == 0) == (pair % 2 == 1);
                phases.push_back(servePhase(
                    stream, each, traced,
                    tagged("p", phases.size()), kernel));
            }
        }
    }

    const auto ref = referenceAnswers(phases, kernel, args.corruptRef);
    std::size_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    for (auto &p : phases) {
        for (auto &s : p.samples) {
            ++attempted;
            const auto &q = p.reqs[s.index].query;
            const auto it = ref.find(serve::queryKeyMaterial(q, kernel));
            s.correct = s.status == static_cast<int>(serve::ReplyStatus::Ok) &&
                it != ref.end() && it->second == s.body;
            if (s.correct)
                continue;
            ++failed;
            if (failures.size() < 8)
                failures.push_back("request " + std::to_string(q.requestId) +
                                   " (" + kindName(p.reqs[s.index].kind) +
                                   "): " + replyProblem(s));
        }
    }

    std::string extras;
    if (args.trace) {
        const auto traced_phase = std::find_if(
            phases.begin(), phases.end(),
            [](const PhaseResult &p) { return p.traced; });
        const UnitProfile prof = profileServeUnits(*traced_phase, 48);
        extras = ",\"profile\":" + quote(prof.path) +
            ",\"profile_units\":" + std::to_string(prof.units) +
            ",\"trace_gen_us_per_unit\":" +
            num(prof.traceGenMicrosPerUnit);
    }

    std::cout << "{\"workload\":\"serve-plan\"," << hostJson(kernel)
              << ",\"trace\":" << (args.trace ? "true" : "false")
              << ",\"rate\":" << num(kServeRate)
              << ",\"clients\":" << kServeClients
              << ",\"workers\":" << kServeWorkers
              << ",\"attempted\":" << attempted << ",\"failed\":" << failed
              << ",\"failures\":" << jsonArray(failures, quote)
              << ",\"phases\":" << jsonArray(phases, phaseJson) << extras << "," << rssJson() << "}\n";
    return 0;
}

// ---------------------------------------------------------------------
// Set-up probes, input dumps and reference freezing.

/**
 * One set-up probe: do the workload's set-up in this fresh process and
 * print the monotonic time at which the first unit of work can start.
 * run.py subtracts its launch time. Campaigns run one repetition with
 * span export and report the first unit span's start; serve-plan starts
 * the daemon (kernel, unit cache, bind, threads) and connects a client.
 */
int
runProbe(const Args &args)
{
    if (args.workload == Workload::ServePlan) {
        serve::Server server(serveConfig("probe.sock", "probe.unitcache",
                                         false, ""));
        if (!server.start())
            die(6, "serve: cannot start the daemon");
        serve::Client client;
        if (!client.connect("probe.sock"))
            die(6, "serve: cannot connect");
        const std::int64_t ready = monotonicNs();
        client.close();
        stopWhenIdle(server);
        std::cout << "{\"ready_ns\":" << ready
                  << ",\"main_ns\":" << mainStartNs << "}\n";
        return 0;
    }
    campaign::ScenarioGrid grid = campaignGrid(args.workload, args.tiny);
    grid.seeds = {seedPlan(args.seed, args.workload, 1)[0]};
    campaign::CampaignOptions options =
        campaignOptions(args.workload, Sinks::Workload, repFiles("probe"));
    options.spanOut = "probe.spans.jsonl";
    campaign::runCampaign(grid, options);
    std::cout << "{\"spans\":" << quote(options.spanOut)
              << ",\"main_ns\":" << mainStartNs << "}\n";
    return 0;
}

int
runInputs(const Args &args)
{
    if (args.workload != Workload::ServePlan) {
        campaign::ScenarioGrid grid =
            campaignGrid(args.workload, args.tiny);
        std::cout << "grid " << campaign::gridSignature(grid) << "\n";
        for (const auto s : seedPlan(args.seed, args.workload, 2 * kRefPool))
            std::cout << "rep seed " << s << "\n";
        return 0;
    }
    std::size_t warmup = 0;
    const auto reqs = serveSchedule(args.seed, 2.0, warmup);
    for (std::size_t i = 0; i < reqs.size(); ++i)
        std::cout << (i < warmup ? "warmup " : "timed ") << num(reqs[i].dueS)
                  << " " << kindName(reqs[i].kind) << " nodes "
                  << reqs[i].query.nodesPerUnit << " "
                  << campaign::gridSignature(reqs[i].query.grid) << "\n";
    return 0;
}

int
runFreeze(const Args &args)
{
    const bool mppt = args.gridName == "mppt";
    if (!mppt && args.gridName != "full")
        die(2, "--grid must be full or mppt");
    const std::string kernel = pv::pvKernelName(pv::detectPvKernel());
    std::cout << "# SolarCore benchmark reference: grid=" << args.gridName
              << " kernel=" << kernel
              << ". Per unit seed: FNV-1a64 of the whole summary, its"
                 " aggregates, and FNV-1a32 of every unit row in grid order.\n";
    for (int seed = 1; seed <= kRefPool; ++seed) {
        campaign::ScenarioGrid grid = referenceGrid(mppt);
        grid.seeds = {static_cast<std::uint64_t>(seed)};
        campaign::CampaignOptions o;
        o.obs.audit = obs::AuditMode::Count;
        o.threads = std::min(hostCpus(), kCampaignThreads);
        const auto outcome = campaign::runCampaign(grid, o);
        std::ostringstream summary;
        campaign::writeSummaryJson(summary, grid, outcome);
        const std::string text = summary.str();
        const Aggregates agg = summaryAggregates(text);
        std::cout << "seed " << seed << " summary " << hex(fnv1a64(text), 16)
                  << " util " << num(agg.meanUtilization) << " ptp "
                  << num(agg.ptpShare) << " retracks " << num(agg.retracks)
                  << " rows ";
        for (const auto &row : summaryRows(text))
            std::cout << hex(fnv1a32(row.second), 8);
        std::cout << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    mainStartNs = monotonicNs();
    const Args args = parseArgs(argc, argv);
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release")
        die(3, std::string("refusing a non-Release build (") +
                PERFBENCH_BUILD_TYPE + ")");
    if (args.command == "freeze")
        return runFreeze(args);
    if (!args.haveWorkload)
        die(2, "--workload is required");
    if (args.command == "inputs")
        return runInputs(args);
    if (args.tmp.empty() || args.refDir.empty())
        die(2, "--tmp and --ref-dir are required");
    if (chdir(args.tmp.c_str()) != 0)
        die(2, "cannot enter " + args.tmp);
    if (args.command == "probe")
        return runProbe(args);
    if (args.command != "run")
        die(2, "unknown command " + args.command);
    return args.workload == Workload::ServePlan ? runServeWorkload(args)
                                                : runCampaignWorkload(args);
}
