/**
 * @file
 * solarcore_campaign: run a scenario campaign over the full
 * site x month x policy x workload x seed grid (or any slice of it),
 * sharded across a thread pool, and emit one deterministic summary
 * JSON -- the input side of the golden-baseline regression gate.
 *
 *   solarcore_campaign --preset=smoke --threads=4 --out=smoke.json
 *   solarcore_campaign --sites=AZ,CO --months=Jan,Jul \
 *       --policies=opt,fixed,battery --workloads=H1,HM2 --seeds=1,2 \
 *       --dt=30 --journal=run.journal --out=summary.json
 *   solarcore_campaign ... --journal=run.journal --resume   # continue
 *
 * The summary is byte-identical for any --threads value, and a
 * resumed campaign reproduces the uninterrupted summary exactly; see
 * DESIGN.md section "Campaigns and golden baselines".
 *
 * Options:
 *   --preset=smoke|fig13|fig14|full   start from a named grid
 *   --sites= --months= --policies= --workloads= --seeds=  (comma lists)
 *   --dt=SECONDS --budget=W --derating=F --period=MINUTES
 *   --pv-kernel=auto|scalar|avx2 (batch MPP kernel; "auto" dispatches
 *     on the CPU, "scalar" is the per-lane findMpp path)
 *   --threads=N (0 = all hardware threads)
 *   --workers=N  fork N worker processes, each running a contiguous
 *     shard of the unit list over its own --threads pool; the summary
 *     stays byte-identical to --workers=1. --threads, --workers and
 *     their product are each at most ThreadPool::maxThreads() (16 per
 *     hardware thread).
 *   --unit-cache=DIR --unit-cache-cap=N   persistent on-disk LRU of
 *     unit results; warm re-runs and overlapping grids skip simulation
 *   --out=FILE (default stdout)  --journal=FILE  --resume  --verbose
 *   --stats-out= --trace-out= --trace-buffer= --manifest-out=
 *   --telemetry-out= --telemetry-every= --telemetry-mode=
 *   --profile-out= --audit= --audit-out=
 *   --status-out=FILE   run-health status.json heartbeat (watch it
 *     live with tools/solarcore_top)
 *   --metrics-out=FILE --metrics-port=N   OpenMetrics exposition
 *     (file snapshot / embedded 127.0.0.1 scrape endpoint)
 *   --postmortem-out=FILE   crash flight recorder (postmortem.json)
 *
 * Campaigns audit invariants in counting mode by default (--audit=off
 * to disable); each unit's violation count lands in the summary, so
 * the golden gate also asserts "zero invariant violations".
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "campaign/campaign.hpp"
#include "obs/span.hpp"
#include "pv/pv_kernel.hpp"
#include "util/parse_number.hpp"
#include "util/thread_pool.hpp"

using namespace solarcore;

namespace {

[[noreturn]] void
usage(const char *complaint = nullptr)
{
    if (complaint)
        std::cerr << "solarcore_campaign: " << complaint << "\n";
    std::cerr
        << "usage: solarcore_campaign [--preset=smoke|fig13|fig14|full]\n"
           "  [--sites=AZ,CO,NC,TN] [--months=Jan,Apr,Jul,Oct]\n"
           "  [--policies=opt,rr,ic,icm,fixed,battery]\n"
           "  [--workloads=H1,...] [--seeds=1,2,...]\n"
           "  [--dt=SECONDS] [--budget=W] [--derating=F] "
           "[--period=MIN]\n"
           "  [--pv-kernel=auto|scalar|avx2]\n"
           "  [--threads=N] [--workers=N] [--out=FILE]\n"
           "  [--unit-cache=DIR] [--unit-cache-cap=N]\n"
           "  [--journal=FILE] [--resume]\n"
           "  [--verbose] [--stats-out=F] [--trace-out=F] "
           "[--trace-buffer=N] [--manifest-out=F]\n"
           "  [--telemetry-out=F.csv] [--telemetry-every=N] "
           "[--telemetry-mode=every|minmax]\n"
           "  [--profile-out=F.json] [--audit=off|count|strict "
           "(default count)] [--audit-out=F.json]\n"
           "  [--status-out=F.json] [--metrics-out=F] "
           "[--metrics-port=N] [--postmortem-out=F.json]\n"
           "  [--span-out=F.jsonl] [--span-perfetto=F.json] "
           "[--trace-id=HEXID]\n";
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
    campaign::ScenarioGrid grid;
    // Default slice: the paper's headline grid at the bench step size.
    campaign::applyPreset("full", grid);

    campaign::CampaignOptions options;
    // Campaigns are the regression gate, so invariants are counted by
    // default; --audit=off restores the unaudited fast path.
    options.obs.audit = obs::AuditMode::Count;
    std::string out_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (options.obs.consume(arg))
            continue;
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "--preset") {
            if (!campaign::applyPreset(value, grid))
                usage("unknown preset");
        } else if (key == "--sites") {
            if (!campaign::parseSiteList(value, grid.sites))
                usage("bad --sites list");
        } else if (key == "--months") {
            if (!campaign::parseMonthList(value, grid.months))
                usage("bad --months list");
        } else if (key == "--policies") {
            if (!campaign::parsePolicyList(value, grid.policies))
                usage("bad --policies list");
        } else if (key == "--workloads") {
            if (!campaign::parseWorkloadList(value, grid.workloads))
                usage("bad --workloads list");
        } else if (key == "--seeds") {
            if (!campaign::parseSeedList(value, grid.seeds))
                usage("bad --seeds list");
        } else if (key == "--dt") {
            grid.dtSeconds = numberFlag<double>(key, value);
        } else if (key == "--budget") {
            grid.fixedBudgetW = numberFlag<double>(key, value);
        } else if (key == "--derating") {
            grid.batteryDerating = numberFlag<double>(key, value);
        } else if (key == "--period") {
            grid.trackingPeriodMinutes = numberFlag<double>(key, value);
        } else if (key == "--pv-kernel") {
            if (!pv::resolvePvKernel(value))
                usage("bad --pv-kernel (want auto|scalar|avx2, "
                      "supported on this cpu)");
            grid.pvKernel = value;
        } else if (key == "--threads") {
            options.threads = numberFlag<int>(key, value);
        } else if (key == "--workers") {
            options.workers = numberFlag<int>(key, value);
        } else if (key == "--unit-cache") {
            options.unitCacheDir = value;
        } else if (key == "--unit-cache-cap") {
            options.unitCacheCap = numberFlag<std::size_t>(key, value);
        } else if (key == "--out") {
            out_path = value;
        } else if (key == "--journal") {
            options.journalPath = value;
        } else if (key == "--resume") {
            options.resume = true;
        } else if (key == "--verbose") {
            options.verbose = true;
        } else if (key == "--status-out") {
            options.statusPath = value;
        } else if (key == "--span-out") {
            options.spanOut = value;
        } else if (key == "--span-perfetto") {
            options.spanPerfettoOut = value;
        } else if (key == "--trace-id") {
            if (!obs::parseSpanIdHex(value, options.traceId) ||
                options.traceId == 0)
                usage("bad --trace-id (expected 1..16 hex digits)");
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (const std::string error = campaign::validateGrid(grid);
        !error.empty())
        usage(error.c_str());
    // One thread cap for the pool, the worker count and every worker's
    // pool together; 0 threads means all hardware threads.
    const std::int64_t cap = ThreadPool::maxThreads();
    const std::int64_t threads =
        options.threads == 0 ? ThreadPool::hardwareThreads()
                             : options.threads;
    const std::int64_t workers = std::max(1, options.workers);
    const std::string over = " above the thread cap of " +
        std::to_string(cap) + " (" +
        std::to_string(ThreadPool::kThreadsPerHardwareThread) +
        " per hardware thread)";
    if (threads > cap)
        usage(("--threads" + over).c_str());
    if (workers > cap)
        usage(("--workers" + over).c_str());
    if (threads * workers > cap)
        usage(("--workers x --threads" + over).c_str());

    std::cerr << "campaign: " << grid.unitCount() << " units\n";
    const auto outcome = campaign::runCampaign(grid, options);
    std::cerr << "campaign: " << outcome.unitsRun << " run, "
              << outcome.unitsResumed << " resumed from journal, "
              << outcome.unitsCached << " cached\n";
    if (outcome.workerCrashes > 0)
        std::cerr << "campaign: " << outcome.workerCrashes
                  << " worker crash(es); shards were re-run\n";

    if (out_path.empty()) {
        campaign::writeSummaryJson(std::cout, grid, outcome);
        return 0;
    }
    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "solarcore_campaign: cannot open '" << out_path
                  << "'\n";
        return 1;
    }
    campaign::writeSummaryJson(out, grid, outcome);
    std::cerr << "campaign: summary written to " << out_path << "\n";
    return 0;
}
