#include "tracking_figure.hpp"

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string_view>

#include "obs/manifest.hpp"
#include "obs/recorders.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace solarcore::bench {

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << argv0
              << ": a figure serves no metrics and arms no flight "
                 "recorder\n"
              << "usage: " << argv0
              << " [--csv] [--threads=N] [--stats-out=FILE]\n"
                 "    [--trace-out=FILE] [--trace-buffer=N] "
                 "[--manifest-out=FILE]\n"
                 "    [--telemetry-out=FILE] [--telemetry-every=N] "
                 "[--telemetry-mode=every|minmax]\n"
                 "    [--profile-out=FILE] [--audit=off|count|strict] "
                 "[--audit-out=FILE]\n";
    std::exit(2);
}

void
printTrackingFigure(solar::SiteId site, solar::Month month,
                    const char *figure_name, bool csv, int threads,
                    const obs::ObsOptions &opts)
{
    const workload::WorkloadId wls[] = {workload::WorkloadId::H1,
                                        workload::WorkloadId::HM2,
                                        workload::WorkloadId::L1};

    obs::RunManifest manifest(figure_name);

    if (!csv) {
        printBanner(std::cout,
                    std::string(figure_name) +
                        ": MPP tracking accuracy (" +
                        siteMonthLabel(site, month) +
                        "), budget vs consumption [W]");
    }

    // Warm the shared trace cache before fanning out; results and
    // recorders land in index-addressed slots, and the recorders merge
    // in task order, so every output is byte-identical at any thread
    // count.
    standardTrace(site, month);
    core::DayResult results[3];
    obs::Recorders recs[3];
    ThreadPool pool(threads);
    pool.parallelFor(3, [&](std::size_t i) {
        recs[i] = obs::Recorders(opts);
        std::optional<obs::Profiler::Attach> attach;
        if (recs[i].profiler)
            attach.emplace(recs[i].profiler.get());
        results[i] = runDay(site, month, wls[i], core::PolicyKind::MpptOpt,
                            75.0, /*timeline=*/true, /*dt=*/15.0,
                            &recs[i]);
        recs[i].foldAudit();
    });

    obs::StatsRegistry stats;
    obs::writeRun(opts, recs, {"H1", "HM2", "L1"},
                  obs::TelemetryLayout::Tasks, stats, manifest);
    manifest.set("site", std::string(solar::siteName(site)));
    manifest.set("month", std::string(solar::monthName(month)));
    manifest.set("threads", static_cast<std::uint64_t>(pool.threadCount()));
    manifest.set("policy",
                 std::string(core::policyName(core::PolicyKind::MpptOpt)));
    manifest.setSeed(kBenchSeed);
    opts.writeManifest(manifest);

    TextTable t;
    t.header({"minute", "budget", "H1 drawn", "HM2 drawn", "L1 drawn"});
    const auto &ref = results[0].timeline;
    const std::size_t stride = csv ? 1 : 10;
    for (std::size_t i = 0; i < ref.size(); i += stride) {
        std::vector<std::string> row{
            TextTable::num(ref[i].minute - ref.front().minute, 0),
            TextTable::num(ref[i].budgetW, 1)};
        for (const auto &r : results) {
            row.push_back(i < r.timeline.size()
                              ? TextTable::num(r.timeline[i].consumedW, 1)
                              : "-");
        }
        t.row(std::move(row));
    }
    if (csv) {
        t.printCsv(std::cout);
        return;
    }
    t.print(std::cout);

    printBanner(std::cout, "day summary");
    TextTable s;
    s.header({"workload", "utilization", "avg rel. error",
              "effective duration"});
    for (int i = 0; i < 3; ++i) {
        s.row({workload::workloadName(wls[i]),
               TextTable::pct(results[i].utilization),
               TextTable::pct(results[i].avgTrackingError),
               TextTable::pct(results[i].effectiveFraction)});
    }
    s.print(std::cout);
    std::cout << "paper: consumption closely follows the budget; H1 "
                 "ripples hardest, L1 and heterogeneous mixes are "
                 "smoother.\n";
}

} // namespace

int
trackingFigureMain(int argc, char **argv, solar::SiteId site,
                   solar::Month month, const char *figure_name)
{
    bool csv = false;
    obs::ObsOptions opts;
    for (int i = 1; i < argc; ++i) {
        csv = csv || std::string_view(argv[i]) == "--csv";
        opts.consume(argv[i]);
    }
    if (opts.metricsRequested() || opts.postmortemRequested())
        usage(argv[0]);
    printTrackingFigure(site, month, figure_name, csv,
                        threadsFromArgs(argc, argv), opts);
    return 0;
}

} // namespace solarcore::bench
