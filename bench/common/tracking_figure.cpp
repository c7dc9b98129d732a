#include "tracking_figure.hpp"

#include <iostream>
#include <memory>

#include "obs/manifest.hpp"
#include "obs/stats_registry.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace solarcore::bench {

void
printTrackingFigure(solar::SiteId site, solar::Month month,
                    const char *figure_name, bool csv, int threads,
                    const obs::ObsOptions *obs)
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

    // Warm the shared trace cache before fanning out; results land in
    // index-addressed slots. Observability follows the same pattern:
    // per-worker registries and trace buffers, merged below in
    // task-index order, keep every output byte-identical at any
    // thread count.
    standardTrace(site, month);
    const bool want_stats = obs && obs->statsRequested();
    const bool want_trace = obs && obs->traceRequested();
    core::DayResult results[3];
    std::unique_ptr<obs::StatsRegistry> regs[3];
    std::unique_ptr<obs::TraceBuffer> tbufs[3];
    ThreadPool pool(threads);
    pool.parallelFor(3, [&](std::size_t i) {
        if (want_stats)
            regs[i] = std::make_unique<obs::StatsRegistry>();
        if (want_trace)
            tbufs[i] =
                std::make_unique<obs::TraceBuffer>(obs->traceBufferCap);
        results[i] = runDay(site, month, wls[i], core::PolicyKind::MpptOpt,
                            75.0, /*timeline=*/true, /*dt=*/15.0,
                            regs[i].get(), tbufs[i].get());
    });

    if (obs && obs->anyRequested()) {
        if (want_stats) {
            obs::StatsRegistry merged;
            for (const auto &r : regs)
                merged.merge(*r);
            obs->writeStats(merged);
        }
        if (want_trace) {
            obs->writeTrace(
                obs::mergeBuffers(
                    {tbufs[0].get(), tbufs[1].get(), tbufs[2].get()}),
                {"H1", "HM2", "L1"});
        }
        manifest.set("site", std::string(solar::siteName(site)));
        manifest.set("month", std::string(solar::monthName(month)));
        manifest.set("threads",
                     static_cast<std::uint64_t>(pool.threadCount()));
        manifest.set("policy",
                     std::string(core::policyName(
                         core::PolicyKind::MpptOpt)));
        manifest.setSeed(kBenchSeed);
        obs->writeManifest(manifest);
    }

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

} // namespace solarcore::bench
