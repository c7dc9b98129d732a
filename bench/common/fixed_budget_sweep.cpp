#include "fixed_budget_sweep.hpp"

#include <iostream>

#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace solarcore::bench {

std::vector<workload::WorkloadId>
sweepWorkloads()
{
    // One homogeneous set per EPI class plus two heterogeneous mixes.
    return {workload::WorkloadId::H1, workload::WorkloadId::M2,
            workload::WorkloadId::L1, workload::WorkloadId::HM2,
            workload::WorkloadId::ML2};
}

std::vector<FixedSweepCell>
runFixedBudgetSweep(int threads)
{
    const auto wls = sweepWorkloads();
    const auto site_months = solar::allSiteMonths();

    // One task per site-month: tasks only write their own result slot.
    std::vector<std::vector<FixedSweepCell>> per_task(site_months.size());
    ThreadPool pool(threads);
    pool.parallelFor(site_months.size(), [&](std::size_t task) {
        const auto [site, month] = site_months[task];

        // SolarCore reference per workload.
        std::vector<core::DayResult> refs;
        refs.reserve(wls.size());
        for (auto wl : wls)
            refs.push_back(runDay(site, month, wl,
                                  core::PolicyKind::MpptOpt, 75.0, false,
                                  kBenchDtSeconds));

        for (double budget : kFixedBudgets) {
            FixedSweepCell cell;
            cell.site = site;
            cell.month = month;
            cell.budgetW = budget;
            RunningStats e;
            RunningStats p;
            for (std::size_t i = 0; i < wls.size(); ++i) {
                const auto r = runDay(site, month, wls[i],
                                      core::PolicyKind::FixedPower, budget,
                                      false, kBenchDtSeconds);
                e.add(refs[i].solarEnergyWh > 0.0
                          ? r.solarEnergyWh / refs[i].solarEnergyWh
                          : 0.0);
                p.add(refs[i].solarInstructions > 0.0
                          ? r.solarInstructions / refs[i].solarInstructions
                          : 0.0);
            }
            cell.normalizedEnergy = e.mean();
            cell.normalizedPtp = p.mean();
            per_task[task].push_back(cell);
        }
    });

    // Deterministic aggregation: flatten in task-index order.
    std::vector<FixedSweepCell> cells;
    cells.reserve(site_months.size() * kFixedBudgets.size());
    for (const auto &task_cells : per_task)
        cells.insert(cells.end(), task_cells.begin(), task_cells.end());
    return cells;
}

void
printFixedSweep(const std::vector<FixedSweepCell> &cells, bool energy)
{
    for (auto site : solar::allSites()) {
        printBanner(std::cout,
                    std::string(energy ? "normalized solar energy"
                                       : "normalized PTP") +
                        " under fixed budgets -- " +
                        solar::siteInfo(site).location);
        TextTable t;
        t.header({"month", "25W", "50W", "75W", "100W", "125W", "best"});
        for (auto month : solar::allMonths()) {
            std::vector<std::string> row{solar::monthName(month)};
            double best = 0.0;
            for (const auto &c : cells) {
                if (c.site != site || c.month != month)
                    continue;
                const double v =
                    energy ? c.normalizedEnergy : c.normalizedPtp;
                row.push_back(TextTable::num(v, 2));
                best = std::max(best, v);
            }
            row.push_back(TextTable::num(best, 2));
            t.row(std::move(row));
        }
        t.print(std::cout);
    }

    // Headline: the best fixed budget anywhere.
    double best_any = 0.0;
    for (const auto &c : cells)
        best_any = std::max(best_any,
                            energy ? c.normalizedEnergy : c.normalizedPtp);
    std::cout << "\nbest fixed-budget cell overall: "
              << TextTable::num(best_any, 2)
              << " of SolarCore (paper: < 0.70 => SolarCore wins by at "
                 "least 43%)\n";
}

} // namespace solarcore::bench
