/**
 * @file
 * Shared sweep for the Figure 16/17 reproductions: for every site,
 * month and fixed power budget in {25..125} W, run the Fixed-Power
 * baseline and normalize its solar energy and PTP to the SolarCore
 * (MPPT&Opt) run of the same cell, averaged over a representative
 * workload set.
 */

#ifndef SOLARCORE_BENCH_FIXED_BUDGET_SWEEP_HPP
#define SOLARCORE_BENCH_FIXED_BUDGET_SWEEP_HPP

#include <array>
#include <vector>

#include "common/bench_common.hpp"

namespace solarcore::bench {

/** The swept budgets of Figures 15-17 [W]. */
inline constexpr std::array<double, 5> kFixedBudgets = {25.0, 50.0, 75.0,
                                                        100.0, 125.0};

/** Workloads averaged in the sweep (one per Table 5 class pattern). */
std::vector<workload::WorkloadId> sweepWorkloads();

/** One cell of the sweep. */
struct FixedSweepCell
{
    solar::SiteId site;
    solar::Month month;
    double budgetW = 0.0;
    double normalizedEnergy = 0.0; //!< vs SolarCore, same cell
    double normalizedPtp = 0.0;    //!< vs SolarCore, same cell
};

/**
 * Run the full sweep. Site-month cells are independent, so they fan
 * across @p threads pool workers, and cells are assembled in index
 * order so the output is byte-identical for any thread count.
 */
std::vector<FixedSweepCell> runFixedBudgetSweep(int threads = 1);

/**
 * Print the sweep as one table per site with months as row groups,
 * selecting the @p energy (true) or PTP (false) column.
 */
void printFixedSweep(const std::vector<FixedSweepCell> &cells, bool energy);

} // namespace solarcore::bench

#endif // SOLARCORE_BENCH_FIXED_BUDGET_SWEEP_HPP
