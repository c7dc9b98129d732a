/**
 * @file
 * Fixed-budget throughput maximization (the paper's Fixed-Power
 * baseline, Table 6, and the allocator inside the battery baselines).
 *
 * The paper solves this with linear programming; our per-core levels
 * are discrete (gate, or one of six V/F points), so we solve the
 * problem exactly with dynamic programming over a discretized power
 * axis -- at least as strong a baseline as the LP relaxation.
 *
 * The DP walks the cores in order and keeps, per core layer, only its
 * Pareto frontier: the states (power units, throughput) whose
 * throughput strictly beats every cheaper state's. Since FP addition
 * is monotone, a dominated state can neither lie on the optimal path
 * nor win a tie on it, so relaxing only the frontier returns exactly
 * what a dense DP over every budget unit returns, and its cost scales
 * with the frontier rather than with budget / resolution. Tests check
 * it bit for bit against that dense DP on random chips, and against
 * brute force on small instances.
 */

#ifndef SOLARCORE_CORE_FIXED_POWER_HPP
#define SOLARCORE_CORE_FIXED_POWER_HPP

#include <vector>

#include "cpu/chip.hpp"

namespace solarcore::core {

/** Result of a fixed-budget allocation. */
struct AllocationResult
{
    std::vector<cpu::MultiCoreChip::CoreSetting> settings;
    double powerW = 0.0;       //!< chip power of the allocation
    double throughput = 0.0;   //!< instruction rate of the allocation
    bool feasible = false;     //!< false if even all-gated exceeds budget
};

/**
 * Choose per-core levels maximizing total throughput subject to total
 * power <= @p budget_w, using the cores' current phases. A core may be
 * gated only when the chip allows PCPG (MultiCoreChip::gatingAllowed).
 *
 * @param chip        chip whose cores/phases to optimize (not mutated)
 * @param budget_w    power budget [W]; NaN or <= 0 is infeasible, and
 *                    a budget beyond the chip's all-max draw costs no
 *                    more than that draw
 * @param power_res_w DP power resolution [W]; power values are rounded
 *                    up to the grid so the budget is never exceeded
 */
AllocationResult optimizeAllocation(const cpu::MultiCoreChip &chip,
                                    double budget_w,
                                    double power_res_w = 0.1);

/**
 * Exhaustive reference optimizer for testing; cost grows as
 * (levels+1)^cores, use only for small chips.
 */
AllocationResult bruteForceAllocation(const cpu::MultiCoreChip &chip,
                                      double budget_w);

/** Apply an allocation to the chip. */
void applyAllocation(cpu::MultiCoreChip &chip, const AllocationResult &alloc);

} // namespace solarcore::core

#endif // SOLARCORE_CORE_FIXED_POWER_HPP
