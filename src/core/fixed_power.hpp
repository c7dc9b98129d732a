/**
 * @file
 * Fixed-budget throughput maximization (the paper's Fixed-Power
 * baseline, Table 6, and the allocator inside the battery baselines).
 *
 * The paper solves this with linear programming; our per-core levels
 * are discrete (gate, or one of six V/F points), so we solve the
 * problem exactly with dynamic programming over a discretized power
 * axis -- at least as strong a baseline as the LP relaxation. The LP
 * now serves as the DP's bound.
 *
 * The DP walks the cores in order and keeps, per core layer, only its
 * Pareto frontier: the states (power units, throughput) whose
 * throughput strictly beats every cheaper state's. Since FP addition
 * is monotone, a dominated state can neither lie on the optimal path
 * nor win a tie on it, so relaxing only the frontier returns exactly
 * what a dense DP over every budget unit returns, and its cost scales
 * with the frontier rather than with budget / resolution.
 *
 * Branch and bound then skips most of the frontier:
 *  - Each core's choices, as (cost units, throughput) points, give an
 *    upper concave hull that starts at its base choice: the cheapest,
 *    with the best throughput among equal costs.
 *  - UB_i(r), the LP relaxation of cores i..n-1 on r units, is their
 *    base throughputs plus their hull segments taken by falling slope,
 *    the last one fractionally.
 *  - LB is a feasible allocation: every core's base choice, plus the
 *    segments that fit, by falling slope; a core stops at its first
 *    segment that does not fit. It is summed in core order, the fold
 *    the DP uses for path values, so LB <= the DP's optimum. When the
 *    base choices alone exceed the budget, nothing is feasible.
 *  - A state (u, t) of layer i is relaxed only if
 *    t + UB_i(limit - u) >= LB - 1e-9 * P, where P is the sum of every
 *    core's best throughput. A target that leaves the later cores less
 *    than their base cost is not written.
 *
 * Why the result is the dense DP's, bit for bit:
 *  - Every relaxation the pruned DP makes, the dense DP makes too, from
 *    a source whose value is no higher; FP addition is monotone, so no
 *    cell of the pruned DP ever holds more than the dense cell.
 *  - The states on the dense DP's chosen path are never pruned: the
 *    path's prefix value plus its completion is the optimum, which is
 *    >= LB, and UB bounds the completion. Every path value is at most
 *    P, so rounding is far below the margin. Without the margin the
 *    path can fall an ulp short of LB and be cut.
 *  - So each cell on the path gets the same winner as in the dense DP:
 *    every relaxation ahead of it in the dense order was already below
 *    its value there and can only be lower here, and none after it can
 *    beat it. Each stays on the frontier, because every cheaper dense
 *    cell is strictly below it (else a cheaper path would reach the
 *    optimum at fewer units) and pruned cells are no higher.
 *  - A state may newly appear on a frontier when the cheaper state that
 *    dominated it was pruned; it is no better than that dense state, so
 *    none of its descendants reaches the optimum at the optimum's units
 *    or fewer or takes a cell on the path. Ties resolve as before, and
 *    the final frontier ends at the dense DP's end state.
 *
 * Tests check the allocator bit for bit against that dense DP on random
 * chips (FixedPower.FrontierMatchesDenseDpBitwise), and against brute
 * force on small instances.
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
