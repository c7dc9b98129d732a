/**
 * @file
 * Tests for the fixed-budget allocation optimizer: a cross-check of
 * the DP against exhaustive search, and a bitwise differential test of
 * the Pareto-frontier DP against the dense-grid DP it replaced.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "core/fixed_power.hpp"
#include "util/logging.hpp"
#include "workload/multiprogram.hpp"

namespace solarcore::core {
namespace {

/** One selectable state of a core: gated or a DVFS level. */
struct Choice
{
    cpu::MultiCoreChip::CoreSetting setting;
    double powerW = 0.0;
    double throughput = 0.0;
};

/** The allocator's choice list: gated (when PCPG allows), then levels. */
std::vector<Choice>
coreChoices(const cpu::MultiCoreChip &chip, int index)
{
    std::vector<Choice> out;
    const auto &table = chip.dvfs();
    const cpu::Core &c = chip.core(index);

    if (chip.gatingAllowed()) {
        Choice gated;
        gated.setting = {table.minLevel(), true};
        gated.powerW = chip.powerModel().gatedPower().totalW();
        gated.throughput = 0.0;
        out.push_back(gated);
    }

    for (int l = table.minLevel(); l <= table.maxLevel(); ++l) {
        Choice ch;
        ch.setting = {l, false};
        ch.powerW = c.powerAtLevel(l);
        ch.throughput = c.throughputAtLevel(l);
        out.push_back(ch);
    }
    return out;
}

/**
 * Test oracle: the dense-grid DP that optimizeAllocation used before
 * the Pareto frontier, kept verbatim. It visits every budget unit of
 * every core layer, so its cost grows with budget / resolution.
 */
AllocationResult
denseReference(const cpu::MultiCoreChip &chip, double budget_w,
               double power_res_w = 0.1)
{
    SC_ASSERT(power_res_w > 0.0, "optimizeAllocation: bad resolution");
    AllocationResult res;
    if (budget_w <= 0.0)
        return res;

    const int n = chip.numCores();
    const int budget_units =
        static_cast<int>(std::floor(budget_w / power_res_w));
    if (budget_units <= 0)
        return res;

    constexpr double kNegInf = -std::numeric_limits<double>::infinity();

    // dp[u]: best throughput with the cores processed so far consuming
    // at most u power units; choice[i][u] reconstructs the argmax.
    std::vector<double> dp(static_cast<std::size_t>(budget_units) + 1,
                           kNegInf);
    dp[0] = 0.0;
    std::vector<std::vector<int>> choice_at(
        static_cast<std::size_t>(n),
        std::vector<int>(static_cast<std::size_t>(budget_units) + 1, -1));
    std::vector<std::vector<Choice>> choices;
    choices.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        choices.push_back(coreChoices(chip, i));

    for (int i = 0; i < n; ++i) {
        std::vector<double> next(dp.size(), kNegInf);
        for (int u = 0; u <= budget_units; ++u) {
            if (dp[static_cast<std::size_t>(u)] == kNegInf)
                continue;
            for (std::size_t c = 0; c < choices[i].size(); ++c) {
                const auto &ch = choices[static_cast<std::size_t>(i)][c];
                // Round power up so the grid never under-counts.
                const int cost = static_cast<int>(
                    std::ceil(ch.powerW / power_res_w - 1e-12));
                const int u2 = u + cost;
                if (u2 > budget_units)
                    continue;
                const double t =
                    dp[static_cast<std::size_t>(u)] + ch.throughput;
                if (t > next[static_cast<std::size_t>(u2)]) {
                    next[static_cast<std::size_t>(u2)] = t;
                    choice_at[static_cast<std::size_t>(i)]
                             [static_cast<std::size_t>(u2)] =
                                 static_cast<int>(c);
                }
            }
        }
        dp.swap(next);
    }

    // Best end state.
    int best_u = -1;
    double best_t = kNegInf;
    for (int u = 0; u <= budget_units; ++u) {
        if (dp[static_cast<std::size_t>(u)] > best_t) {
            best_t = dp[static_cast<std::size_t>(u)];
            best_u = u;
        }
    }
    if (best_u < 0 || best_t == kNegInf)
        return res; // even all-gated does not fit

    // Walk the choices backwards. choice_at[i][u] was only recorded for
    // the u that the dp actually reached, so recompute by re-running
    // the backward reconstruction.
    res.settings.resize(static_cast<std::size_t>(n));
    int u = best_u;
    for (int i = n - 1; i >= 0; --i) {
        const int c = choice_at[static_cast<std::size_t>(i)]
                               [static_cast<std::size_t>(u)];
        SC_ASSERT(c >= 0, "optimizeAllocation: broken DP path");
        const auto &ch =
            choices[static_cast<std::size_t>(i)][static_cast<std::size_t>(c)];
        res.settings[static_cast<std::size_t>(i)] = ch.setting;
        res.powerW += ch.powerW;
        res.throughput += ch.throughput;
        const int cost =
            static_cast<int>(std::ceil(ch.powerW / power_res_w - 1e-12));
        u -= cost;
    }
    SC_ASSERT(u >= 0, "optimizeAllocation: negative residual budget");
    res.feasible = true;
    return res;
}

bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Empty when @p a and @p b are the same allocation, bit for bit. */
std::string
allocationMismatch(const AllocationResult &a, const AllocationResult &b)
{
    if (a.feasible != b.feasible)
        return "feasible";
    if (a.settings.size() != b.settings.size())
        return "settings size";
    for (std::size_t i = 0; i < a.settings.size(); ++i)
        if (a.settings[i].level != b.settings[i].level ||
            a.settings[i].gated != b.settings[i].gated)
            return "setting of core " + std::to_string(i);
    if (!bitEqual(a.powerW, b.powerW))
        return "powerW";
    if (!bitEqual(a.throughput, b.throughput))
        return "throughput";
    return {};
}

cpu::MultiCoreChip
makeChip(workload::WorkloadId id, int cores = 8)
{
    auto cfg = cpu::defaultChipConfig();
    cfg.numCores = cores;
    auto profiles = workload::workloadSet(id);
    profiles.resize(static_cast<std::size_t>(cores),
                    profiles.empty() ? cpu::BenchmarkProfile{} : profiles[0]);
    return cpu::MultiCoreChip(cfg, cpu::DvfsTable::paperDefault(),
                              cpu::EnergyParams{}, std::move(profiles), 42);
}

TEST(FixedPower, RespectsBudget)
{
    auto chip = makeChip(workload::WorkloadId::HM2);
    for (double budget : {10.0, 30.0, 60.0, 100.0, 150.0, 300.0}) {
        const auto alloc = optimizeAllocation(chip, budget);
        ASSERT_TRUE(alloc.feasible) << budget;
        EXPECT_LE(alloc.powerW, budget + 1e-9) << budget;
    }
}

TEST(FixedPower, ThroughputMonotoneInBudget)
{
    auto chip = makeChip(workload::WorkloadId::M2);
    double prev = -1.0;
    for (double budget : {10.0, 25.0, 50.0, 75.0, 100.0, 150.0, 250.0}) {
        const auto alloc = optimizeAllocation(chip, budget);
        ASSERT_TRUE(alloc.feasible);
        EXPECT_GE(alloc.throughput, prev - 1e-6) << budget;
        prev = alloc.throughput;
    }
}

TEST(FixedPower, HugeBudgetRunsEverythingFlatOut)
{
    // A budget beyond what the chip can draw costs what the chip costs:
    // no grid sized by the budget, no int overflow at 1e9 W or +inf.
    auto chip = makeChip(workload::WorkloadId::L1);
    for (double budget :
         {1000.0, 1e6, 1e9, std::numeric_limits<double>::infinity()}) {
        const auto alloc = optimizeAllocation(chip, budget);
        ASSERT_TRUE(alloc.feasible) << budget;
        for (const auto &s : alloc.settings) {
            EXPECT_FALSE(s.gated) << budget;
            EXPECT_EQ(s.level, chip.dvfs().maxLevel()) << budget;
        }
    }
}

TEST(FixedPower, TinyBudgetGatesEverything)
{
    auto chip = makeChip(workload::WorkloadId::H1);
    const auto alloc = optimizeAllocation(chip, 1.0);
    ASSERT_TRUE(alloc.feasible);
    for (const auto &s : alloc.settings)
        EXPECT_TRUE(s.gated);
    EXPECT_DOUBLE_EQ(alloc.throughput, 0.0);
}

TEST(FixedPower, ZeroBudgetInfeasible)
{
    auto chip = makeChip(workload::WorkloadId::H1);
    EXPECT_FALSE(optimizeAllocation(chip, 0.0).feasible);
    EXPECT_FALSE(optimizeAllocation(chip, -5.0).feasible);
    EXPECT_FALSE(
        optimizeAllocation(chip, std::numeric_limits<double>::quiet_NaN())
            .feasible);
}

TEST(FixedPower, ApplyAllocationSetsChipState)
{
    auto chip = makeChip(workload::WorkloadId::HM1);
    const auto alloc = optimizeAllocation(chip, 70.0);
    ASSERT_TRUE(alloc.feasible);
    applyAllocation(chip, alloc);
    EXPECT_NEAR(chip.totalPower(), alloc.powerW, 1e-9);
    EXPECT_NEAR(chip.totalThroughput(), alloc.throughput,
                alloc.throughput * 1e-12);
}

TEST(FixedPower, DpMatchesBruteForceSmallChip)
{
    // 4 cores, 7 choices each: 2401 combinations -- exact comparison.
    auto chip = makeChip(workload::WorkloadId::ML2, 4);
    for (double budget : {15.0, 30.0, 45.0, 70.0, 120.0}) {
        const auto dp = optimizeAllocation(chip, budget, 0.01);
        const auto bf = bruteForceAllocation(chip, budget);
        ASSERT_EQ(dp.feasible, bf.feasible) << budget;
        if (!dp.feasible)
            continue;
        // The DP rounds power up to its grid, so it may forgo a
        // combination the exact search finds; with a fine grid the
        // throughput gap is bounded by one notch.
        EXPECT_LE(dp.throughput, bf.throughput + 1e-6) << budget;
        EXPECT_GE(dp.throughput, bf.throughput * 0.98) << budget;
    }
}

TEST(FixedPower, DpMatchesBruteForceHeterogeneous)
{
    auto chip = makeChip(workload::WorkloadId::HM2, 4);
    const auto dp = optimizeAllocation(chip, 55.0, 0.01);
    const auto bf = bruteForceAllocation(chip, 55.0);
    ASSERT_TRUE(dp.feasible && bf.feasible);
    EXPECT_GE(dp.throughput, bf.throughput * 0.98);
}

TEST(FixedPower, GatingForbiddenMatchesBruteForce)
{
    // Without PCPG neither optimizer may offer the gated state; below
    // the all-lowest-level power nothing fits at all.
    auto chip = makeChip(workload::WorkloadId::ML2, 4);
    chip.setGatingAllowed(false);
    const double floor_w = chip.minUngatedPower();
    for (double budget :
         {0.5 * floor_w, 15.0, 30.0, 45.0, 70.0, 120.0}) {
        const auto dp = optimizeAllocation(chip, budget, 0.01);
        const auto bf = bruteForceAllocation(chip, budget);
        ASSERT_EQ(dp.feasible, bf.feasible) << budget;
        ASSERT_EQ(dp.feasible, budget >= floor_w) << budget;
        if (!dp.feasible)
            continue;
        for (std::size_t i = 0; i < dp.settings.size(); ++i) {
            EXPECT_FALSE(dp.settings[i].gated) << budget;
            EXPECT_FALSE(bf.settings[i].gated) << budget;
        }
        EXPECT_LE(dp.powerW, budget) << budget;
        EXPECT_LE(dp.throughput, bf.throughput + 1e-6) << budget;
        EXPECT_GE(dp.throughput, bf.throughput * 0.98) << budget;
    }
}

/** Sum of every core's cheapest choice, in @p res grid units. */
int
cheapestUnits(const cpu::MultiCoreChip &chip, double res)
{
    int units = 0;
    for (int i = 0; i < chip.numCores(); ++i) {
        int bottom = std::numeric_limits<int>::max();
        for (const Choice &ch : coreChoices(chip, i))
            bottom = std::min(
                bottom, static_cast<int>(std::ceil(ch.powerW / res - 1e-12)));
        units += bottom;
    }
    return units;
}

TEST(FixedPower, FrontierMatchesDenseDpBitwise)
{
    // The allocator must return exactly the dense DP's allocation. Four
    // slices of inputs:
    //  - random chips, core states, DVFS tables, PCPG settings, budgets
    //    and resolutions; profiles repeat across cores, some chips share
    //    one die temperature, and coarse grids merge costs -- all to
    //    force ties, which only the dense DP's relaxation order
    //    resolves;
    //  - the campaign regime: 8 cores, the paper's table, 0.1 W,
    //    20-150 W, 40-95 C, PCPG on and off;
    //  - tie-saturated chips: one single-phase profile and one die
    //    temperature on every core, at every resolution;
    //  - budgets within 2 units of the cheapest allocation, where
    //    feasibility flips and the lower bound has at most 2 units
    //    beyond the base choices.
    std::mt19937_64 rng(0x5eedf1a7ull);
    auto uniform = [&rng](double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    auto pick = [&rng](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    const cpu::DvfsTable tables[] = {cpu::DvfsTable::paperDefault(),
                                     cpu::DvfsTable::interpolated(3),
                                     cpu::DvfsTable::interpolated(21)};
    const double resolutions[] = {0.01, 0.05, 0.1, 0.25, 1.0};
    int cases = 0;
    int mismatches = 0;
    auto check = [&](const char *slice, const cpu::MultiCoreChip &chip,
                     double budget, double res) {
        ++cases;
        const auto want = denseReference(chip, budget, res);
        const auto got = optimizeAllocation(chip, budget, res);
        const std::string diff = allocationMismatch(got, want);
        if (!diff.empty() && ++mismatches <= 5)
            ADD_FAILURE() << slice << " case " << cases << ": " << diff
                          << " differs (" << chip.numCores() << " cores, "
                          << chip.dvfs().numLevels() << " levels, budget "
                          << budget << " W, res " << res << " W)";
        return want.feasible;
    };

    for (int k = 0; k < 3000; ++k) {
        const int cores = pick(1, 12);
        const auto set = workload::workloadSet(
            static_cast<workload::WorkloadId>(
                pick(0, workload::kNumWorkloads - 1)));
        const int distinct = pick(1, cores);
        std::vector<cpu::BenchmarkProfile> palette;
        for (int j = 0; j < distinct; ++j)
            palette.push_back(set[static_cast<std::size_t>(
                pick(0, static_cast<int>(set.size()) - 1))]);
        std::vector<cpu::BenchmarkProfile> profiles;
        for (int i = 0; i < cores; ++i)
            profiles.push_back(
                palette[static_cast<std::size_t>(i % distinct)]);

        auto cfg = cpu::defaultChipConfig();
        cfg.numCores = cores;
        const auto &table = tables[pick(0, 2)];
        cpu::MultiCoreChip chip(cfg, table, cpu::EnergyParams{},
                                std::move(profiles),
                                static_cast<std::uint64_t>(k));
        chip.step(uniform(0.0, 600.0));
        chip.setGatingAllowed(pick(0, 3) != 0);
        const bool shared_temp = pick(0, 1) == 0;
        const double temp = uniform(40.0, 95.0);
        for (int i = 0; i < cores; ++i)
            chip.core(i).setDieTempC(shared_temp ? temp
                                                 : uniform(40.0, 95.0));

        const double budget = pick(0, 4) == 0
            ? static_cast<double>(pick(1, 25 * cores))
            : uniform(0.0, 25.0 * cores);
        check("random", chip, budget, resolutions[pick(0, 4)]);
    }

    for (int k = 0; k < 600; ++k) {
        auto chip = makeChip(static_cast<workload::WorkloadId>(
            k % workload::kNumWorkloads));
        chip.step(uniform(0.0, 3600.0));
        chip.setGatingAllowed(k % 2 == 0);
        for (int i = 0; i < chip.numCores(); ++i)
            chip.core(i).setDieTempC(uniform(40.0, 95.0));
        check("campaign", chip, uniform(20.0, 150.0), 0.1);
    }

    for (int k = 0; k < 60; ++k) {
        const int cores = pick(1, 8);
        const auto set = workload::workloadSet(
            static_cast<workload::WorkloadId>(
                pick(0, workload::kNumWorkloads - 1)));
        auto profile = set[static_cast<std::size_t>(
            pick(0, static_cast<int>(set.size()) - 1))];
        profile.phases = {profile.phases[static_cast<std::size_t>(
            pick(0, static_cast<int>(profile.phases.size()) - 1))]};
        auto cfg = cpu::defaultChipConfig();
        cfg.numCores = cores;
        cpu::MultiCoreChip chip(
            cfg, tables[pick(0, 2)], cpu::EnergyParams{},
            std::vector<cpu::BenchmarkProfile>(
                static_cast<std::size_t>(cores), profile),
            static_cast<std::uint64_t>(k));
        chip.setGatingAllowed(pick(0, 3) != 0);
        const double temp = uniform(40.0, 95.0);
        for (int i = 0; i < cores; ++i)
            chip.core(i).setDieTempC(temp);
        const double budget = uniform(0.0, 20.0 * cores);
        for (double res : resolutions)
            check("tied", chip, budget, res);
    }

    for (int k = 0; k < 200; ++k) {
        auto cfg = cpu::defaultChipConfig();
        cfg.numCores = pick(1, 12);
        auto profiles = workload::workloadSet(
            static_cast<workload::WorkloadId>(
                pick(0, workload::kNumWorkloads - 1)));
        profiles.resize(static_cast<std::size_t>(cfg.numCores),
                        profiles[0]);
        cpu::MultiCoreChip chip(cfg, tables[pick(0, 2)],
                                cpu::EnergyParams{}, std::move(profiles),
                                static_cast<std::uint64_t>(k));
        chip.step(uniform(0.0, 600.0));
        chip.setGatingAllowed(pick(0, 1) != 0);
        for (int i = 0; i < chip.numCores(); ++i)
            chip.core(i).setDieTempC(uniform(40.0, 95.0));
        const double res = resolutions[pick(0, 4)];
        const int floor_units = cheapestUnits(chip, res);
        for (int d = -2; d <= 2; ++d) {
            // Half a unit above the grid line, so the budget floors to
            // exactly floor_units + d units.
            const double budget = (floor_units + d + 0.5) * res;
            EXPECT_EQ(check("edge", chip, budget, res), d >= 0)
                << "case " << cases << ": " << budget << " W";
        }
    }
    EXPECT_EQ(mismatches, 0) << "of " << cases << " cases";
}

TEST(FixedPower, PrefersEfficientCoresUnderTightBudget)
{
    // ML1 = 4x gcc (moderate EPI) + 4x mesa (low EPI). With a budget
    // that cannot raise everyone, the optimizer must give mesa cores
    // at least as much frequency as gcc cores on average.
    auto chip = makeChip(workload::WorkloadId::ML1);
    const auto alloc = optimizeAllocation(chip, 60.0);
    ASSERT_TRUE(alloc.feasible);
    double gcc_levels = 0.0;
    double mesa_levels = 0.0;
    for (int i = 0; i < 4; ++i) {
        gcc_levels += alloc.settings[static_cast<std::size_t>(i)].gated
            ? -1
            : alloc.settings[static_cast<std::size_t>(i)].level;
        mesa_levels += alloc.settings[static_cast<std::size_t>(i + 4)].gated
            ? -1
            : alloc.settings[static_cast<std::size_t>(i + 4)].level;
    }
    EXPECT_GE(mesa_levels, gcc_levels);
}

} // namespace
} // namespace solarcore::core
