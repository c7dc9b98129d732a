/**
 * @file
 * Tests for the shared day stages of a campaign run: a grid whose days
 * are staged once and replayed by every policy and mix gives the rows
 * and stats of the same units run one by one, each staging its own
 * day, at any thread or worker count; tasks are claimed day by day;
 * concurrent acquirers of a day get one stage; and panel constants
 * are staged only for days two MPPT units replay.
 */

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "core/simulation.hpp"
#include "obs/stats_registry.hpp"
#include "pv/pv_kernel.hpp"

namespace solarcore::campaign {
namespace {

namespace fs = std::filesystem;

/** 2 sites x 2 months x 2 seeds: eight days, eight units each. */
ScenarioGrid
sharedGrid()
{
    ScenarioGrid grid;
    grid.sites = {solar::SiteId::AZ, solar::SiteId::NC};
    grid.months = {solar::Month::Jan, solar::Month::Jul};
    grid.policies = {CampaignPolicy::MpptOpt, CampaignPolicy::MpptRr,
                     CampaignPolicy::FixedPower, CampaignPolicy::Battery};
    grid.workloads = {workload::WorkloadId::H1, workload::WorkloadId::HM2};
    grid.seeds = {1, 2};
    grid.dtSeconds = 60.0;
    return grid;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
summaryOf(const ScenarioGrid &grid, const CampaignOutcome &outcome)
{
    std::ostringstream os;
    writeSummaryJson(os, grid, outcome);
    return os.str();
}

TEST(SharedDays, GridMatchesUnitsRunAloneAtAnyParallelism)
{
    const ScenarioGrid grid = sharedGrid();
    pv::setPvKernel(*pv::resolvePvKernel(grid.pvKernel));

    // The reference: every unit alone, staging its own day, stats
    // merged in unit order as the runner merges them. Two worker
    // processes each merge their half of the units first, and the
    // parent merges the two halves.
    CampaignOutcome alone;
    alone.units = expandGrid(grid);
    const std::size_t half = alone.units.size() / 2;
    obs::StatsRegistry in_order, halves[2];
    for (const ScenarioUnit &unit : alone.units) {
        obs::StatsRegistry reg;
        alone.results.push_back(runUnit(unit, grid, &reg));
        in_order.merge(reg);
        halves[static_cast<std::size_t>(unit.index) < half ? 0 : 1].merge(
            reg);
    }
    obs::StatsRegistry by_halves;
    by_halves.merge(halves[0]);
    by_halves.merge(halves[1]);
    std::ostringstream want_stats, want_worker_stats;
    in_order.dumpJson(want_stats);
    by_halves.dumpJson(want_worker_stats);
    const std::string want = summaryOf(grid, alone);

    const std::string stats_path =
        ::testing::TempDir() + "shared_days_grid_stats.json";
    for (const auto &[threads, workers] :
         {std::pair{4, 1}, {1, 1}, {1, 2}}) {
        CampaignOptions options;
        options.threads = threads;
        options.workers = workers;
        options.obs.statsOut = stats_path;
        const CampaignOutcome shared = runCampaign(grid, options);
        EXPECT_EQ(summaryOf(grid, shared), want)
            << "threads " << threads << " workers " << workers;
        EXPECT_EQ(readFile(stats_path),
                  workers > 1 ? want_worker_stats.str() : want_stats.str())
            << "threads " << threads << " workers " << workers;
        EXPECT_EQ(shared.unitsRun, 64);
    }
    fs::remove(stats_path);
}

TEST(SharedDays, TasksAreClaimedDayByDay)
{
    ScenarioGrid grid = sharedGrid();
    const auto units = expandGrid(grid);
    std::vector<std::size_t> tasks(units.size());
    std::iota(tasks.begin(), tasks.end(), 0);

    const SharedDays days(grid, units, tasks);
    const std::vector<std::size_t> &order = days.order();
    ASSERT_EQ(order.size(), tasks.size());
    std::vector<std::size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, tasks); // a permutation

    // Each day's tasks are contiguous in the claim order, in task order.
    auto day_of = [&](std::size_t t) {
        const ScenarioUnit &u = units[tasks[t]];
        return std::tuple(u.site, u.month, u.seed);
    };
    for (std::size_t k = 8; k < order.size(); k += 8) {
        for (std::size_t j = k - 8; j + 1 < k; ++j) {
            EXPECT_EQ(day_of(order[j]), day_of(order[j + 1])) << j;
            EXPECT_LT(order[j], order[j + 1]) << j;
        }
        EXPECT_NE(day_of(order[k - 1]), day_of(order[k])) << k;
    }

    // A one-seed grid lists its days contiguously: the identity.
    grid.seeds = {7};
    const auto one_seed = expandGrid(grid);
    std::vector<std::size_t> all(one_seed.size());
    std::iota(all.begin(), all.end(), 0);
    EXPECT_EQ(SharedDays(grid, one_seed, all).order(), all);
}

TEST(SharedDays, ConcurrentAcquirersShareOneStage)
{
    ScenarioGrid grid = sharedGrid();
    grid.sites = {solar::SiteId::AZ};
    grid.months = {solar::Month::Jul};
    grid.seeds = {3};
    const auto units = expandGrid(grid); // one day, eight units
    std::vector<std::size_t> tasks = {0, 2, 4, 6};
    SharedDays days(grid, units, tasks);

    // Each thread holds its lease until it has read the pointer, and
    // the stage lives until the last lease ends, so equal pointers are
    // one stage.
    std::atomic<int> ready{0};
    std::vector<const core::DayStage *> seen(tasks.size(), nullptr);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < static_cast<int>(tasks.size()))
                std::this_thread::yield();
            const SharedDays::Lease lease = days.acquire(t);
            seen[t] = lease.stage();
        });
    }
    for (std::thread &th : threads)
        th.join();
    ASSERT_NE(seen[0], nullptr);
    for (const core::DayStage *stage : seen)
        EXPECT_EQ(stage, seen[0]);
}

TEST(SharedDays, PanelConstantsOnlyForDaysTwoMpptUnitsReplay)
{
    ScenarioGrid grid = sharedGrid();
    grid.sites = {solar::SiteId::NC};
    grid.months = {solar::Month::Jan};
    grid.workloads = {workload::WorkloadId::HM2};
    grid.seeds = {1};
    // Units: opt, rr, fixed, battery (one day).
    const auto units = expandGrid(grid);
    ASSERT_EQ(units.size(), 4u);
    auto panel_of = [&](std::vector<std::size_t> tasks) {
        SharedDays days(grid, units, tasks);
        std::vector<SharedDays::Lease> leases;
        for (std::size_t t = 0; t < tasks.size(); ++t)
            leases.push_back(days.acquire(t));
        const core::DayStage *stage = leases.front().stage();
        return stage ? static_cast<int>(!stage->panel.empty()) : -1;
    };
    EXPECT_EQ(panel_of({0, 1}), 1);       // opt + rr
    EXPECT_EQ(panel_of({0, 2, 3}), 0);    // one MPPT unit
    EXPECT_EQ(panel_of({2, 3}), 0);       // fixed + battery
    EXPECT_EQ(panel_of({1}), -1);         // a lone unit stages its own
    EXPECT_EQ(panel_of({0, 1, 2, 3}), 1);
}

} // namespace
} // namespace solarcore::campaign
