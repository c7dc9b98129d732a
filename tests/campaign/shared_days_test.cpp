/**
 * @file
 * Tests for the shared day stages of a campaign run: a grid whose days
 * are staged once and replayed by every policy and mix gives the rows
 * and stats of the same units run one by one, each staging its own
 * day, at any thread or worker count and in any claim order; one
 * claimer takes the tasks day by day, more claimers take windows whose
 * first claims land on distinct days, and a 4-thread pool claiming in
 * windows of 4 days allocates at most 8 stages; concurrent acquirers
 * of a day get one stage; panel constants are staged only for days
 * two MPPT units replay; and runUnit refuses another day's stage.
 */

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "core/simulation.hpp"
#include "obs/recorders.hpp"
#include "pv/bp3180n.hpp"
#include "pv/pv_kernel.hpp"
#include "util/thread_pool.hpp"

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

std::string
statsOf(const obs::StatsRegistry &reg)
{
    std::ostringstream os;
    reg.dumpJson(os);
    return os.str();
}

/** The day a task's unit replays. */
std::tuple<solar::SiteId, solar::Month, std::uint64_t>
dayOf(const ScenarioUnit &unit)
{
    return {unit.site, unit.month, unit.seed};
}

/** Every unit of a grid run alone, each staging its own day. */
struct AloneReference
{
    std::string summary;
    std::string stats;        //!< merged in unit order, as the runner
    std::string workerStats;  //!< two workers' halves, merged in turn
};

AloneReference
runAlone(const ScenarioGrid &grid)
{
    // Stats merged in unit order as the runner merges them. Two worker
    // processes each merge their half of the units first, and the
    // parent merges the two halves.
    CampaignOutcome alone;
    alone.units = expandGrid(grid);
    const std::size_t half = alone.units.size() / 2;
    obs::StatsRegistry in_order, halves[2];
    for (const ScenarioUnit &unit : alone.units) {
        obs::Recorders rec;
        rec.stats = std::make_unique<obs::StatsRegistry>();
        alone.results.push_back(runUnit(unit, grid, &rec));
        in_order.merge(*rec.stats);
        halves[static_cast<std::size_t>(unit.index) < half ? 0 : 1].merge(
            *rec.stats);
    }
    obs::StatsRegistry by_halves;
    by_halves.merge(halves[0]);
    by_halves.merge(halves[1]);
    return {summaryOf(grid, alone), statsOf(in_order), statsOf(by_halves)};
}

TEST(SharedDays, GridMatchesUnitsRunAloneAtAnyParallelism)
{
    const ScenarioGrid grid = sharedGrid();
    pv::setPvKernel(*pv::resolvePvKernel(grid.pvKernel));
    const AloneReference ref = runAlone(grid);

    const std::string stats_path =
        ::testing::TempDir() + "shared_days_grid_stats.json";
    for (const auto &[threads, workers] :
         {std::pair{4, 1}, {1, 1}, {1, 2}}) {
        CampaignOptions options;
        options.threads = threads;
        options.workers = workers;
        options.obs.statsOut = stats_path;
        const CampaignOutcome shared = runCampaign(grid, options);
        EXPECT_EQ(summaryOf(grid, shared), ref.summary)
            << "threads " << threads << " workers " << workers;
        EXPECT_EQ(readFile(stats_path),
                  workers > 1 ? ref.workerStats : ref.stats)
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
    auto day_of = [&](std::size_t t) { return dayOf(units[tasks[t]]); };
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

/**
 * Check the claim order of @p tasks at @p claimers: a permutation that
 * cuts the days with tasks, in grid order, into windows of @p claimers
 * days, whose first claims land on distinct days and which keep each
 * day's tasks in task order.
 */
void
expectWindowOrder(const ScenarioGrid &grid,
                  const std::vector<ScenarioUnit> &units,
                  const std::vector<std::size_t> &tasks, int claimers)
{
    SCOPED_TRACE("claimers " + std::to_string(claimers));
    const SharedDays days(grid, units, tasks, claimers);
    const std::vector<std::size_t> &order = days.order();
    std::vector<std::size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::size_t> all(tasks.size());
    std::iota(all.begin(), all.end(), 0);
    ASSERT_EQ(sorted, all); // a permutation

    std::map<int, std::vector<std::size_t>> by_day; // in grid order
    for (std::size_t t = 0; t < tasks.size(); ++t)
        by_day[units[tasks[t]].day].push_back(t);
    std::size_t k = 0;
    for (auto day = by_day.begin(); day != by_day.end();) {
        std::map<int, std::vector<std::size_t>> window;
        std::size_t window_tasks = 0;
        for (int c = 0; c < claimers && day != by_day.end(); ++c, ++day) {
            window[day->first];
            window_tasks += day->second.size();
        }
        std::set<int> first_days;
        for (std::size_t j = 0; j < window_tasks; ++j) {
            const std::size_t t = order[k + j];
            const int d = units[tasks[t]].day;
            ASSERT_EQ(window.count(d), 1u) << "claim " << k + j;
            window[d].push_back(t);
            if (j < window.size())
                first_days.insert(d);
        }
        EXPECT_EQ(first_days.size(), window.size()) << "claim " << k;
        for (const auto &[d, claimed] : window)
            EXPECT_EQ(claimed, by_day[d]) << "day " << d;
        k += window_tasks;
    }
    EXPECT_EQ(k, order.size());
}

TEST(SharedDays, WindowsOfClaimersStartOnDistinctDays)
{
    // Eight days of eight tasks; a slice of them whose days hold 0, 1,
    // 4 or 8 tasks; and twelve days, which windows of 5, 7 or 8 days
    // do not divide.
    const ScenarioGrid eight_days = sharedGrid();
    const auto units = expandGrid(eight_days);
    std::vector<std::size_t> uneven;
    std::vector<int> taken(dayCount(eight_days), 0);
    for (const ScenarioUnit &u : units) {
        const int cap = u.day == 2 ? 0 : u.day == 5 ? 1 : u.day % 2 ? 4 : 8;
        if (taken[static_cast<std::size_t>(u.day)]++ < cap)
            uneven.push_back(static_cast<std::size_t>(u.index));
    }
    ScenarioGrid twelve_days = sharedGrid();
    twelve_days.seeds = {1, 2, 3};
    const auto twelve = expandGrid(twelve_days);
    auto all = [](std::size_t n) {
        std::vector<std::size_t> tasks(n);
        std::iota(tasks.begin(), tasks.end(), 0);
        return tasks;
    };
    for (int claimers = 1; claimers <= 8; ++claimers) {
        expectWindowOrder(eight_days, units, all(units.size()), claimers);
        expectWindowOrder(eight_days, units, uneven, claimers);
        expectWindowOrder(twelve_days, twelve, all(twelve.size()), claimers);
    }
}

TEST(SharedDays, AnyClaimOrderMatchesUnitsRunAlone)
{
    const ScenarioGrid grid = sharedGrid();
    pv::setPvKernel(*pv::resolvePvKernel(grid.pvKernel));
    const AloneReference ref = runAlone(grid);

    const auto units = expandGrid(grid);
    std::vector<std::size_t> tasks(units.size());
    std::iota(tasks.begin(), tasks.end(), 0);
    ThreadPool pool(4);
    for (const unsigned seed : {1u, 2u, 3u, 4u}) {
        SharedDays days(grid, units, tasks, pool.threadCount());
        std::vector<std::size_t> order = days.order();
        std::shuffle(order.begin(), order.end(), std::mt19937(seed));
        CampaignOutcome outcome;
        outcome.units = units;
        outcome.results.resize(units.size());
        std::vector<obs::Recorders> recs(units.size());
        pool.parallelFor(order.size(), [&](std::size_t k) {
            const std::size_t t = order[k];
            recs[t].stats = std::make_unique<obs::StatsRegistry>();
            static thread_local core::SimWorkspace workspace;
            const SharedDays::Lease lease = days.acquire(t);
            outcome.results[t] = runUnit(units[t], grid, &recs[t],
                                         &workspace, lease.stage());
        });
        obs::StatsRegistry merged;
        obs::mergeStats(recs, merged);
        EXPECT_EQ(summaryOf(grid, outcome), ref.summary) << "seed " << seed;
        EXPECT_EQ(statsOf(merged), ref.stats) << "seed " << seed;
    }
}

TEST(SharedDays, FourClaimersAllocateAtMostEightStages)
{
    // Sixteen days of six units, claimed by a 4-thread pool in windows
    // of four days. A stage is allocated only when no finished day's
    // stage is spare, and stages are freed only with the table, so
    // the leases' distinct stage addresses count the allocations.
    ScenarioGrid grid = sharedGrid();
    grid.policies = {CampaignPolicy::MpptOpt, CampaignPolicy::MpptRr,
                     CampaignPolicy::FixedPower};
    grid.seeds = {1, 2, 3, 4};
    pv::setPvKernel(*pv::resolvePvKernel(grid.pvKernel));
    const auto units = expandGrid(grid);
    ASSERT_EQ(dayCount(grid), 16u);
    std::vector<std::size_t> tasks(units.size());
    std::iota(tasks.begin(), tasks.end(), 0);

    ThreadPool pool(4);
    SharedDays days(grid, units, tasks, pool.threadCount());
    std::mutex mutex;
    std::set<const core::DayStage *> stages;
    pool.parallelFor(tasks.size(), [&](std::size_t k) {
        const std::size_t t = days.order()[k];
        static thread_local core::SimWorkspace workspace;
        const SharedDays::Lease lease = days.acquire(t);
        {
            std::lock_guard<std::mutex> lock(mutex);
            stages.insert(lease.stage());
        }
        runUnit(units[t], grid, nullptr, &workspace, lease.stage());
    });
    EXPECT_EQ(stages.count(nullptr), 0u);
    EXPECT_GE(stages.size(), 1u);
    EXPECT_LE(stages.size(), 2u * static_cast<std::size_t>(
                                      pool.threadCount()));
}

TEST(SharedDaysDeathTest, RunUnitRefusesAnotherDaysStage)
{
    const ScenarioGrid grid = sharedGrid();
    pv::setPvKernel(*pv::resolvePvKernel(grid.pvKernel));
    const auto units = expandGrid(grid);
    // AZ-Jan seed 1 under opt and rr share a stage.
    auto find = [&](solar::Month month, CampaignPolicy policy,
                    std::uint64_t seed) {
        for (const ScenarioUnit &u : units)
            if (u.site == solar::SiteId::AZ && u.month == month &&
                u.policy == policy &&
                u.workload == workload::WorkloadId::H1 && u.seed == seed)
                return static_cast<std::size_t>(u.index);
        return units.size();
    };
    const std::size_t opt =
        find(solar::Month::Jan, CampaignPolicy::MpptOpt, 1);
    const std::size_t rr = find(solar::Month::Jan, CampaignPolicy::MpptRr, 1);
    const std::size_t other_seed =
        find(solar::Month::Jan, CampaignPolicy::MpptOpt, 2);
    const std::size_t other_month =
        find(solar::Month::Jul, CampaignPolicy::MpptOpt, 1);
    ASSERT_LT(std::max({opt, rr, other_seed, other_month}), units.size());
    const std::vector<std::size_t> tasks = {opt, rr};
    SharedDays days(grid, units, tasks);
    const SharedDays::Lease lease = days.acquire(0);
    ASSERT_NE(lease.stage(), nullptr);

    EXPECT_DEATH(
        runUnit(units[other_seed], grid, nullptr, nullptr, lease.stage()),
        "stage of another day");
    EXPECT_DEATH(
        runUnit(units[other_month], grid, nullptr, nullptr, lease.stage()),
        "stage of another day");
    // A stage no stager named is no unit's day.
    core::DayStage unnamed;
    core::stageDay(unnamed, pv::buildBp3180n(),
                   solar::generateDayTrace(units[rr].site, units[rr].month,
                                           units[rr].seed),
                   grid.dtSeconds, 1, 1, true);
    EXPECT_DEATH(runUnit(units[rr], grid, nullptr, nullptr, &unnamed),
                 "stage of another day");
    // Its own day's stage runs.
    EXPECT_GT(
        runUnit(units[rr], grid, nullptr, nullptr, lease.stage()).mppEnergyWh,
        0.0);
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
