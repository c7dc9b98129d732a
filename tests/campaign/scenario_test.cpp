/**
 * @file
 * Tests for the scenario grid: expansion order, keys, signatures, list
 * parsing and presets.
 */

#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "campaign/scenario.hpp"

namespace solarcore::campaign {
namespace {

ScenarioGrid
smallGrid()
{
    ScenarioGrid grid;
    grid.sites = {solar::SiteId::AZ, solar::SiteId::NC};
    grid.months = {solar::Month::Jan, solar::Month::Jul};
    grid.policies = {CampaignPolicy::MpptOpt, CampaignPolicy::Battery};
    grid.workloads = {workload::WorkloadId::HM2};
    grid.seeds = {1, 7};
    return grid;
}

TEST(Scenario, ExpansionIsSiteMajorAndDenselyIndexed)
{
    const auto grid = smallGrid();
    const auto units = expandGrid(grid);
    ASSERT_EQ(units.size(), grid.unitCount());
    ASSERT_EQ(units.size(), 2u * 2u * 2u * 1u * 2u);
    for (std::size_t i = 0; i < units.size(); ++i)
        EXPECT_EQ(units[i].index, static_cast<int>(i));

    // Innermost axis (seed) varies fastest, outermost (site) slowest.
    EXPECT_EQ(units[0].seed, 1u);
    EXPECT_EQ(units[1].seed, 7u);
    EXPECT_EQ(units[0].policy, CampaignPolicy::MpptOpt);
    EXPECT_EQ(units[2].policy, CampaignPolicy::Battery);
    EXPECT_EQ(units[0].month, solar::Month::Jan);
    EXPECT_EQ(units[4].month, solar::Month::Jul);
    EXPECT_EQ(units[0].site, solar::SiteId::AZ);
    EXPECT_EQ(units[8].site, solar::SiteId::NC);

    // Two units share a day index exactly when they replay the same
    // (site, month, seed) day; days are numbered site-major.
    ASSERT_EQ(dayCount(grid), 2u * 2u * 2u);
    for (const auto &a : units) {
        ASSERT_GE(a.day, 0);
        ASSERT_LT(static_cast<std::size_t>(a.day), dayCount(grid));
        for (const auto &b : units)
            EXPECT_EQ(a.day == b.day, a.site == b.site &&
                          a.month == b.month && a.seed == b.seed)
                << unitKey(a) << " vs " << unitKey(b);
    }
    EXPECT_EQ(units[1].day, 1);  // AZ-Jan seed 7
    EXPECT_EQ(units[4].day, 2);  // AZ-Jul seed 1
    EXPECT_EQ(units[8].day, 4);  // NC-Jan seed 1
}

TEST(Scenario, UnitKeysAreUniqueAndReadable)
{
    const auto units = expandGrid(smallGrid());
    std::set<std::string> keys;
    for (const auto &unit : units)
        keys.insert(unitKey(unit));
    EXPECT_EQ(keys.size(), units.size());
    EXPECT_EQ(unitKey(units[0]), "AZ-Jan-opt-HM2-s1");
    EXPECT_EQ(unitKey(units[3]), "AZ-Jan-battery-HM2-s7");
}

TEST(Scenario, SignatureTracksEveryAxisAndKnob)
{
    const auto base = smallGrid();
    const std::string sig = gridSignature(base);
    EXPECT_EQ(sig, gridSignature(smallGrid())); // deterministic

    auto g = base;
    g.sites.pop_back();
    EXPECT_NE(gridSignature(g), sig);
    g = base;
    g.seeds.push_back(9);
    EXPECT_NE(gridSignature(g), sig);
    g = base;
    g.dtSeconds += 1.0;
    EXPECT_NE(gridSignature(g), sig);
    g = base;
    g.fixedBudgetW += 5.0;
    EXPECT_NE(gridSignature(g), sig);
    g = base;
    g.trackingPeriodMinutes *= 2.0;
    EXPECT_NE(gridSignature(g), sig);
}

TEST(Scenario, PolicyTokensRoundTrip)
{
    std::vector<CampaignPolicy> parsed;
    ASSERT_TRUE(parsePolicyList("opt,rr,ic,icm,fixed,battery", parsed));
    ASSERT_EQ(parsed.size(), 6u);
    for (const auto policy : parsed) {
        std::vector<CampaignPolicy> again;
        ASSERT_TRUE(parsePolicyList(campaignPolicyToken(policy), again));
        ASSERT_EQ(again.size(), 1u);
        EXPECT_EQ(again[0], policy);
    }
}

TEST(Scenario, ListParsersRejectBadTokens)
{
    std::vector<solar::SiteId> sites;
    EXPECT_TRUE(parseSiteList("AZ,CO", sites));
    EXPECT_EQ(sites.size(), 2u);
    EXPECT_FALSE(parseSiteList("AZ,XX", sites));
    EXPECT_FALSE(parseSiteList("", sites));
    EXPECT_EQ(sites.size(), 2u); // left untouched on failure

    std::vector<solar::Month> months;
    EXPECT_TRUE(parseMonthList("Jan,Oct", months));
    EXPECT_FALSE(parseMonthList("January", months));

    std::vector<workload::WorkloadId> wls;
    EXPECT_TRUE(parseWorkloadList("H1,HM2,L1", wls));
    EXPECT_FALSE(parseWorkloadList("H1,nope", wls));

    std::vector<std::uint64_t> seeds;
    EXPECT_TRUE(parseSeedList("1,2,42", seeds));
    ASSERT_EQ(seeds.size(), 3u);
    EXPECT_EQ(seeds[2], 42u);
    EXPECT_FALSE(parseSeedList("1,two", seeds));
    EXPECT_FALSE(parseSeedList("3.5", seeds));
}

TEST(Scenario, ValidateGridRejectsWhatCannotRun)
{
    EXPECT_EQ(validateGrid(smallGrid()), "");
    ScenarioGrid full;
    ASSERT_TRUE(applyPreset("full", full));
    EXPECT_EQ(validateGrid(full), "");

    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    auto rejects = [](auto mutate) {
        auto grid = smallGrid();
        mutate(grid);
        return !validateGrid(grid).empty();
    };
    EXPECT_TRUE(rejects([](ScenarioGrid &g) { g.seeds.clear(); }));
    EXPECT_TRUE(rejects([](ScenarioGrid &g) { g.sites.clear(); }));
    for (const double bad : {0.0, -1.0, inf, nan}) {
        EXPECT_TRUE(rejects([&](ScenarioGrid &g) { g.dtSeconds = bad; }));
        EXPECT_TRUE(
            rejects([&](ScenarioGrid &g) { g.fixedBudgetW = bad; }));
        EXPECT_TRUE(rejects(
            [&](ScenarioGrid &g) { g.trackingPeriodMinutes = bad; }));
        EXPECT_TRUE(
            rejects([&](ScenarioGrid &g) { g.batteryDerating = bad; }));
    }
    EXPECT_TRUE(rejects([](ScenarioGrid &g) { g.batteryDerating = 3.0; }));
    EXPECT_FALSE(
        rejects([](ScenarioGrid &g) { g.batteryDerating = 1.0; }));
}

TEST(Scenario, PresetsLoadAndDiffer)
{
    ScenarioGrid grid;
    ASSERT_TRUE(applyPreset("smoke", grid));
    EXPECT_EQ(grid.unitCount(), 8u);
    EXPECT_EQ(grid.dtSeconds, 120.0);

    ScenarioGrid fig13, fig14;
    ASSERT_TRUE(applyPreset("fig13", fig13));
    ASSERT_TRUE(applyPreset("fig14", fig14));
    EXPECT_EQ(fig13.unitCount(), 3u);
    EXPECT_EQ(fig13.dtSeconds, 15.0);
    EXPECT_NE(gridSignature(fig13), gridSignature(fig14));

    ScenarioGrid full;
    ASSERT_TRUE(applyPreset("full", full));
    EXPECT_EQ(full.unitCount(), 4u * 4u * 5u * 3u);

    EXPECT_FALSE(applyPreset("nope", grid));
    EXPECT_EQ(grid.dtSeconds, 120.0); // unknown preset leaves grid alone
}

} // namespace
} // namespace solarcore::campaign
