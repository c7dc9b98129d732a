/**
 * @file
 * End-to-end tests for the sharded campaign runner: summary JSON is
 * byte-identical at any thread count, an interrupted campaign (even
 * one killed with SIGKILL) resumes from its unit cache to the exact
 * same bytes, and the emitted document is well-formed against the
 * golden parser.
 */

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "campaign/golden.hpp"
#include "campaign/shard_exec.hpp"

namespace solarcore::campaign {
namespace {

namespace fs = std::filesystem;

/** A cheap grid: coarse steps, but every policy family represented. */
ScenarioGrid
testGrid()
{
    ScenarioGrid grid;
    grid.sites = {solar::SiteId::AZ, solar::SiteId::NC};
    grid.months = {solar::Month::Jan};
    grid.policies = {CampaignPolicy::MpptOpt, CampaignPolicy::FixedPower,
                     CampaignPolicy::Battery};
    grid.workloads = {workload::WorkloadId::HM2};
    grid.seeds = {1};
    grid.dtSeconds = 120.0;
    return grid;
}

std::string
summaryFor(const ScenarioGrid &grid, const CampaignOptions &options,
           CampaignOutcome *outcome_out = nullptr)
{
    const auto outcome = runCampaign(grid, options);
    std::ostringstream os;
    writeSummaryJson(os, grid, outcome);
    if (outcome_out != nullptr)
        *outcome_out = outcome;
    return os.str();
}

std::string
tempPath(const char *tag)
{
    return ::testing::TempDir() + "campaign_runner_" + tag + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
}

/** The entries of the unit cache in @p dir, sorted by name. */
std::vector<fs::path>
unitEntries(const std::string &dir)
{
    std::vector<fs::path> entries;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec))
        if (entry.path().extension() == ".unit")
            entries.push_back(entry.path());
    std::sort(entries.begin(), entries.end());
    return entries;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(CampaignRunner, SummaryIsByteIdenticalAcrossThreadCounts)
{
    const auto grid = testGrid();
    CampaignOptions one;
    one.threads = 1;
    const std::string seq = summaryFor(grid, one);
    ASSERT_FALSE(seq.empty());

    for (int threads : {2, 4, 8}) {
        CampaignOptions opt;
        opt.threads = threads;
        EXPECT_EQ(summaryFor(grid, opt), seq) << "threads=" << threads;
    }
    // And the auto-detected pool too.
    CampaignOptions autodetect;
    autodetect.threads = 0;
    EXPECT_EQ(summaryFor(grid, autodetect), seq);
}

TEST(CampaignRunner, RunUnitIsDeterministicPerUnit)
{
    const auto grid = testGrid();
    const auto units = expandGrid(grid);
    for (const auto &unit : units) {
        const UnitMetrics a = runUnit(unit, grid);
        const UnitMetrics b = runUnit(unit, grid);
        for (const auto &field : metricFields())
            EXPECT_EQ(a.*(field.member), b.*(field.member))
                << unitKey(unit) << "." << field.name;
    }
}

TEST(CampaignRunner, ResumedCampaignReproducesUninterruptedSummary)
{
    const auto grid = testGrid();
    const int n = static_cast<int>(grid.unitCount());
    const std::string dir = tempPath("resume");
    fs::remove_all(dir);

    CampaignOptions options;
    options.threads = 2;
    options.unitCacheDir = dir;
    const std::string full = summaryFor(grid, options);

    // "Kill" the campaign after four units: keep four entries, tear a
    // fifth in half, and delete the rest.
    std::vector<fs::path> entries = unitEntries(dir);
    ASSERT_EQ(entries.size(), grid.unitCount());
    for (std::size_t i = 5; i < entries.size(); ++i)
        fs::remove(entries[i]);
    const std::string torn = readFile(entries[4]);
    std::ofstream(entries[4], std::ios::trunc)
        << torn.substr(0, torn.size() / 2);

    CampaignOutcome outcome;
    EXPECT_EQ(summaryFor(grid, options, &outcome), full);
    EXPECT_EQ(outcome.unitsCached, 4);
    EXPECT_EQ(outcome.unitsRun, n - 4);

    // After the resumed run the cache is complete: a second re-run
    // recomputes nothing.
    CampaignOutcome noop;
    EXPECT_EQ(summaryFor(grid, options, &noop), full);
    EXPECT_EQ(noop.unitsCached, n);
    EXPECT_EQ(noop.unitsRun, 0);
    fs::remove_all(dir);
}

TEST(CampaignRunner, KilledCampaignResumesFromItsUnitCache)
{
    if (!processShardingSupported())
        GTEST_SKIP() << "no fork on this platform";
    // Long enough (~0.4 s at one thread in a Release build) that the
    // kill lands mid-run.
    ScenarioGrid grid;
    ASSERT_TRUE(applyPreset("full", grid));
    const std::size_t n = grid.unitCount();
    CampaignOptions reference;
    reference.threads = 4;
    const std::string full = summaryFor(grid, reference);

    const std::string dir = tempPath("killed");
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::fflush(nullptr);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        CampaignOptions options;
        options.threads = 1;
        options.unitCacheDir = dir;
        runCampaign(grid, options);
        _exit(0);
    }
    // SIGKILL it once k units are stored: no destructor, no flush.
    constexpr std::size_t k = 8;
    int status = 0;
    pid_t reaped = 0;
    while (unitEntries(dir).size() < k &&
           (reaped = ::waitpid(child, &status, WNOHANG)) == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (reaped == 0) {
        ::kill(child, SIGKILL);
        reaped = ::waitpid(child, &status, 0);
    }
    ASSERT_EQ(reaped, child);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "the run ended before the kill";
    const std::size_t stored = unitEntries(dir).size();
    ASSERT_GE(stored, k);
    ASSERT_LT(stored, n);

    // A killed writer's temp file, in the old and the new naming, in
    // the directory: never read as an entry.
    const fs::path entry = unitEntries(dir).front();
    const std::string text = readFile(entry);
    std::ofstream(entry.string() + ".tmp") << text.substr(0, 40);
    std::ofstream(entry.string() + ".tmp.1.0") << "garbage";

    for (const int threads : {1, 4}) {
        const std::string copy = dir + "_t" + std::to_string(threads);
        fs::remove_all(copy);
        fs::copy(dir, copy);
        CampaignOptions options;
        options.threads = threads;
        options.unitCacheDir = copy;
        CampaignOutcome outcome;
        EXPECT_EQ(summaryFor(grid, options, &outcome), full)
            << "threads=" << threads;
        EXPECT_EQ(outcome.unitsCached, static_cast<int>(stored));
        EXPECT_EQ(outcome.unitsRun, static_cast<int>(n - stored));
        fs::remove_all(copy);
    }
    fs::remove_all(dir);
}

TEST(CampaignRunner, GridLargerThanCacheCapResumesEveryUnit)
{
    const auto grid = testGrid();
    const int n = static_cast<int>(grid.unitCount());
    const std::string dir = tempPath("cap");
    fs::remove_all(dir);

    CampaignOptions options;
    options.threads = 2;
    options.unitCacheDir = dir;
    options.unitCacheCap = 2; // below the grid's unit count
    const std::string full = summaryFor(grid, options);

    // The run kept every unit it stored, so its re-run simulates none.
    CampaignOutcome again;
    EXPECT_EQ(summaryFor(grid, options, &again), full);
    EXPECT_EQ(again.unitsCached, n);
    EXPECT_EQ(again.unitsRun, 0);

    // The cap still evicts the units of other runs: another grid of n
    // units leaves its own n entries.
    auto other = grid;
    other.dtSeconds = 240.0;
    summaryFor(other, options);
    EXPECT_EQ(unitEntries(dir).size(), grid.unitCount());
    fs::remove_all(dir);
}

TEST(CampaignRunner, SummaryParsesAndCarriesTheGridAndAggregates)
{
    const auto grid = testGrid();
    CampaignOptions options;
    options.threads = 1;
    const std::string text = summaryFor(grid, options);

    FlatJson flat;
    std::string error;
    ASSERT_TRUE(parseJsonFlat(text, flat, error)) << error;
    EXPECT_EQ(flat.at("schema").text, "solarcore-campaign-summary-v1");
    EXPECT_EQ(flat.at("grid.sites").text, "AZ,NC");
    EXPECT_EQ(flat.at("grid.policies").text, "opt,fixed,battery");
    EXPECT_EQ(flat.at("grid.dt_seconds").number, 120.0);
    EXPECT_EQ(flat.at("aggregate.units").number,
              static_cast<double>(grid.unitCount()));
    EXPECT_EQ(flat.at("units.0.key").text, "AZ-Jan-opt-HM2-s1");

    // Physical sanity of what the gate will freeze: energy flows and
    // the MPPT-efficiency ratio must be positive and bounded.
    for (std::size_t i = 0; i < grid.unitCount(); ++i) {
        const std::string prefix = "units." + std::to_string(i) + ".";
        EXPECT_GT(flat.at(prefix + "mppEnergyWh").number, 0.0) << i;
        EXPECT_GT(flat.at(prefix + "solarEnergyWh").number, 0.0) << i;
        const double util = flat.at(prefix + "utilization").number;
        EXPECT_GT(util, 0.0) << i;
        EXPECT_LE(util, 1.0 + 1e-9) << i;
    }
    EXPECT_GT(flat.at("aggregate.solarEnergyWh").number, 0.0);
    EXPECT_GT(flat.at("aggregate.solar_ptp_share").number, 0.0);
    EXPECT_LE(flat.at("aggregate.solar_ptp_share").number, 1.0);
}

TEST(CampaignRunner, BatteryUnitsReportBufferedSemantics)
{
    auto grid = testGrid();
    grid.sites = {solar::SiteId::AZ};
    grid.policies = {CampaignPolicy::Battery};
    const auto units = expandGrid(grid);
    ASSERT_EQ(units.size(), 1u);
    const auto m = runUnit(units[0], grid);
    EXPECT_EQ(m.effectiveFraction, 1.0); // everything runs on storage
    EXPECT_EQ(m.solarEnergyWh, m.chipEnergyWh);
    EXPECT_EQ(m.gridEnergyWh, 0.0);
    EXPECT_EQ(m.solarInstructions, m.totalInstructions);
    EXPECT_GT(m.totalInstructions, 0.0);
}

} // namespace
} // namespace solarcore::campaign
