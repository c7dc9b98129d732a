/**
 * @file
 * Tests for the multi-process campaign execution engine: forked
 * workers reproduce the in-process summary byte-for-byte, the unit
 * cache behaves identically at any worker count (and a warm cache
 * serves every unit), and the reusable SimWorkspace changes no
 * numbers.
 */

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "campaign/golden.hpp"
#include "campaign/unit_cache.hpp"
#include "core/simulation.hpp"
#include "util/pipe_channel.hpp"

namespace solarcore::campaign {
namespace {

namespace fs = std::filesystem;

/** Cheap but representative: two sites, three policy families. */
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

struct TempDir
{
    std::string path;

    explicit TempDir(const char *tag)
        : path(::testing::TempDir() + "shard_exec_" + tag + "_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name())
    {
        fs::remove_all(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

TEST(ShardExec, WorkersReproduceInProcessSummaryByteForByte)
{
    if (!util::pipeChannelSupported())
        GTEST_SKIP() << "no fork/pipe on this platform";
    const auto grid = testGrid();
    CampaignOptions inproc;
    inproc.threads = 1;
    const std::string reference = summaryFor(grid, inproc);
    ASSERT_FALSE(reference.empty());

    for (int workers : {2, 4}) {
        CampaignOptions sharded;
        sharded.threads = 1;
        sharded.workers = workers;
        CampaignOutcome outcome;
        EXPECT_EQ(summaryFor(grid, sharded, &outcome), reference)
            << "workers=" << workers;
        EXPECT_EQ(outcome.unitsRun,
                  static_cast<int>(grid.unitCount()));
        EXPECT_EQ(outcome.workerCrashes, 0);
    }

    // More workers than units degrades to one unit per worker.
    CampaignOptions oversubscribed;
    oversubscribed.threads = 1;
    oversubscribed.workers = 64;
    EXPECT_EQ(summaryFor(grid, oversubscribed), reference);
}

TEST(ShardExec, CacheBehavesIdenticallyAcrossWorkerCounts)
{
    if (!util::pipeChannelSupported())
        GTEST_SKIP() << "no fork/pipe on this platform";
    const auto grid = testGrid();
    TempDir dir_one("cache_w1");
    TempDir dir_many("cache_w4");

    // Cold runs: every unit simulated and stored, regardless of mode.
    CampaignOptions one;
    one.threads = 1;
    one.unitCacheDir = dir_one.path;
    CampaignOutcome cold_one;
    const std::string ref = summaryFor(grid, one, &cold_one);

    CampaignOptions many = one;
    many.workers = 4;
    many.unitCacheDir = dir_many.path;
    CampaignOutcome cold_many;
    EXPECT_EQ(summaryFor(grid, many, &cold_many), ref);
    EXPECT_EQ(cold_one.unitsCached, 0);
    EXPECT_EQ(cold_many.unitsCached, cold_one.unitsCached);
    EXPECT_EQ(cold_many.unitsRun, cold_one.unitsRun);

    // The two modes stored byte-identical entry sets.
    std::size_t entries = 0;
    for (const auto &entry : fs::directory_iterator(dir_one.path)) {
        ++entries;
        const auto twin =
            fs::path(dir_many.path) / entry.path().filename();
        ASSERT_TRUE(fs::exists(twin)) << entry.path();
        std::ifstream a(entry.path()), b(twin);
        std::stringstream sa, sb;
        sa << a.rdbuf();
        sb << b.rdbuf();
        EXPECT_EQ(sa.str(), sb.str()) << entry.path();
    }
    EXPECT_EQ(entries, grid.unitCount());

    // Warm runs: all units served from cache, summaries unchanged --
    // and a cache written by one mode warms the other.
    CampaignOutcome warm_one;
    EXPECT_EQ(summaryFor(grid, one, &warm_one), ref);
    EXPECT_EQ(warm_one.unitsCached,
              static_cast<int>(grid.unitCount()));
    EXPECT_EQ(warm_one.unitsRun, 0);

    CampaignOptions crossed = many;
    crossed.unitCacheDir = dir_one.path; // warmed by workers=1
    CampaignOutcome warm_crossed;
    EXPECT_EQ(summaryFor(grid, crossed, &warm_crossed), ref);
    EXPECT_EQ(warm_crossed.unitsCached,
              static_cast<int>(grid.unitCount()));
    EXPECT_EQ(warm_crossed.unitsRun, 0);
}

TEST(ShardExec, ReusableWorkspaceChangesNoNumbers)
{
    const auto grid = testGrid();
    const auto units = expandGrid(grid);
    core::SimWorkspace workspace;
    for (const auto &unit : units) {
        const UnitMetrics fresh = runUnit(unit, grid);
        // Same workspace reused across every unit: capacity persists,
        // results must not.
        const UnitMetrics reused = runUnit(unit, grid, nullptr, &workspace);
        for (const auto &field : metricFields())
            EXPECT_EQ(fresh.*(field.member), reused.*(field.member))
                << unitKey(unit) << "." << field.name;
    }
}

TEST(ShardExec, WorkersComposeWithJournalResume)
{
    if (!util::pipeChannelSupported())
        GTEST_SKIP() << "no fork/pipe on this platform";
    const auto grid = testGrid();
    TempDir dir("journal");
    fs::create_directories(dir.path);
    const std::string journal = dir.path + "/campaign.journal";

    CampaignOptions sharded;
    sharded.threads = 1;
    sharded.workers = 2;
    sharded.journalPath = journal;
    const std::string ref = summaryFor(grid, sharded);

    // A resume against the worker-written journal recomputes nothing
    // and reproduces the bytes.
    CampaignOptions resume = sharded;
    resume.resume = true;
    CampaignOutcome outcome;
    EXPECT_EQ(summaryFor(grid, resume, &outcome), ref);
    EXPECT_EQ(outcome.unitsResumed,
              static_cast<int>(grid.unitCount()));
    EXPECT_EQ(outcome.unitsRun, 0);
}

TEST(ShardExec, WorkerSpansStitchIntoOneTraceWithoutChangingSummary)
{
    if (!util::pipeChannelSupported())
        GTEST_SKIP() << "no fork/pipe on this platform";
    const auto grid = testGrid();

    CampaignOptions plain;
    plain.threads = 1;
    plain.workers = 2;
    const std::string ref = summaryFor(grid, plain);

    TempDir dir("spans");
    fs::create_directories(dir.path);
    CampaignOptions traced = plain;
    traced.spanOut = dir.path + "/spans.jsonl";
    traced.traceId = 0xfeed01;

    // Span emission must not perturb a single summary byte.
    EXPECT_EQ(summaryFor(grid, traced), ref);

    // Worker spans cross the pipe and stitch into the requested
    // trace: one campaign root, one shard span per worker (each on
    // its own lane), and one unit span per scenario unit.
    std::ifstream in(traced.spanOut);
    ASSERT_TRUE(in.good());
    std::string line;
    std::size_t roots = 0;
    std::size_t shards = 0;
    std::size_t units = 0;
    std::size_t lanes_seen = 0;
    bool lane_flags[64] = {false};
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        FlatJson doc;
        std::string error;
        ASSERT_TRUE(parseJsonFlat(line, doc, error)) << error;
        EXPECT_EQ(doc["schema"].text, "solarcore-span-v1");
        EXPECT_EQ(doc["trace"].text, "0000000000feed01");
        if (doc["parent"].text == "0000000000000000") {
            ++roots;
            EXPECT_EQ(doc["name"].text, "campaign");
        }
        if (doc["name"].text == "shard")
            ++shards;
        if (doc["name"].text == "unit") {
            ++units;
            const auto lane = static_cast<int>(doc["lane"].number);
            ASSERT_GE(lane, 1);
            ASSERT_LT(lane, 64);
            if (!lane_flags[lane]) {
                lane_flags[lane] = true;
                ++lanes_seen;
            }
        }
    }
    EXPECT_EQ(roots, 1u);
    EXPECT_EQ(shards, 2u);
    EXPECT_EQ(units, grid.unitCount());
    EXPECT_EQ(lanes_seen, 2u); // both workers contributed units
}

} // namespace
} // namespace solarcore::campaign
