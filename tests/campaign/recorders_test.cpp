/**
 * @file
 * A campaign's recorder outputs: with every recorder armed, the stats
 * dump, the Chrome trace, the telemetry CSV and the audit report have
 * the same bytes, and the profile the same tree of scope names and
 * counts, at any thread count; and the run manifest counts the trace
 * events that full per-unit buffers dropped.
 */

#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"

namespace solarcore::campaign {
namespace {

namespace fs = std::filesystem;

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** A fresh directory for one run's files, removed afterwards. */
struct OutDir
{
    fs::path path;

    explicit OutDir(const std::string &tag)
        : path(fs::path(::testing::TempDir()) /
               ("campaign_recorders_" + tag))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~OutDir() { fs::remove_all(path); }

    std::string operator/(const char *name) const
    {
        return (path / name).string();
    }
};

ScenarioGrid
smokeGrid()
{
    ScenarioGrid grid;
    EXPECT_TRUE(applyPreset("smoke", grid));
    return grid;
}

/**
 * The profile tree as one "depth name count" line per scope, in the
 * order the JSON lists them: the part of a profile that must not
 * depend on the thread count (its timings do).
 */
std::string
profileShape(const std::string &json)
{
    static const std::regex node(
        R"re(^( *)\{"name": "([^"]*)", "count": ([0-9]+))re");
    std::istringstream in(json);
    std::string line;
    std::string shape;
    std::smatch m;
    while (std::getline(in, line))
        if (std::regex_search(line, m, node))
            shape += std::to_string(m[1].length()) + ' ' + m[2].str() +
                ' ' + m[3].str() + '\n';
    return shape;
}

TEST(CampaignRecorders, OutputsMatchAtAnyThreadCount)
{
    const ScenarioGrid grid = smokeGrid();
    struct Outputs
    {
        std::string stats, trace, telemetry, audit, profile;
    };
    auto run = [&](int threads) {
        const OutDir dir("threads" + std::to_string(threads));
        CampaignOptions options;
        options.threads = threads;
        options.obs.statsOut = dir / "stats.json";
        options.obs.traceOut = dir / "trace.json";
        options.obs.telemetryOut = dir / "telemetry.csv";
        options.obs.telemetryEvery = 7;
        options.obs.profileOut = dir / "profile.json";
        options.obs.audit = obs::AuditMode::Count;
        options.obs.auditOut = dir / "audit.json";
        runCampaign(grid, options);
        return Outputs{readFile(dir / "stats.json"),
                       readFile(dir / "trace.json"),
                       readFile(dir / "telemetry.csv"),
                       readFile(dir / "audit.json"),
                       profileShape(readFile(dir / "profile.json"))};
    };
    const Outputs one = run(1);
    const Outputs four = run(4);

    EXPECT_NE(one.stats.find("\"sim.days\""), std::string::npos);
    EXPECT_NE(one.trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_EQ(one.telemetry.rfind("unit,", 0), 0u);
    EXPECT_NE(one.audit.find("\"steps_audited\""), std::string::npos);
    EXPECT_NE(one.profile.find(" campaign.unit "), std::string::npos);

    EXPECT_EQ(one.stats, four.stats);
    EXPECT_EQ(one.trace, four.trace);
    EXPECT_EQ(one.telemetry, four.telemetry);
    EXPECT_EQ(one.audit, four.audit);
    EXPECT_EQ(one.profile, four.profile);
}

TEST(CampaignRecorders, ManifestCountsDroppedTraceEvents)
{
    const ScenarioGrid grid = smokeGrid();
    auto dropped = [&](std::size_t buffer) {
        const OutDir dir("buffer" + std::to_string(buffer));
        CampaignOptions options;
        options.threads = 2;
        options.obs.traceOut = dir / "trace.jsonl";
        options.obs.traceBufferCap = buffer;
        runCampaign(grid, options);
        const std::string manifest =
            readFile(dir / "trace.jsonl.manifest.json");
        EXPECT_NE(manifest.find("\"tool\""), std::string::npos);
        static const std::regex key(
            R"re("trace_dropped_events":([0-9]+))re");
        std::smatch m;
        return std::regex_search(manifest, m, key) ? std::stoll(m[1].str())
                                                   : -1;
    };
    EXPECT_GT(dropped(8), 0);
    EXPECT_EQ(dropped(std::size_t{1} << 16), -1); // no key: none dropped
}

} // namespace
} // namespace solarcore::campaign
