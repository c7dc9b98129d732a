/**
 * @file
 * Tests for the campaign run-health reporter: snapshot arithmetic
 * (in-flight, queue depth, utilization), the versioned status.json
 * document and its atomic publication, and the OpenMetrics rendering,
 * which must pass the structural linter.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "campaign/golden.hpp"
#include "campaign/run_health.hpp"
#include "obs/metrics_export.hpp"

namespace solarcore::campaign {
namespace {

campaign::FlatJson
parseFile(const std::string &path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is.good()) << "missing " << path;
    std::stringstream ss;
    ss << is.rdbuf();
    campaign::FlatJson doc;
    std::string error;
    EXPECT_TRUE(campaign::parseJsonFlat(ss.str(), doc, error)) << error;
    return doc;
}

TEST(RunHealth, SnapshotTracksInflightAndQueue)
{
    RunHealthConfig config;
    config.totalUnits = 10;
    config.pendingUnits = 8;
    config.workers = 4;
    RunHealthReporter reporter(config);

    reporter.unitStarted("u0");
    reporter.unitStarted("u1");
    auto snap = reporter.snapshot();
    EXPECT_EQ(snap.unitsDone, 0u);
    EXPECT_EQ(snap.unitsInflight, 2u);
    EXPECT_EQ(snap.queueDepth, 6u); // 8 pending - 0 done - 2 running
    EXPECT_DOUBLE_EQ(snap.workerUtilization, 0.5);
    EXPECT_EQ(snap.busyKeys.size(), 2u);

    reporter.unitFinished("u0");
    snap = reporter.snapshot();
    EXPECT_EQ(snap.unitsDone, 1u);
    EXPECT_EQ(snap.unitsInflight, 1u);
    EXPECT_EQ(snap.queueDepth, 6u); // 8 - 1 done - 1 running
    ASSERT_EQ(snap.busyKeys.size(), 1u);
    EXPECT_EQ(snap.busyKeys[0], "u1");
}

TEST(RunHealth, StatusJsonSchemaAndFields)
{
    const std::string path =
        testing::TempDir() + "run_health_status_test.json";
    std::remove(path.c_str());

    RunHealthConfig config;
    config.totalUnits = 3;
    config.pendingUnits = 3;
    config.workers = 2;
    config.signature = "sites=AZ, months=Jan";
    config.statusPath = path;
    config.minPublishSeconds = 0.0; // publish on every completion
    RunHealthReporter reporter(config);

    reporter.unitStarted("AZ-Jan-opt-H1-s1");
    reporter.unitStarted("AZ-Jan-opt-H1-s2");
    reporter.unitFinished("AZ-Jan-opt-H1-s1");

    auto doc = parseFile(path);
    EXPECT_EQ(doc.at("schema").text, "solarcore-campaign-status-v2");
    EXPECT_EQ(doc.at("signature").text, "sites=AZ, months=Jan");
    EXPECT_DOUBLE_EQ(doc.at("units_total").number, 3.0);
    EXPECT_DOUBLE_EQ(doc.at("units_pending").number, 3.0);
    EXPECT_DOUBLE_EQ(doc.at("units_done").number, 1.0);
    EXPECT_DOUBLE_EQ(doc.at("units_inflight").number, 1.0);
    EXPECT_DOUBLE_EQ(doc.at("queue_depth").number, 1.0);
    EXPECT_DOUBLE_EQ(doc.at("workers").number, 2.0);
    EXPECT_DOUBLE_EQ(doc.at("worker_utilization").number, 0.5);
    EXPECT_EQ(doc.at("busy.0").text, "AZ-Jan-opt-H1-s2");
    EXPECT_GE(doc.at("units_per_second").number, 0.0);

    // finish() republishes unconditionally; no staging file is left.
    reporter.unitFinished("AZ-Jan-opt-H1-s2");
    reporter.finish();
    doc = parseFile(path);
    EXPECT_DOUBLE_EQ(doc.at("units_done").number, 2.0);
    EXPECT_DOUBLE_EQ(doc.at("units_inflight").number, 0.0);
    const std::filesystem::path status(path);
    const std::string staging = status.filename().string() + ".tmp";
    for (const auto &entry :
         std::filesystem::directory_iterator(status.parent_path()))
        EXPECT_NE(entry.path().filename().string().rfind(staging, 0), 0u)
            << entry.path();
    std::remove(path.c_str());
}

TEST(RunHealth, RenderedMetricsLintClean)
{
    RunHealthSnapshot snap;
    snap.totalUnits = 900;
    snap.pendingUnits = 900;
    snap.unitsDone = 450;
    snap.unitsInflight = 4;
    snap.queueDepth = 446;
    snap.workers = 4;
    snap.elapsedSeconds = 12.5;
    snap.unitsPerSecond = 36.0;
    snap.etaSeconds = 12.5;
    snap.workerUtilization = 1.0;

    const std::string text = RunHealthReporter::renderMetrics(snap);
    std::vector<std::string> errors;
    EXPECT_TRUE(obs::lintOpenMetrics(text, errors))
        << (errors.empty() ? "" : errors.front());
    EXPECT_NE(text.find("solarcore_campaign_units_done_total 450\n"),
              std::string::npos);
    EXPECT_NE(text.find("solarcore_campaign_queue_depth 446\n"),
              std::string::npos);

    // The same families compose into a larger document cleanly.
    obs::OpenMetricsWriter w;
    RunHealthReporter::appendMetrics(w, snap);
    w.gauge("solarcore_extra", "another family", 1.0);
    errors.clear();
    EXPECT_TRUE(obs::lintOpenMetrics(w.finish(), errors))
        << (errors.empty() ? "" : errors.front());
}

TEST(RunHealth, StatusJsonEscapesKeys)
{
    RunHealthSnapshot snap;
    snap.busyKeys = {"weird\"key\n"};
    const std::string text =
        RunHealthReporter::renderStatusJson(snap, "sig\\nature");
    campaign::FlatJson doc;
    std::string error;
    ASSERT_TRUE(campaign::parseJsonFlat(text, doc, error)) << error;
    EXPECT_EQ(doc.at("busy.0").text, "weird\"key\n");
    EXPECT_EQ(doc.at("signature").text, "sig\\nature");
}

} // namespace
} // namespace solarcore::campaign
