/**
 * @file
 * Tests for the shared observability command-line flags, the recorders
 * they build, and the two telemetry layouts writeRun writes.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "obs/manifest.hpp"
#include "obs/obs_options.hpp"
#include "obs/recorders.hpp"

namespace solarcore::obs {
namespace {

TEST(ObsOptions, ConsumeRecognizesObservabilityFlags)
{
    ObsOptions o;
    EXPECT_FALSE(o.anyRequested());

    EXPECT_TRUE(o.consume("--stats-out=stats.json"));
    EXPECT_TRUE(o.consume("--trace-out=day.jsonl"));
    EXPECT_TRUE(o.consume("--trace-buffer=1024"));
    EXPECT_TRUE(o.consume("--manifest-out=run.json"));

    EXPECT_EQ(o.statsOut, "stats.json");
    EXPECT_EQ(o.traceOut, "day.jsonl");
    EXPECT_EQ(o.traceBufferCap, 1024u);
    EXPECT_EQ(o.manifestOut, "run.json");
    EXPECT_TRUE(o.statsRequested());
    EXPECT_TRUE(o.traceRequested());
    EXPECT_TRUE(o.anyRequested());
}

TEST(ObsOptions, ConsumeLeavesForeignFlagsAlone)
{
    ObsOptions o;
    EXPECT_FALSE(o.consume("--site"));
    EXPECT_FALSE(o.consume("AZ"));
    EXPECT_FALSE(o.consume("--threads=3"));
    EXPECT_FALSE(o.consume("--stats-out")); // value-less form unsupported
    EXPECT_FALSE(o.anyRequested());
}

TEST(Recorders, BuildExactlyWhatTheFlagsAskFor)
{
    ObsOptions o;
    const Recorders none(o);
    EXPECT_FALSE(none.stats || none.trace || none.telemetry ||
                 none.profiler || none.audit);

    EXPECT_TRUE(o.consume("--trace-out=day.json"));
    EXPECT_TRUE(o.consume("--trace-buffer=64"));
    EXPECT_TRUE(o.consume("--audit-out=audit.json"));
    const Recorders some(o);
    ASSERT_TRUE(some.trace && some.audit);
    EXPECT_FALSE(some.stats || some.telemetry || some.profiler);
    EXPECT_EQ(some.trace->capacity(), 64u);
    // --audit-out alone audits in counting mode.
    EXPECT_EQ(some.audit->config().mode, AuditMode::Count);

    EXPECT_TRUE(o.consume("--audit=strict"));
    EXPECT_TRUE(o.consume("--telemetry-out=t.csv"));
    EXPECT_TRUE(o.consume("--telemetry-every=5"));
    EXPECT_TRUE(o.consume("--telemetry-mode=minmax"));
    EXPECT_TRUE(o.consume("--stats-out=stats.json"));
    EXPECT_TRUE(o.consume("--profile-out=profile.json"));
    const Recorders all(o);
    ASSERT_TRUE(all.stats && all.trace && all.telemetry && all.profiler &&
                all.audit);
    EXPECT_EQ(all.audit->config().mode, AuditMode::Strict);
    EXPECT_EQ(all.telemetry->every(), 5u);
    EXPECT_EQ(all.telemetry->mode(), TelemetryMode::MinMax);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(Recorders, WriteRunLaysTelemetryOutAsAskedFor)
{
    ObsOptions o;
    o.traceOut = ::testing::TempDir() + "recorders_layout_trace.json";
    o.telemetryOut = ::testing::TempDir() + "recorders_layout_telem.csv";
    auto write = [&](TelemetryLayout layout) {
        Recorders rec(o);
        const auto power = rec.telemetry->channel("panel.power_w");
        rec.telemetry->beginStep(1.0);
        rec.telemetry->set(power, 42.0);
        rec.telemetry->endStep();
        rec.trace->emit(TraceEvent{});
        StatsRegistry stats;
        RunManifest manifest("options_test");
        writeRun(o, {&rec, 1}, {"day"}, layout, stats, manifest);
        return std::pair(readFile(o.telemetryOut), readFile(o.traceOut));
    };
    // One day: no unit column, and the channels ride in the Chrome
    // trace as counter tracks.
    const auto [day_csv, day_trace] = write(TelemetryLayout::Day);
    EXPECT_EQ(day_csv.rfind("time_min,panel.power_w\n", 0), 0u) << day_csv;
    EXPECT_NE(day_trace.find("\"panel.power_w\""), std::string::npos);
    // Tasks: the unit column holds the task index; no counter tracks.
    const auto [tasks_csv, tasks_trace] = write(TelemetryLayout::Tasks);
    EXPECT_EQ(tasks_csv.rfind("unit,time_min,panel.power_w\n0,", 0), 0u)
        << tasks_csv;
    EXPECT_EQ(tasks_trace.find("\"panel.power_w\""), std::string::npos);
    std::remove(o.traceOut.c_str());
    std::remove(o.telemetryOut.c_str());
}

} // namespace
} // namespace solarcore::obs
