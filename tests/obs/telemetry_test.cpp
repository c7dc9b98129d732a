/**
 * @file
 * Tests for the per-step waveform recorder: channel registration and
 * schema freezing, every-N and min-max decimation semantics, NaN
 * cells, CSV export, and the campaign concat layout.
 */

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "obs/telemetry.hpp"

namespace solarcore::obs {
namespace {

TEST(Telemetry, ChannelFindOrCreateAndUnits)
{
    TelemetryRecorder rec;
    const auto a = rec.channel("panel.power_w", "W");
    const auto b = rec.channel("rail.voltage_v", "V");
    EXPECT_NE(a, b);
    // Re-registering an existing name returns the same id (how
    // repeated days in one run share a schema), keeping its unit.
    EXPECT_EQ(rec.channel("panel.power_w"), a);
    EXPECT_EQ(rec.channelCount(), 2u);
    EXPECT_EQ(rec.channelUnit(a), "W");
}

TEST(Telemetry, SchemaFreezesAtFirstStep)
{
    TelemetryRecorder rec;
    rec.channel("x");
    rec.beginStep(0.0);
    rec.endStep();
    EXPECT_EQ(rec.channel("x"), 0u); // lookup of existing still fine
    EXPECT_DEATH(rec.channel("late"), "after sampling started");
}

TEST(Telemetry, EveryNKeepsFirstStepOfEachWindow)
{
    TelemetryRecorder rec(3, TelemetryMode::EveryN);
    const auto ch = rec.channel("v");
    for (int s = 0; s < 10; ++s) {
        rec.beginStep(static_cast<double>(s));
        rec.set(ch, static_cast<double>(s) * 10.0);
        rec.endStep();
    }
    // Steps 0, 3, 6, 9 are committed: the very first sample of a run
    // is always retained.
    ASSERT_EQ(rec.rowCount(), 4u);
    EXPECT_EQ(rec.stepCount(), 10u);
    const double want_times[] = {0.0, 3.0, 6.0, 9.0};
    for (std::size_t r = 0; r < 4; ++r) {
        EXPECT_DOUBLE_EQ(rec.rowTime(r), want_times[r]);
        EXPECT_DOUBLE_EQ(rec.value(r, ch), want_times[r] * 10.0);
    }
}

TEST(Telemetry, MinMaxPreservesMidBucketExtremes)
{
    TelemetryRecorder rec(5, TelemetryMode::MinMax);
    const auto ch = rec.channel("p");
    // A spike at step 2 and a dip at step 3, both mid-bucket: every-N
    // decimation at the same factor would drop both.
    const double values[] = {10.0, 11.0, 99.0, -5.0, 12.0};
    for (int s = 0; s < 5; ++s) {
        rec.beginStep(static_cast<double>(s));
        rec.set(ch, values[s]);
        rec.endStep();
    }
    // Two envelope rows: minima at the bucket start, maxima at the end.
    ASSERT_EQ(rec.rowCount(), 2u);
    EXPECT_DOUBLE_EQ(rec.rowTime(0), 0.0);
    EXPECT_DOUBLE_EQ(rec.value(0, ch), -5.0);
    EXPECT_DOUBLE_EQ(rec.rowTime(1), 4.0);
    EXPECT_DOUBLE_EQ(rec.value(1, ch), 99.0);
}

TEST(Telemetry, FlushCommitsThePartialDuskBucket)
{
    TelemetryRecorder rec(10, TelemetryMode::MinMax);
    const auto ch = rec.channel("p");
    for (int s = 0; s < 3; ++s) {
        rec.beginStep(static_cast<double>(s));
        rec.set(ch, static_cast<double>(s));
        rec.endStep();
    }
    EXPECT_EQ(rec.rowCount(), 0u); // bucket still open
    rec.flush();
    ASSERT_EQ(rec.rowCount(), 2u); // the dusk tail is never dropped
    EXPECT_DOUBLE_EQ(rec.value(0, ch), 0.0);
    EXPECT_DOUBLE_EQ(rec.value(1, ch), 2.0);
    rec.flush(); // idempotent on an empty bucket
    EXPECT_EQ(rec.rowCount(), 2u);
}

TEST(Telemetry, UnsetChannelsAreNanAndRenderEmpty)
{
    TelemetryRecorder rec;
    const auto a = rec.channel("a", "W");
    const auto b = rec.channel("b");
    rec.beginStep(1.5);
    rec.set(a, 7.0);
    rec.endStep(); // b never set this step
    EXPECT_TRUE(std::isnan(rec.value(0, b)));

    std::ostringstream os;
    rec.writeCsv(os);
    EXPECT_EQ(os.str(), "time_min,a[W],b\n1.5,7,\n");
}

TEST(Telemetry, ConcatIndexesUnitsByVectorPosition)
{
    TelemetryRecorder u0, u2;
    for (auto *rec : {&u0, &u2}) {
        const auto ch = rec->channel("v");
        rec->beginStep(0.0);
        rec->set(ch, rec == &u0 ? 1.0 : 2.0);
        rec->endStep();
    }
    // A null slot (a cached campaign unit) still advances the unit
    // column, so indices name grid positions.
    std::ostringstream os;
    TelemetryRecorder::writeCsvConcat({&u0, nullptr, &u2}, os);
    EXPECT_EQ(os.str(), "unit,time_min,v\n0,0,1\n2,0,2\n");
}

TEST(Telemetry, ClearKeepsChannelsDropsRows)
{
    TelemetryRecorder rec(2, TelemetryMode::EveryN);
    const auto ch = rec.channel("v");
    rec.beginStep(0.0);
    rec.set(ch, 1.0);
    rec.endStep();
    ASSERT_EQ(rec.rowCount(), 1u);
    rec.clear();
    EXPECT_EQ(rec.rowCount(), 0u);
    EXPECT_EQ(rec.stepCount(), 0u);
    EXPECT_EQ(rec.channelCount(), 1u);
    // Decimation restarts: step 0 after clear commits again.
    rec.beginStep(9.0);
    rec.set(ch, 3.0);
    rec.endStep();
    ASSERT_EQ(rec.rowCount(), 1u);
    EXPECT_DOUBLE_EQ(rec.rowTime(0), 9.0);
}

TEST(Telemetry, ParseModeTokens)
{
    TelemetryMode mode = TelemetryMode::EveryN;
    EXPECT_TRUE(parseTelemetryMode("minmax", mode));
    EXPECT_EQ(mode, TelemetryMode::MinMax);
    EXPECT_TRUE(parseTelemetryMode("every", mode));
    EXPECT_EQ(mode, TelemetryMode::EveryN);
    EXPECT_FALSE(parseTelemetryMode("sometimes", mode));
}

} // namespace
} // namespace solarcore::obs
