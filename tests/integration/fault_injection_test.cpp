/**
 * @file
 * Fault-injection and extreme-condition tests: lossy converters, fully
 * overcast days, heat waves and pathological DVFS tables must degrade
 * gracefully, never crash or violate invariants.
 */

#include <gtest/gtest.h>

#include "core/solarcore.hpp"

namespace solarcore {
namespace {

core::SimConfig
fastConfig()
{
    core::SimConfig cfg;
    cfg.dtSeconds = 60.0;
    return cfg;
}

TEST(FaultInjection, LossyConverterReducesUtilization)
{
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::AZ,
                                               solar::Month::Apr, 1);
    auto ideal = fastConfig();
    auto lossy = fastConfig();
    lossy.controller.converterEfficiency = 0.90;
    const auto ri = core::simulateDay(module, trace,
                                      workload::WorkloadId::M1, ideal);
    const auto rl = core::simulateDay(module, trace,
                                      workload::WorkloadId::M1, lossy);
    // Less useful work out of the same resource...
    EXPECT_LT(rl.solarInstructions, ri.solarInstructions);
    // ...while the panel-side draw stays within the budget.
    EXPECT_LE(rl.utilization, 1.0);
    EXPECT_GT(rl.utilization, 0.5);
}

TEST(FaultInjection, FullyOvercastDayFallsBackGracefully)
{
    solar::WeatherParams murk;
    murk.clearFrac = 0.0;
    murk.partlyFrac = 0.0;
    murk.overcastFrac = 1.0;
    murk.gustiness = 0.2;
    murk.tMinC = 2.0;
    murk.tMaxC = 8.0;
    // Deep winter + full overcast at high latitude: almost no power.
    const auto trace = solar::generateCustomTrace(55.0, 355, murk, 0.8, 9);
    const auto module = pv::buildBp3180n();
    const auto r = core::simulateDay(module, trace,
                                     workload::WorkloadId::HM2,
                                     fastConfig());
    EXPECT_LT(r.effectiveFraction, 0.2);
    EXPECT_GT(r.totalInstructions, 0.0); // grid keeps the chip alive
    EXPECT_GE(r.utilization, 0.0);
}

TEST(FaultInjection, HeatWaveReducesHarvestButNotCorrectness)
{
    solar::WeatherParams clear;
    clear.clearFrac = 1.0;
    clear.partlyFrac = 0.0;
    clear.overcastFrac = 0.0;
    clear.gustiness = 0.0;
    clear.tMinC = 20.0;
    clear.tMaxC = 30.0;
    solar::WeatherParams heat = clear;
    heat.tMinC = 38.0;
    heat.tMaxC = 48.0;
    const auto module = pv::buildBp3180n();
    const auto cool = solar::generateCustomTrace(33.0, 196, clear, 1.0, 4);
    const auto hot = solar::generateCustomTrace(33.0, 196, heat, 1.0, 4);
    const auto rc = core::simulateDay(module, cool,
                                      workload::WorkloadId::L1,
                                      fastConfig());
    const auto rh = core::simulateDay(module, hot,
                                      workload::WorkloadId::L1,
                                      fastConfig());
    // Hot panels produce less (Figure 7), so there is less to harvest.
    EXPECT_LT(rh.mppEnergyWh, rc.mppEnergyWh);
    EXPECT_LE(rh.utilization, 1.0);
}

TEST(FaultInjection, CoarseDvfsStillTracksSafely)
{
    // A 3-level table gives brutal notch sizes; the margin machinery
    // must keep consumption under the budget regardless.
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::AZ,
                                               solar::Month::Jul, 1);
    auto cfg = fastConfig();
    cfg.dvfsLevels = 3;
    cfg.recordTimeline = true;
    const auto r = core::simulateDay(module, trace,
                                     workload::WorkloadId::H1, cfg);
    for (const auto &p : r.timeline) {
        if (p.onSolar) {
            ASSERT_LE(p.consumedW, p.budgetW * 1.001);
        }
    }
    EXPECT_GT(r.utilization, 0.5);
}

TEST(FaultInjection, TinyPanelNeverEngages)
{
    // A panel array far smaller than the threshold leaves the system
    // permanently on the grid without dividing by zero anywhere.
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::TN,
                                               solar::Month::Jan, 1);
    auto cfg = fastConfig();
    cfg.thresholdW = 500.0; // unreachable
    const auto r = core::simulateDay(module, trace,
                                     workload::WorkloadId::M2, cfg);
    EXPECT_DOUBLE_EQ(r.solarEnergyWh, 0.0);
    EXPECT_DOUBLE_EQ(r.effectiveFraction, 0.0);
    EXPECT_DOUBLE_EQ(r.utilization, 0.0);
    EXPECT_GT(r.totalInstructions, 0.0);
}

TEST(FaultInjection, OversizedArrayClipsAtChipMax)
{
    // Three parallel strings can exceed the chip's maximum draw: the
    // controller must cap at all-cores-max without oscillating.
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::AZ,
                                               solar::Month::Jul, 1);
    auto cfg = fastConfig();
    cfg.modulesParallel = 3;
    cfg.recordTimeline = true;
    const auto r = core::simulateDay(module, trace,
                                     workload::WorkloadId::M2, cfg);
    // Mid-day clipping: utilization clearly below one, but tracking
    // never draws above the budget.
    EXPECT_LT(r.utilization, 0.85);
    for (const auto &p : r.timeline) {
        if (p.onSolar) {
            ASSERT_LE(p.consumedW, p.budgetW * 1.001);
        }
    }
}

} // namespace
} // namespace solarcore
