/**
 * @file
 * Tests for the hybrid direct-coupled + storage-buffer extension.
 */

#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "obs/recorders.hpp"

namespace solarcore::core {
namespace {

SimConfig
fastConfig()
{
    SimConfig cfg;
    cfg.dtSeconds = 60.0;
    return cfg;
}

HybridDayResult
runHybrid(double capacity_wh,
          solar::SiteId site = solar::SiteId::NC,
          solar::Month month = solar::Month::Apr)
{
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(site, month, 1);
    return simulateHybridDay(module, trace, workload::WorkloadId::HM2,
                             capacity_wh, fastConfig());
}

TEST(Hybrid, ZeroCapacityDegeneratesToPlainDay)
{
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::NC,
                                               solar::Month::Apr, 1);
    const auto plain = simulateDay(module, trace,
                                   workload::WorkloadId::HM2,
                                   fastConfig());
    const auto hybrid = runHybrid(0.0);
    EXPECT_DOUBLE_EQ(hybrid.day.solarEnergyWh, plain.solarEnergyWh);
    EXPECT_DOUBLE_EQ(hybrid.bufferedWh, 0.0);
    EXPECT_DOUBLE_EQ(hybrid.greenEnergyWh, plain.solarEnergyWh);
}

TEST(Hybrid, GreenFractionGrowsWithCapacity)
{
    double prev = -1.0;
    for (double cap : {0.0, 10.0, 50.0}) {
        const auto r = runHybrid(cap);
        EXPECT_GE(r.greenFraction, prev - 1e-9) << cap;
        prev = r.greenFraction;
    }
}

TEST(Hybrid, BufferReducesGridEnergy)
{
    const auto without = runHybrid(0.0);
    const auto with = runHybrid(25.0);
    EXPECT_LT(with.day.gridEnergyWh, without.day.gridEnergyWh);
    EXPECT_GT(with.bufferedWh, 0.0);
}

TEST(Hybrid, MetricsWellFormed)
{
    const auto r = runHybrid(25.0);
    EXPECT_GE(r.greenFraction, 0.0);
    EXPECT_LE(r.greenFraction, 1.0);
    EXPECT_LE(r.day.utilization, 1.0);
    EXPECT_GE(r.bufferedWh, 0.0);
    EXPECT_GT(r.day.solarInstructions, 0.0);
    EXPECT_GE(r.day.totalInstructions, r.day.solarInstructions);
    EXPECT_DOUBLE_EQ(r.batteryCapacityWh, 25.0);
}

TEST(Hybrid, Deterministic)
{
    const auto a = runHybrid(25.0);
    const auto b = runHybrid(25.0);
    EXPECT_DOUBLE_EQ(a.day.solarInstructions, b.day.solarInstructions);
    EXPECT_DOUBLE_EQ(a.bufferedWh, b.bufferedWh);
}

TEST(Hybrid, SteadySiteBenefitsLessThanVolatileSite)
{
    // AZ July is nearly always above threshold: the buffer has little
    // grid time to displace compared to a volatile NC April.
    const auto volatile_gain =
        runHybrid(25.0, solar::SiteId::NC, solar::Month::Apr)
            .greenFraction -
        runHybrid(0.0, solar::SiteId::NC, solar::Month::Apr)
            .greenFraction;
    const auto steady_gain =
        runHybrid(25.0, solar::SiteId::AZ, solar::Month::Jul)
            .greenFraction -
        runHybrid(0.0, solar::SiteId::AZ, solar::Month::Jul)
            .greenFraction;
    EXPECT_GT(volatile_gain, steady_gain);
}

using SiteMonth = std::pair<solar::SiteId, solar::Month>;

std::string
siteMonthName(const SiteMonth &sm)
{
    return std::string(solar::siteName(sm.first)) + "_" +
        solar::monthName(sm.second);
}

class HybridVsPlain
    : public ::testing::TestWithParam<std::tuple<SiteMonth, PolicyKind>>
{
};

// A buffer too small to ever bridge a step (1 nWh) must leave the
// day's control path untouched: the hybrid day is then the plain day.
TEST_P(HybridVsPlain, NanoWattHourBufferIsThePlainDay)
{
    const auto [site_month, policy] = GetParam();
    const auto module = pv::buildBp3180n();
    const auto trace =
        solar::generateDayTrace(site_month.first, site_month.second, 7);
    auto cfg = fastConfig();
    cfg.policy = policy;
    cfg.seed = 7;
    const auto plain =
        simulateDay(module, trace, workload::WorkloadId::HM2, cfg);
    const auto zero = simulateHybridDay(module, trace,
                                        workload::WorkloadId::HM2, 0.0,
                                        cfg);
    const auto tiny = simulateHybridDay(module, trace,
                                        workload::WorkloadId::HM2, 1e-9,
                                        cfg);
    const DayResult &day = tiny.day;
    EXPECT_EQ(day.retracks, plain.retracks);
    EXPECT_EQ(day.transferCount, plain.transferCount);
    EXPECT_EQ(day.controllerSteps, plain.controllerSteps);
    EXPECT_EQ(day.thermalThrottles, plain.thermalThrottles);
    EXPECT_EQ(day.solarInstructions, plain.solarInstructions);
    EXPECT_EQ(day.totalInstructions, plain.totalInstructions);
    EXPECT_EQ(day.effectiveFraction, plain.effectiveFraction);
    EXPECT_EQ(day.avgTrackingError, plain.avgTrackingError);
    constexpr double kWh = 1e-6;
    EXPECT_NEAR(day.mppEnergyWh, plain.mppEnergyWh, kWh);
    EXPECT_NEAR(day.solarEnergyWh, plain.solarEnergyWh, kWh);
    EXPECT_NEAR(day.gridEnergyWh, plain.gridEnergyWh, kWh);
    EXPECT_NEAR(day.chipEnergyWh, plain.chipEnergyWh, kWh);
    EXPECT_NEAR(day.utilization, plain.utilization, 1e-9);
    EXPECT_NEAR(tiny.greenEnergyWh, plain.solarEnergyWh, kWh);
    EXPECT_NEAR(tiny.bufferedWh, 0.0, kWh);
    EXPECT_NEAR(tiny.greenFraction, zero.greenFraction, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SitesAndPolicies, HybridVsPlain,
    ::testing::Combine(
        ::testing::Values(SiteMonth{solar::SiteId::AZ, solar::Month::Jan},
                          SiteMonth{solar::SiteId::NC, solar::Month::Apr},
                          SiteMonth{solar::SiteId::AZ, solar::Month::Jul}),
        ::testing::Values(PolicyKind::MpptOpt, PolicyKind::MpptRr,
                          PolicyKind::FixedPower)),
    [](const auto &info) {
        const PolicyKind policy = std::get<1>(info.param);
        return siteMonthName(std::get<0>(info.param)) + "_" +
            (policy == PolicyKind::MpptOpt  ? "Opt"
                 : policy == PolicyKind::MpptRr ? "RR"
                                                : "Fixed");
    });

class HybridLedger
    : public ::testing::TestWithParam<std::tuple<SiteMonth, double>>
{
};

// Solar energy is what the panel delivered: to the chip directly
// (green minus buffered), and to the buffer as the buffer absorbed it,
// seen from the panel side of the 0.95 charge path.
TEST_P(HybridLedger, SolarEnergyIsPanelToChipPlusAbsorbed)
{
    const auto [site_month, capacity_wh] = GetParam();
    const auto module = pv::buildBp3180n();
    const auto trace =
        solar::generateDayTrace(site_month.first, site_month.second, 7);
    obs::Recorders rec;
    rec.stats = std::make_unique<obs::StatsRegistry>();
    rec.audit = std::make_unique<obs::Auditor>();
    auto cfg = fastConfig();
    cfg.seed = 7;
    cfg.recorders = &rec;
    const auto r = simulateHybridDay(module, trace,
                                     workload::WorkloadId::HM2,
                                     capacity_wh, cfg);
    const double absorbed = rec.stats->value("battery.absorbedWh");
    EXPECT_GT(absorbed, 0.0);
    EXPECT_GT(r.bufferedWh, 0.0);
    EXPECT_DOUBLE_EQ(rec.stats->value("battery.deliveredWh"),
                     r.bufferedWh);
    const double expected =
        (r.greenEnergyWh - r.bufferedWh) + absorbed / 0.95;
    EXPECT_NEAR(r.day.solarEnergyWh, expected,
                1e-9 * std::abs(expected));
    EXPECT_LE(r.day.utilization, 1.0);
    EXPECT_EQ(rec.audit->violationCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SitesAndCapacities, HybridLedger,
    ::testing::Combine(
        ::testing::Values(SiteMonth{solar::SiteId::NC, solar::Month::Apr},
                          SiteMonth{solar::SiteId::AZ, solar::Month::Jan}),
        ::testing::Values(5.0, 25.0)),
    [](const auto &info) {
        return siteMonthName(std::get<0>(info.param)) + "_" +
            std::to_string(static_cast<int>(std::get<1>(info.param))) +
            "Wh";
    });

} // namespace
} // namespace solarcore::core
