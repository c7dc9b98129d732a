/**
 * @file
 * Tests for the full-day simulation driver: conservation laws, metric
 * ranges, determinism, and the paper's qualitative policy ordering.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "power/battery.hpp"
#include "pv/pv_kernel.hpp"

namespace solarcore::core {
namespace {

SimConfig
fastConfig(PolicyKind policy = PolicyKind::MpptOpt)
{
    SimConfig cfg;
    cfg.policy = policy;
    cfg.dtSeconds = 60.0; // coarse step keeps tests quick
    return cfg;
}

DayResult
run(PolicyKind policy, workload::WorkloadId wl = workload::WorkloadId::HM2,
    solar::SiteId site = solar::SiteId::AZ,
    solar::Month month = solar::Month::Jan)
{
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(site, month, 1);
    return simulateDay(module, trace, wl, fastConfig(policy));
}

TEST(Simulation, MetricRanges)
{
    const auto r = run(PolicyKind::MpptOpt);
    EXPECT_GT(r.mppEnergyWh, 0.0);
    EXPECT_GT(r.solarEnergyWh, 0.0);
    EXPECT_LE(r.utilization, 1.0);
    EXPECT_GE(r.utilization, 0.0);
    EXPECT_GE(r.effectiveFraction, 0.0);
    EXPECT_LE(r.effectiveFraction, 1.0);
    EXPECT_GT(r.solarInstructions, 0.0);
    EXPECT_GE(r.totalInstructions, r.solarInstructions);
    EXPECT_GE(r.avgTrackingError, 0.0);
    EXPECT_LT(r.avgTrackingError, 0.5);
}

TEST(Simulation, SolarConsumptionNeverExceedsBudget)
{
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::AZ,
                                               solar::Month::Jul, 2);
    auto cfg = fastConfig(PolicyKind::MpptOpt);
    cfg.recordTimeline = true;
    const auto r = simulateDay(module, trace, workload::WorkloadId::H1, cfg);
    ASSERT_FALSE(r.timeline.empty());
    for (const auto &p : r.timeline) {
        if (p.onSolar) {
            EXPECT_LE(p.consumedW, p.budgetW * 1.001)
                << "minute " << p.minute;
        }
    }
}

TEST(Simulation, EnergyLedgerConsistent)
{
    // Solar + grid ledger must equal what the chip consumed.
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::CO,
                                               solar::Month::Apr, 3);
    auto cfg = fastConfig(PolicyKind::MpptRr);
    const auto r = simulateDay(module, trace, workload::WorkloadId::M2, cfg);
    // The ledger samples power at the start of each step while the
    // chip integrates through phase changes, so agreement is to the
    // step discretization, not exact.
    EXPECT_NEAR(r.solarEnergyWh + r.gridEnergyWh, r.chipEnergyWh,
                5e-3 * r.chipEnergyWh);
}

TEST(Simulation, WinterDawnFallsBackToGrid)
{
    // CO January sunrise is well after 7:30: the first minutes of the
    // window must be grid-powered.
    const auto r = run(PolicyKind::MpptOpt, workload::WorkloadId::M2,
                       solar::SiteId::CO, solar::Month::Jan);
    EXPECT_GT(r.gridEnergyWh, 0.0);
    EXPECT_LT(r.effectiveFraction, 1.0);
}

TEST(Simulation, Deterministic)
{
    const auto a = run(PolicyKind::MpptOpt);
    const auto b = run(PolicyKind::MpptOpt);
    EXPECT_DOUBLE_EQ(a.solarEnergyWh, b.solarEnergyWh);
    EXPECT_DOUBLE_EQ(a.solarInstructions, b.solarInstructions);
    EXPECT_DOUBLE_EQ(a.avgTrackingError, b.avgTrackingError);
}

TEST(Simulation, PolicyOrderingOnHeterogeneousWorkload)
{
    // Paper Section 6.4: MPPT&Opt > MPPT&RR > MPPT&IC in PTP.
    const auto opt = run(PolicyKind::MpptOpt, workload::WorkloadId::HM2);
    const auto rr = run(PolicyKind::MpptRr, workload::WorkloadId::HM2);
    const auto ic = run(PolicyKind::MpptIc, workload::WorkloadId::HM2);
    EXPECT_GT(opt.solarInstructions, rr.solarInstructions);
    EXPECT_GT(rr.solarInstructions, ic.solarInstructions);
}

TEST(Simulation, ThreadMotionRecoversIcPerformance)
{
    // Extension: migrating efficient programs onto the boosted cores
    // lets the concentration policy commit more instructions.
    const auto ic = run(PolicyKind::MpptIc, workload::WorkloadId::ML2);
    const auto tm = run(PolicyKind::MpptIcMotion,
                        workload::WorkloadId::ML2);
    EXPECT_GT(tm.solarInstructions, 1.05 * ic.solarInstructions);
    // Still at most Opt-level performance.
    const auto opt = run(PolicyKind::MpptOpt, workload::WorkloadId::ML2);
    EXPECT_LT(tm.solarInstructions, 1.05 * opt.solarInstructions);
}

TEST(Simulation, OptCloseToRoundRobinOnHomogeneousWorkload)
{
    // With 8 copies of one program the TPR heuristic degenerates to
    // near-round-robin; the gap should be small.
    const auto opt = run(PolicyKind::MpptOpt, workload::WorkloadId::M1);
    const auto rr = run(PolicyKind::MpptRr, workload::WorkloadId::M1);
    EXPECT_NEAR(opt.solarInstructions / rr.solarInstructions, 1.0, 0.08);
}

TEST(Simulation, FixedPowerWorseThanSolarCore)
{
    // Paper Section 6.2: even the best fixed budget reaches at most
    // ~70% of SolarCore's energy and PTP.
    const auto sc = run(PolicyKind::MpptOpt);
    for (double budget : {25.0, 50.0, 75.0, 100.0}) {
        const auto module = pv::buildBp3180n();
        const auto trace =
            solar::generateDayTrace(solar::SiteId::AZ, solar::Month::Jan, 1);
        auto cfg = fastConfig(PolicyKind::FixedPower);
        cfg.fixedBudgetW = budget;
        const auto r =
            simulateDay(module, trace, workload::WorkloadId::HM2, cfg);
        EXPECT_LT(r.solarEnergyWh, 0.75 * sc.solarEnergyWh) << budget;
        EXPECT_LT(r.solarInstructions, 0.75 * sc.solarInstructions)
            << budget;
    }
}

TEST(Simulation, HigherFixedBudgetShortensEffectiveDuration)
{
    // Paper Figure 15: the duration above threshold shrinks with the
    // budget.
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::AZ,
                                               solar::Month::Oct, 1);
    double prev = 2.0;
    for (double budget : {25.0, 50.0, 75.0, 100.0}) {
        auto cfg = fastConfig(PolicyKind::FixedPower);
        cfg.fixedBudgetW = budget;
        const auto r =
            simulateDay(module, trace, workload::WorkloadId::M1, cfg);
        EXPECT_LE(r.effectiveFraction, prev + 1e-9) << budget;
        prev = r.effectiveFraction;
    }
}

TEST(Simulation, SunnierSiteHigherUtilization)
{
    const auto az = run(PolicyKind::MpptOpt, workload::WorkloadId::HM2,
                        solar::SiteId::AZ, solar::Month::Oct);
    const auto tn = run(PolicyKind::MpptOpt, workload::WorkloadId::HM2,
                        solar::SiteId::TN, solar::Month::Oct);
    EXPECT_GT(az.utilization, tn.utilization);
    EXPECT_GT(az.effectiveFraction, tn.effectiveFraction);
}

TEST(Simulation, TimelineOnlyWhenRequested)
{
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::AZ,
                                               solar::Month::Jan, 1);
    auto cfg = fastConfig(PolicyKind::MpptOpt);
    cfg.recordTimeline = false;
    EXPECT_TRUE(simulateDay(module, trace, workload::WorkloadId::L1, cfg)
                    .timeline.empty());
    cfg.recordTimeline = true;
    const auto r = simulateDay(module, trace, workload::WorkloadId::L1, cfg);
    EXPECT_GE(r.timeline.size(), 590u);
    EXPECT_LE(r.timeline.size(), 610u);
}

TEST(Simulation, MppEnergySumsTheIntegerStepGrid)
{
    // The day steps at start + i * dt for i < floor(window / dt) + 1.
    // At 20 s and 36 s, accumulating minute += dt instead drops the
    // 17:30 step; 15 s and 60 s are binary fractions of a minute.
    const pv::PvKernel saved = pv::selectedPvKernel();
    pv::setPvKernel(pv::PvKernel::Scalar);
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::AZ,
                                               solar::Month::Jul, 7);
    for (double dt : {15.0, 20.0, 36.0, 60.0}) {
        const double dt_min = dt / 60.0;
        const int steps = static_cast<int>(std::floor(
                              (trace.endMinute() - trace.startMinute()) /
                              dt_min)) +
            1;
        pv::PvArray array(module, 1, 1, pv::kStc);
        double expected = 0.0;
        for (int i = 0; i < steps; ++i) {
            const double minute = trace.startMinute() + i * dt_min;
            const double g = trace.irradianceAt(minute);
            array.setEnvironment(
                {g, module.cellTempFromAmbient(trace.ambientAt(minute), g)});
            expected += pv::findMpp(array).power * dt / 3600.0;
        }
        auto cfg = fastConfig();
        cfg.dtSeconds = dt;
        const auto r =
            simulateDay(module, trace, workload::WorkloadId::HM2, cfg);
        EXPECT_EQ(r.mppEnergyWh, expected) << "dt " << dt << " s";
    }
    pv::setPvKernel(saved);
}

TEST(BatterySim, HonoursRcThermal)
{
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::AZ,
                                               solar::Month::Jul, 1);
    auto rc = fastConfig();
    rc.rcThermal = true;
    const auto with_rc = simulateBatteryDay(
        module, trace, workload::WorkloadId::HM2, 0.92, rc);
    const auto proxy = simulateBatteryDay(
        module, trace, workload::WorkloadId::HM2, 0.92, fastConfig());
    EXPECT_EQ(with_rc.budgetW, proxy.budgetW);
    EXPECT_NE(with_rc.instructions, proxy.instructions);
    EXPECT_NE(with_rc.consumedWh, proxy.consumedWh);
}

TEST(BatterySim, UpperBoundBeatsLowerBound)
{
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::AZ,
                                               solar::Month::Jan, 1);
    const auto cfg = fastConfig();
    const auto bu = simulateBatteryDay(module, trace,
                                       workload::WorkloadId::HM2,
                                       power::kBatteryUpperBound, cfg);
    const auto bl = simulateBatteryDay(module, trace,
                                       workload::WorkloadId::HM2,
                                       power::kBatteryLowerBound, cfg);
    EXPECT_GT(bu.instructions, bl.instructions);
    EXPECT_GT(bu.budgetW, bl.budgetW);
    EXPECT_NEAR(bu.budgetW / bl.budgetW, 0.92 / 0.81, 1e-9);
}

TEST(BatterySim, UtilizationBoundedByDerating)
{
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::CO,
                                               solar::Month::Jul, 1);
    const auto cfg = fastConfig();
    const auto b = simulateBatteryDay(module, trace,
                                      workload::WorkloadId::L2, 0.92, cfg);
    EXPECT_LE(b.utilization, 0.92 + 1e-9);
    EXPECT_GT(b.utilization, 0.5);
}

TEST(BatterySim, SolarCoreWithinBatteryBand)
{
    // Paper Figure 21: SolarCore's PTP sits between the battery
    // bounds (just below Battery-U). Allow a generous band: above
    // 80% of Battery-L, below Battery-U.
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::AZ,
                                               solar::Month::Jul, 1);
    const auto cfg = fastConfig();
    const auto sc = simulateDay(module, trace, workload::WorkloadId::HM2,
                                fastConfig(PolicyKind::MpptOpt));
    const auto bu = simulateBatteryDay(module, trace,
                                       workload::WorkloadId::HM2,
                                       power::kBatteryUpperBound, cfg);
    const auto bl = simulateBatteryDay(module, trace,
                                       workload::WorkloadId::HM2,
                                       power::kBatteryLowerBound, cfg);
    EXPECT_GT(sc.solarInstructions, 0.8 * bl.instructions);
    EXPECT_LT(sc.solarInstructions, 1.05 * bu.instructions);
}

} // namespace
} // namespace solarcore::core
