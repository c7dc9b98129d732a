/**
 * @file
 * Property-style sweeps across the policy/workload/site matrix: the
 * invariants every simulated day must satisfy regardless of
 * configuration, plus controller behaviour under supply ramps.
 */

#include <gtest/gtest.h>

#include "core/solarcore.hpp"
#include "obs/auditor.hpp"
#include "util/stats.hpp"

namespace solarcore::core {
namespace {

/** Invariants for every (policy, workload) combination. */
class PolicyWorkloadSweep
    : public ::testing::TestWithParam<
          std::tuple<PolicyKind, workload::WorkloadId>>
{
};

TEST_P(PolicyWorkloadSweep, DayInvariantsHold)
{
    const auto [policy, wl] = GetParam();
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::CO,
                                               solar::Month::Apr, 2);
    SimConfig cfg;
    cfg.policy = policy;
    cfg.fixedBudgetW = 60.0;
    cfg.dtSeconds = 60.0;
    cfg.recordTimeline = true;
    const auto r = simulateDay(module, trace, wl, cfg);

    // Energy invariants.
    EXPECT_GE(r.solarEnergyWh, 0.0);
    EXPECT_LE(r.utilization, 1.0 + 1e-9);
    EXPECT_NEAR(r.solarEnergyWh + r.gridEnergyWh, r.chipEnergyWh,
                0.01 * r.chipEnergyWh);

    // While on solar, never draw more than the instantaneous MPP.
    for (const auto &p : r.timeline) {
        if (p.onSolar) {
            ASSERT_LE(p.consumedW, p.budgetW * 1.001)
                << policyName(policy) << "/" << workload::workloadName(wl)
                << " @ " << p.minute;
        }
    }

    // Performance invariants.
    EXPECT_GE(r.totalInstructions, r.solarInstructions);
    EXPECT_GT(r.totalInstructions, 0.0);

    // Metric ranges.
    EXPECT_GE(r.effectiveFraction, 0.0);
    EXPECT_LE(r.effectiveFraction, 1.0);
    if (policy != PolicyKind::FixedPower) {
        EXPECT_LT(r.avgTrackingError, 0.4);
    } else {
        // Fixed-Power does not track: its gap to the moving budget is
        // structural (that is the paper's point), just well-defined.
        EXPECT_GE(r.avgTrackingError, 0.0);
        EXPECT_LE(r.avgTrackingError, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PolicyWorkloadSweep,
    ::testing::Combine(
        ::testing::Values(PolicyKind::FixedPower, PolicyKind::MpptIc,
                          PolicyKind::MpptRr, PolicyKind::MpptOpt),
        ::testing::Values(workload::WorkloadId::H1,
                          workload::WorkloadId::M2,
                          workload::WorkloadId::L1,
                          workload::WorkloadId::HM2,
                          workload::WorkloadId::ML2)));

/** The controller follows a rising and falling irradiance ramp. */
TEST(ControllerRamp, FollowsSupplyBothDirections)
{
    const auto module = pv::buildBp3180n();
    pv::PvArray array(module, 1, 1, {200.0, 25.0});
    cpu::MultiCoreChip chip(cpu::defaultChipConfig(),
                            cpu::DvfsTable::paperDefault(),
                            cpu::EnergyParams{},
                            workload::workloadSet(workload::WorkloadId::M1),
                            3);
    TprOptAdapter adapter;
    SolarCoreController ctl(array, chip, adapter);
    chip.gateAll();

    double prev_power = 0.0;
    // Ramp up: consumption must rise with the budget.
    for (double g = 200.0; g <= 1000.0; g += 100.0) {
        array.setEnvironment({g, 25.0});
        ASSERT_TRUE(ctl.track().solarViable) << g;
        const double p = chip.totalPower();
        const double budget = pv::findMpp(array).power;
        EXPECT_LE(p * (1.0 + ctl.config().marginFraction), budget + 1e-6);
        EXPECT_GE(p, prev_power - 1.0) << g; // monotone up to one notch
        prev_power = p;
    }
    // Ramp down: consumption must shed to stay under the budget.
    for (double g = 900.0; g >= 200.0; g -= 100.0) {
        array.setEnvironment({g, 25.0});
        ASSERT_TRUE(ctl.track().solarViable) << g;
        EXPECT_LE(chip.totalPower(), pv::findMpp(array).power + 1e-6)
            << g;
    }
}

/** Tracking with every policy converges near the MPP in one event. */
class PolicyConvergenceSweep
    : public ::testing::TestWithParam<PolicyKind>
{
};

TEST_P(PolicyConvergenceSweep, SingleTrackReachesBudgetNeighbourhood)
{
    const auto module = pv::buildBp3180n();
    pv::PvArray array(module, 1, 1, {750.0, 30.0});
    cpu::MultiCoreChip chip(cpu::defaultChipConfig(),
                            cpu::DvfsTable::paperDefault(),
                            cpu::EnergyParams{},
                            workload::workloadSet(workload::WorkloadId::L2),
                            5);
    auto adapter = makeAdapter(GetParam());
    SolarCoreController ctl(array, chip, *adapter);
    chip.gateAll();
    ASSERT_TRUE(ctl.track().solarViable);
    const double budget = pv::findMpp(array).power;
    EXPECT_GT(chip.totalPower(), 0.80 * budget) << policyName(GetParam());
    EXPECT_LE(chip.totalPower() * (1.0 + ctl.config().marginFraction),
              budget + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllTrackingPolicies, PolicyConvergenceSweep,
                         ::testing::Values(PolicyKind::MpptIc,
                                           PolicyKind::MpptRr,
                                           PolicyKind::MpptOpt));

/** DP allocation: a finer power grid never loses throughput. */
TEST(FixedPowerProperty, FinerGridNeverWorse)
{
    cpu::MultiCoreChip chip(cpu::defaultChipConfig(),
                            cpu::DvfsTable::paperDefault(),
                            cpu::EnergyParams{},
                            workload::workloadSet(workload::WorkloadId::HM2),
                            7);
    for (double budget : {40.0, 80.0, 120.0}) {
        const auto coarse = optimizeAllocation(chip, budget, 1.0);
        const auto fine = optimizeAllocation(chip, budget, 0.05);
        ASSERT_TRUE(coarse.feasible && fine.feasible);
        EXPECT_GE(fine.throughput, coarse.throughput - 1e-6) << budget;
    }
}

/** Workload-seed stability: metrics stay in a band across seeds. */
TEST(SeedStability, MetricsBandAcrossWorkloadSeeds)
{
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::AZ,
                                               solar::Month::Jul, 1);
    solarcore::RunningStats util;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SimConfig cfg;
        cfg.dtSeconds = 60.0;
        cfg.seed = seed;
        util.add(
            simulateDay(module, trace, workload::WorkloadId::HM2, cfg)
                .utilization);
    }
    // Same weather, different phase offsets: small spread only.
    EXPECT_LT(util.max() - util.min(), 0.05);
}

/** PCPG extends the harvestable supply range (paper Section 4.1). */
TEST(PcpgProperty, GatingExtendsEffectiveDuration)
{
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::TN,
                                               solar::Month::Jan, 1);
    SimConfig with;
    with.dtSeconds = 60.0;
    SimConfig without = with;
    without.pcpg = false;
    const auto rw = simulateDay(module, trace, workload::WorkloadId::M2,
                                with);
    const auto ro = simulateDay(module, trace, workload::WorkloadId::M2,
                                without);
    EXPECT_GT(rw.effectiveFraction, ro.effectiveFraction);
    EXPECT_GT(rw.utilization, ro.utilization);
    EXPECT_GT(rw.solarInstructions, ro.solarInstructions);
}

/**
 * A Fixed-Power day without PCPG never gates a core: the allocator
 * offers no gated state, and when nothing fits the day fails over to
 * the utility instead.
 */
TEST(PcpgProperty, FixedPowerDayHonoursGatingBan)
{
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::CO,
                                               solar::Month::Jul, 2);
    SimConfig with;
    with.policy = PolicyKind::FixedPower;
    with.fixedBudgetW = 30.0;
    with.dtSeconds = 60.0;
    SimConfig without = with;
    without.pcpg = false;
    obs::Auditor audit;
    without.audit = &audit;
    const auto rw = simulateDay(module, trace, workload::WorkloadId::HM2,
                                with);
    const auto ro = simulateDay(module, trace, workload::WorkloadId::HM2,
                                without);
    EXPECT_GT(audit.stepsAudited(), 0u);
    EXPECT_EQ(audit.count(obs::AuditCheck::DvfsLegality), 0u);
    EXPECT_LT(ro.solarInstructions, rw.solarInstructions);
}

/** The same for a battery day whose stable budget fits no ungated chip. */
TEST(PcpgProperty, BatteryDayHonoursGatingBan)
{
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::CO,
                                               solar::Month::Jul, 2);
    SimConfig with;
    with.dtSeconds = 60.0;
    SimConfig without = with;
    without.pcpg = false;
    obs::Auditor audit;
    without.audit = &audit;
    const auto rw = simulateBatteryDay(module, trace,
                                       workload::WorkloadId::HM2, 0.1, with);
    const auto ro = simulateBatteryDay(
        module, trace, workload::WorkloadId::HM2, 0.1, without);
    EXPECT_GT(audit.stepsAudited(), 0u);
    EXPECT_EQ(audit.count(obs::AuditCheck::DvfsLegality), 0u);
    EXPECT_GT(rw.consumedWh, 0.0);
    EXPECT_EQ(ro.consumedWh, 0.0); // nothing fits: the utility runs it
}

/** Fixed-power with a budget above the chip max behaves sanely. */
TEST(FixedPowerProperty, OversizedBudgetCapsAtChipMax)
{
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::AZ,
                                               solar::Month::Jul, 1);
    SimConfig cfg;
    cfg.policy = PolicyKind::FixedPower;
    cfg.fixedBudgetW = 500.0; // far above both chip max and panel MPP
    cfg.dtSeconds = 60.0;
    const auto r = simulateDay(module, trace, workload::WorkloadId::L1,
                               cfg);
    // The panel never reaches the 500 W transfer threshold: the system
    // stays on the grid all day.
    EXPECT_DOUBLE_EQ(r.solarEnergyWh, 0.0);
    EXPECT_DOUBLE_EQ(r.effectiveFraction, 0.0);
    EXPECT_GT(r.totalInstructions, 0.0);
}

} // namespace
} // namespace solarcore::core
