/**
 * @file
 * Tests for the SolarCore MPPT controller against a static panel.
 */

#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "pv/bp3180n.hpp"
#include "pv/mpp.hpp"
#include "workload/multiprogram.hpp"

namespace solarcore::core {
namespace {

struct Rig
{
    pv::PvModule module = pv::buildBp3180n();
    pv::PvArray array{module, 1, 1, pv::kStc};
    cpu::MultiCoreChip chip{cpu::defaultChipConfig(),
                            cpu::DvfsTable::paperDefault(),
                            cpu::EnergyParams{},
                            workload::workloadSet(workload::WorkloadId::HM2),
                            42};
    TprOptAdapter adapter;
};

TEST(Controller, TrackClimbsToNearMpp)
{
    Rig rig;
    rig.array.setEnvironment({800.0, 35.0});
    const double pmpp = pv::findMpp(rig.array).power;

    rig.chip.gateAll();
    SolarCoreController ctl(rig.array, rig.chip, rig.adapter);
    const auto res = ctl.track();
    ASSERT_TRUE(res.solarViable);

    const double consumed = rig.chip.totalPower();
    EXPECT_LE(consumed * (1.0 + ctl.config().marginFraction),
              pmpp + 1e-6);
    // Within a couple of DVFS notches of the MPP (notches are a few
    // watts on a ~120 W budget).
    EXPECT_GT(consumed, 0.85 * pmpp);
}

TEST(Controller, TrackShedsWhenOverloaded)
{
    Rig rig;
    rig.array.setEnvironment({300.0, 25.0}); // ~50 W available
    rig.chip.setAllLevels(rig.chip.dvfs().maxLevel()); // ~180 W demand
    SolarCoreController ctl(rig.array, rig.chip, rig.adapter);
    const auto res = ctl.track();
    ASSERT_TRUE(res.solarViable);
    EXPECT_GT(res.stepsDown, 0);
    const double pmpp = pv::findMpp(rig.array).power;
    EXPECT_LE(rig.chip.totalPower(), pmpp);
}

TEST(Controller, DarkPanelNotViable)
{
    Rig rig;
    rig.array.setEnvironment({0.0, 25.0});
    rig.chip.setAllLevels(2);
    SolarCoreController ctl(rig.array, rig.chip, rig.adapter);
    const auto res = ctl.track();
    EXPECT_FALSE(res.solarViable);
}

TEST(Controller, RailHeldAtNominal)
{
    Rig rig;
    rig.array.setEnvironment({700.0, 30.0});
    rig.chip.setAllLevels(0);
    SolarCoreController ctl(rig.array, rig.chip, rig.adapter);
    const auto res = ctl.track();
    ASSERT_TRUE(res.solarViable);
    EXPECT_NEAR(res.net.load.voltage, ctl.config().railNominalV, 1e-6);
    // The panel side operates on the stable branch: at or above Vmpp.
    const auto mpp = pv::findMpp(rig.array);
    EXPECT_GE(res.net.panel.voltage, mpp.voltage - 0.5);
}

TEST(Controller, EnforceRailShedsAfterCloudFront)
{
    Rig rig;
    rig.array.setEnvironment({900.0, 30.0});
    rig.chip.gateAll();
    SolarCoreController ctl(rig.array, rig.chip, rig.adapter);
    ASSERT_TRUE(ctl.track().solarViable);
    const double before = rig.chip.totalPower();

    // A cloud front cuts the available power by ~70%.
    rig.array.setEnvironment({250.0, 28.0});
    const auto res = ctl.enforceRail();
    ASSERT_TRUE(res.solarViable);
    EXPECT_LT(rig.chip.totalPower(), before);
    EXPECT_LE(rig.chip.totalPower(), pv::findMpp(rig.array).power);
}

TEST(Controller, EnforceRailNoopWhenSustainable)
{
    Rig rig;
    rig.array.setEnvironment({800.0, 30.0});
    rig.chip.setAllLevels(0); // tiny demand, plenty of sun
    SolarCoreController ctl(rig.array, rig.chip, rig.adapter);
    const auto before = rig.chip.settings();
    const auto res = ctl.enforceRail();
    ASSERT_TRUE(res.solarViable);
    const auto after = rig.chip.settings();
    for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(before[i].level, after[i].level);
        EXPECT_EQ(before[i].gated, after[i].gated);
    }
}

TEST(Controller, TrackParksOnTheStableBranch)
{
    // Step 2 of a tracking event is the pin's feasibility probe, which
    // settles on the stable branch: whatever the sun, the cell
    // temperature and the mix, the climb leaves the panel at or right
    // of its MPP (Figure 5-a), never on the left branch.
    const pv::PvModule module = pv::buildBp3180n();
    for (const auto id : {workload::WorkloadId::H1, workload::WorkloadId::HM2,
                          workload::WorkloadId::L1}) {
        for (const double g : {200.0, 500.0, 800.0, 1000.0}) {
            for (const double t : {10.0, 30.0, 50.0}) {
                SCOPED_TRACE(testing::Message()
                             << workload::workloadName(id) << " G=" << g
                             << " T=" << t);
                pv::PvArray array(module, 1, 1, {g, t});
                cpu::MultiCoreChip chip(cpu::defaultChipConfig(),
                                        cpu::DvfsTable::paperDefault(),
                                        cpu::EnergyParams{},
                                        workload::workloadSet(id), 42);
                chip.gateAll();
                TprOptAdapter adapter;
                SolarCoreController ctl(array, chip, adapter);
                const auto tr = ctl.track();
                ASSERT_TRUE(tr.solarViable);
                EXPECT_GE(tr.net.panel.voltage,
                          pv::findMpp(array).voltage - 1e-6);
            }
        }
    }
}

TEST(Controller, LeftOfMppRaisingTheRatioRaisesCurrent)
{
    // Park the converter so the panel sits far left of the MPP (low
    // panel voltage) with a fixed load, then probe.
    Rig rig;
    rig.array.setEnvironment({800.0, 30.0});
    rig.chip.setAllLevels(1);
    SolarCoreController ctl(rig.array, rig.chip, rig.adapter);
    ASSERT_TRUE(ctl.track().solarViable);

    // Manually drag the operating point left by dropping the ratio:
    // re-create a controller whose converter is mid-range. We reach
    // into the network directly for this white-box check.
    power::DcDcConverter probe_conv(0.3, 8.0, 1.0);
    probe_conv.setRatio(0.8); // panel at ~9.6 V, far left of ~35 V MPP
    const double r_load = power::loadResistance(12.0,
                                                rig.chip.totalPower());
    const auto base = power::solveNetwork(rig.array, probe_conv, r_load);
    ASSERT_TRUE(base.valid);
    power::DcDcConverter nudged = probe_conv;
    nudged.setRatio(0.8 + 0.02);
    const auto perturbed = power::solveNetwork(rig.array, nudged, r_load);
    ASSERT_TRUE(perturbed.valid);
    // Left of the MPP: raising k raises the output current (Table 1).
    EXPECT_GT(perturbed.load.current, base.load.current);
}

TEST(Controller, StepCountersAccumulate)
{
    Rig rig;
    rig.array.setEnvironment({600.0, 30.0});
    rig.chip.gateAll();
    SolarCoreController ctl(rig.array, rig.chip, rig.adapter);
    EXPECT_EQ(ctl.totalSteps(), 0);
    const auto res = ctl.track();
    EXPECT_GT(res.stepsUp, 0);
    EXPECT_EQ(ctl.totalSteps(), res.stepsUp + res.stepsDown);
}

TEST(Controller, MarginScalesHeadroom)
{
    // A larger configured margin must leave more unused power.
    double consumed[2] = {0.0, 0.0};
    int idx = 0;
    for (double margin : {0.02, 0.15}) {
        Rig rig;
        rig.array.setEnvironment({800.0, 30.0});
        rig.chip.gateAll();
        ControllerConfig cfg;
        cfg.marginFraction = margin;
        SolarCoreController ctl(rig.array, rig.chip, rig.adapter, cfg);
        ASSERT_TRUE(ctl.track().solarViable);
        consumed[idx++] = rig.chip.totalPower();
    }
    EXPECT_GT(consumed[0], consumed[1]);
}

} // namespace
} // namespace solarcore::core
