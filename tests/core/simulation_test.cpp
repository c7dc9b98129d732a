/**
 * @file
 * Tests for the full-day simulation driver: conservation laws, metric
 * ranges, determinism, the paper's qualitative policy ordering, the
 * drivers' input checks, and bit-for-bit equality of a day replayed
 * from a shared DayStage with the same day run from its trace.
 */

#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "obs/recorders.hpp"
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

TEST(SimulationDeathTest, EveryDriverRejectsABadStep)
{
    // stageDay, which every driver goes through, refuses the step
    // before the step grid divides the window by it.
    const auto module = pv::buildBp3180n();
    const auto trace =
        solar::generateDayTrace(solar::SiteId::AZ, solar::Month::Jan, 1);
    for (double dt : {0.0, -15.0, std::nan("")}) {
        SimConfig cfg;
        cfg.dtSeconds = dt;
        EXPECT_DEATH(simulateDay(module, trace, workload::WorkloadId::HM2,
                                 cfg),
                     "stageDay: bad step")
            << "dt " << dt;
        EXPECT_DEATH(simulateHybridDay(module, trace,
                                       workload::WorkloadId::HM2, 10.0,
                                       cfg),
                     "stageDay: bad step")
            << "dt " << dt;
        EXPECT_DEATH(simulateBatteryDay(module, trace,
                                        workload::WorkloadId::HM2, 0.92,
                                        cfg),
                     "stageDay: bad step")
            << "dt " << dt;
    }
}

TEST(SimulationDeathTest, EveryDriverRejectsAnEmptyTrace)
{
    const auto module = pv::buildBp3180n();
    const solar::SolarTrace empty;
    const SimConfig cfg;
    EXPECT_DEATH(simulateDay(module, empty, workload::WorkloadId::HM2, cfg),
                 "stageDay: empty trace");
    EXPECT_DEATH(simulateHybridDay(module, empty, workload::WorkloadId::HM2,
                                   10.0, cfg),
                 "stageDay: empty trace");
    EXPECT_DEATH(simulateBatteryDay(module, empty,
                                    workload::WorkloadId::HM2, 0.92, cfg),
                 "stageDay: empty trace");
}

TEST(SimulationDeathTest, StageMustMatchTheDayItReplays)
{
    const pv::PvKernel saved = pv::selectedPvKernel();
    const auto module = pv::buildBp3180n();
    const auto trace =
        solar::generateDayTrace(solar::SiteId::NC, solar::Month::Jul, 7);
    pv::setPvKernel(pv::PvKernel::Scalar);
    DayStage stage;
    stageDay(stage, module, trace, 60.0, 1, 1, true);

    SimConfig cfg = fastConfig();
    cfg.dtSeconds = 30.0;
    EXPECT_DEATH(simulateDay(module, stage, workload::WorkloadId::HM2, cfg),
                 "another dt or arrangement");
    EXPECT_DEATH(simulateBatteryDay(module, stage,
                                    workload::WorkloadId::HM2, 0.92, cfg),
                 "another dt or arrangement");
    cfg = fastConfig();
    cfg.modulesParallel = 2;
    EXPECT_DEATH(simulateDay(module, stage, workload::WorkloadId::HM2, cfg),
                 "another dt or arrangement");
    cfg = fastConfig();
    if (pv::pvKernelSupported(pv::PvKernel::Avx2)) {
        pv::setPvKernel(pv::PvKernel::Avx2);
        EXPECT_DEATH(simulateDay(module, stage, workload::WorkloadId::HM2,
                                 cfg),
                     "another PV kernel or oracle");
        pv::setPvKernel(pv::PvKernel::Scalar);
    }
    pv::setNewtonIvSolve(true);
    EXPECT_DEATH(simulateDay(module, stage, workload::WorkloadId::HM2, cfg),
                 "another PV kernel or oracle");
    pv::setNewtonIvSolve(false);
    pv::setPvKernel(saved);
}

/** Bitwise equality of two doubles. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Every recording sink a day driver feeds, rendered to bytes. */
struct SinkSet
{
    obs::Recorders rec;

    SinkSet()
    {
        rec.stats = std::make_unique<obs::StatsRegistry>();
        rec.trace = std::make_unique<obs::TraceBuffer>();
        rec.telemetry = std::make_unique<obs::TelemetryRecorder>(1);
        rec.audit = std::make_unique<obs::Auditor>();
    }

    SimConfig
    attach(SimConfig cfg)
    {
        cfg.recorders = &rec;
        cfg.recordTimeline = true;
        return cfg;
    }

    std::string
    render()
    {
        std::ostringstream os;
        rec.stats->dumpJson(os);
        os << "\n--\n" << rec.trace->dropped() << '\n';
        obs::exportJsonl(rec.trace->events(), os);
        os << "\n--\n";
        rec.telemetry->writeCsv(os);
        os << "\n--\n";
        rec.audit->writeJson(os);
        return os.str();
    }
};

/** DayResult fields compared bit for bit, the timeline included. */
void
expectSameDay(const DayResult &a, const DayResult &b)
{
    for (const auto &[x, y, name] :
         {std::tuple{a.mppEnergyWh, b.mppEnergyWh, "mppEnergyWh"},
          {a.solarEnergyWh, b.solarEnergyWh, "solarEnergyWh"},
          {a.gridEnergyWh, b.gridEnergyWh, "gridEnergyWh"},
          {a.chipEnergyWh, b.chipEnergyWh, "chipEnergyWh"},
          {a.utilization, b.utilization, "utilization"},
          {a.effectiveFraction, b.effectiveFraction, "effectiveFraction"},
          {a.solarInstructions, b.solarInstructions, "solarInstructions"},
          {a.totalInstructions, b.totalInstructions, "totalInstructions"},
          {a.avgTrackingError, b.avgTrackingError, "avgTrackingError"}})
        EXPECT_TRUE(sameBits(x, y)) << name << ": " << x << " vs " << y;
    EXPECT_EQ(a.transferCount, b.transferCount);
    EXPECT_EQ(a.thermalThrottles, b.thermalThrottles);
    EXPECT_EQ(a.retracks, b.retracks);
    EXPECT_EQ(a.controllerSteps, b.controllerSteps);
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (std::size_t i = 0; i < a.timeline.size(); ++i) {
        const TimelinePoint &p = a.timeline[i];
        const TimelinePoint &q = b.timeline[i];
        EXPECT_TRUE(sameBits(p.minute, q.minute) &&
                    sameBits(p.budgetW, q.budgetW) &&
                    sameBits(p.consumedW, q.consumedW) &&
                    p.onSolar == q.onSolar)
            << "timeline point " << i;
    }
}

void
expectSameBatteryDay(const BatteryDayResult &a, const BatteryDayResult &b)
{
    for (const auto &[x, y, name] :
         {std::tuple{a.deratingFactor, b.deratingFactor, "deratingFactor"},
          {a.budgetW, b.budgetW, "budgetW"},
          {a.instructions, b.instructions, "instructions"},
          {a.mppEnergyWh, b.mppEnergyWh, "mppEnergyWh"},
          {a.consumedWh, b.consumedWh, "consumedWh"},
          {a.utilization, b.utilization, "utilization"}})
        EXPECT_TRUE(sameBits(x, y)) << name << ": " << x << " vs " << y;
}

/** The panel states of @p stage are exactly prepare() of its steps. */
void
expectStagedPanelIsPrepare(const DayStage &stage, const pv::PvModule &module)
{
    if (pv::newtonIvSolve()) {
        EXPECT_TRUE(stage.panel.empty()); // the oracle pins lazily
        return;
    }
    ASSERT_EQ(stage.panel.size(), stage.steps());
    const pv::PreparedArray array(module, 1, 1);
    for (std::size_t i = 0; i < stage.steps(); ++i) {
        const pv::PreparedEnvironment want = array.prepare(stage.envs[i]);
        const pv::PreparedEnvironment &got = stage.panel[i];
        const bool same = got.dark == want.dark &&
            sameBits(got.env.irradiance, want.env.irradiance) &&
            sameBits(got.env.cellTempC, want.env.cellTempC) &&
            sameBits(got.vt, want.vt) && sameBits(got.iph, want.iph) &&
            sameBits(got.i0, want.i0) && sameBits(got.a, want.a) &&
            sameBits(got.logC, want.logC) &&
            sameBits(got.vocArray, want.vocArray) &&
            sameBits(got.mpp.voltage, want.mpp.voltage) &&
            sameBits(got.mpp.current, want.mpp.current) &&
            sameBits(got.mpp.power, want.mpp.power) &&
            sameBits(got.wMpp, want.wMpp) && sameBits(got.wVoc, want.wVoc);
        ASSERT_TRUE(same) << "staged panel state of step " << i;
    }
}

/** How the PV layer solves: the dispatched kernel, the Scalar kernel,
 *  or the Newton oracle (under the Scalar kernel). */
enum class PvMode
{
    Dispatched,
    Scalar,
    Newton,
};

/** A day of the grid: site and month. */
using SiteMonth = std::pair<solar::SiteId, solar::Month>;

class StagedDay : public ::testing::TestWithParam<
                      std::tuple<PvMode, double, SiteMonth>>
{
  protected:
    void SetUp() override
    {
        const PvMode mode = std::get<0>(GetParam());
        pv::setPvKernel(mode == PvMode::Dispatched ? pv::detectPvKernel()
                                                   : pv::PvKernel::Scalar);
        pv::setNewtonIvSolve(mode == PvMode::Newton);
    }

    void TearDown() override
    {
        pv::setNewtonIvSolve(false);
        pv::setPvKernel(saved_);
    }

  private:
    pv::PvKernel saved_ = pv::selectedPvKernel();
};

TEST_P(StagedDay, EqualsTheDayRunFromItsTrace)
{
    // Every campaign policy (battery included), three mixes, two days
    // and two seeds: the stage overloads, with the controller's panel
    // constants staged, must give the trace overloads' DayResult and
    // every sink's bytes.
    const double dt = std::get<1>(GetParam());
    const auto [site, month] = std::get<2>(GetParam());
    const auto module = pv::buildBp3180n();
    const PolicyKind kPolicies[] = {PolicyKind::MpptOpt, PolicyKind::MpptRr,
                                    PolicyKind::MpptIc,
                                    PolicyKind::MpptIcMotion,
                                    PolicyKind::FixedPower};
    for (std::uint64_t seed : {1u, 7u}) {
        const auto trace = solar::generateDayTrace(site, month, seed);
        DayStage stage;
        stageDay(stage, module, trace, dt, 1, 1, true);
        expectStagedPanelIsPrepare(stage, module);
        SimConfig base = fastConfig();
        base.dtSeconds = dt;
        base.seed = seed;
        for (auto wl : {workload::WorkloadId::H1, workload::WorkloadId::HM2,
                        workload::WorkloadId::L1}) {
            SCOPED_TRACE(::testing::Message()
                         << solar::siteName(site) << "-"
                         << solar::monthName(month) << " seed " << seed
                         << " " << workload::workloadName(wl) << " dt "
                         << dt);
            for (PolicyKind policy : kPolicies) {
                SCOPED_TRACE(::testing::Message()
                             << "policy " << static_cast<int>(policy));
                base.policy = policy;
                SinkSet lone, shared;
                const DayResult a =
                    simulateDay(module, trace, wl, lone.attach(base));
                const DayResult b =
                    simulateDay(module, stage, wl, shared.attach(base));
                expectSameDay(a, b);
                EXPECT_TRUE(lone.render() == shared.render())
                    << "sink outputs differ";
            }
            SinkSet lone, shared;
            const BatteryDayResult a = simulateBatteryDay(
                module, trace, wl, power::kBatteryUpperBound,
                lone.attach(base));
            const BatteryDayResult b = simulateBatteryDay(
                module, stage, wl, power::kBatteryUpperBound,
                shared.attach(base));
            expectSameBatteryDay(a, b);
            EXPECT_TRUE(lone.render() == shared.render())
                << "battery sink outputs differ";
        }
    }
}

TEST(StagedFlatDay, KeepsTheWarmSeedAcrossRepeatedEnvironments)
{
    // Under constant light and heat every step has the same
    // environment bits: a day run from its trace prepares the panel
    // once and keeps the pin solver's warm seed all day, so a staged
    // day, which adopts the state every step, must keep it too.
    const auto module = pv::buildBp3180n();
    std::vector<solar::TracePoint> points;
    for (double m = solar::kDayStartMinute; m <= solar::kDayEndMinute;
         m += 1.0)
        points.push_back({m, 640.0, 24.0});
    const solar::SolarTrace flat(std::move(points), 1.0);
    for (double dt : {15.0, 60.0}) {
        DayStage stage;
        stageDay(stage, module, flat, dt, 1, 1, true);
        for (PolicyKind policy : {PolicyKind::MpptOpt, PolicyKind::MpptRr,
                                  PolicyKind::MpptIcMotion}) {
            SimConfig cfg = fastConfig(policy);
            cfg.dtSeconds = dt;
            SinkSet lone, shared;
            expectSameDay(simulateDay(module, flat, workload::WorkloadId::HM2,
                                      lone.attach(cfg)),
                          simulateDay(module, stage,
                                      workload::WorkloadId::HM2,
                                      shared.attach(cfg)));
            EXPECT_TRUE(lone.render() == shared.render())
                << "dt " << dt << " policy " << static_cast<int>(policy);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    EveryPvMode, StagedDay,
    ::testing::Combine(::testing::Values(PvMode::Dispatched, PvMode::Scalar,
                                         PvMode::Newton),
                       ::testing::Values(15.0, 30.0, 60.0),
                       ::testing::Values(
                           SiteMonth{solar::SiteId::AZ, solar::Month::Jan},
                           SiteMonth{solar::SiteId::NC, solar::Month::Jul})),
    [](const ::testing::TestParamInfo<StagedDay::ParamType> &info) {
        const PvMode mode = std::get<0>(info.param);
        const SiteMonth day = std::get<2>(info.param);
        return std::string(mode == PvMode::Dispatched ? "Dispatched"
                               : mode == PvMode::Scalar ? "Scalar"
                                                        : "Newton") +
            "_dt" + std::to_string(static_cast<int>(std::get<1>(info.param))) +
            "_" + solar::siteName(day.first) + solar::monthName(day.second);
    });

} // namespace
} // namespace solarcore::core
