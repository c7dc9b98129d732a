/**
 * @file
 * Tests for the Core and MultiCoreChip wrappers.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <type_traits>

#include "cpu/chip.hpp"
#include "workload/catalog.hpp"
#include "workload/multiprogram.hpp"

namespace solarcore::cpu {
namespace {

MultiCoreChip
makeChip(workload::WorkloadId id = workload::WorkloadId::HM2,
         std::uint64_t seed = 42)
{
    return MultiCoreChip(defaultChipConfig(), DvfsTable::paperDefault(),
                         EnergyParams{}, workload::workloadSet(id), seed);
}

TEST(Core, LevelChangesPowerAndThroughput)
{
    auto chip = makeChip();
    Core &c = chip.core(0);
    c.setLevel(0);
    const double p_low = c.powerW();
    const double t_low = c.throughput();
    c.setLevel(5);
    EXPECT_GT(c.powerW(), p_low);
    EXPECT_GT(c.throughput(), t_low);
}

TEST(Core, GatingZeroesThroughput)
{
    auto chip = makeChip();
    Core &c = chip.core(0);
    c.setGated(true);
    EXPECT_DOUBLE_EQ(c.throughput(), 0.0);
    EXPECT_LT(c.powerW(), 0.1);
    c.setGated(false);
    EXPECT_GT(c.throughput(), 0.0);
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/**
 * Every read of a core's model table against a fresh evaluation of the
 * models it was built from, bit for bit, over random workloads, DVFS
 * tables, phase positions (steps that cross phase boundaries), die
 * temperatures, levels, gates and thread motion.
 */
TEST(Core, WhatIfQueriesMatchActualState)
{
    const PerfModel perf(defaultChipConfig().core);
    const DvfsTable tables[] = {DvfsTable::paperDefault(),
                                DvfsTable::interpolated(3),
                                DvfsTable::interpolated(21)};
    const auto workloads = workload::allWorkloads();
    Rng rng(0x7ab1e5eedull);

    constexpr int kCases = 2000; // randomized chip states
    constexpr int kStatesPerChip = 20;
    int mismatches = 0;
    std::string first;
    auto check = [&](bool same, const std::string &what) {
        if (same)
            return;
        if (mismatches++ == 0)
            first = what;
    };

    for (int done = 0; done < kCases;) {
        const auto id = workloads[static_cast<std::size_t>(
            rng.uniformInt(0, workload::kNumWorkloads - 1))];
        const DvfsTable &table = tables[rng.uniformInt(0, 2)];
        MultiCoreChip chip(defaultChipConfig(), table, EnergyParams{},
                           workload::workloadSet(id), rng());
        const PowerModel &power = chip.powerModel();
        const int n = chip.numCores();
        for (int k = 0; k < kStatesPerChip && done < kCases; ++k, ++done) {
            chip.step(rng.uniform(0.0, 150.0));
            for (int i = 0; i < n; ++i) {
                Core &c = chip.core(i);
                c.setDieTempC(rng.uniform(-20.0, 120.0));
                c.setLevel(static_cast<int>(
                    rng.uniformInt(0, table.maxLevel())));
                c.setGated(rng.bernoulli(0.2));
            }
            if (rng.bernoulli(0.5))
                chip.swapWorkloads(static_cast<int>(rng.uniformInt(0, n - 1)),
                                   static_cast<int>(rng.uniformInt(0, n - 1)));

            double sum = 0.0;
            for (int i = 0; i < n; ++i) {
                const Core &c = chip.core(i);
                const PhaseProfile &ph = c.currentPhase();
                const std::string where = std::string(
                    workload::workloadName(id)) + " state " +
                    std::to_string(done) + " core " + std::to_string(i);
                double p_now = power.gatedPower().totalW();
                double ipc_now = 0.0;
                double t_now = 0.0;
                for (int l = 0; l < table.numLevels(); ++l) {
                    const double f = table.frequency(l);
                    const PerfEstimate est = perf.evaluate(ph, f);
                    const double p = power
                        .evaluate(ph, est, table.voltage(l), f,
                                  c.dieTempC())
                        .totalW();
                    const std::string at =
                        where + " level " + std::to_string(l);
                    check(sameBits(c.powerAtLevel(l), p),
                          "powerAtLevel " + at);
                    check(sameBits(c.throughputAtLevel(l),
                                   est.throughput(f)),
                          "throughputAtLevel " + at);
                    if (!c.gated() && l == c.level()) {
                        p_now = p;
                        ipc_now = est.ipc;
                        t_now = est.throughput(f);
                    }
                }
                check(sameBits(c.powerW(), p_now), "powerW " + where);
                check(sameBits(c.ipc(), ipc_now), "ipc " + where);
                check(sameBits(c.throughput(), t_now),
                      "throughput " + where);
                sum += p_now;
            }
            check(sameBits(chip.totalPower(), sum),
                  "totalPower state " + std::to_string(done));
        }
    }
    EXPECT_EQ(mismatches, 0) << "first mismatch: " << first;
}

TEST(Core, LevelOutOfRangePanics)
{
    auto chip = makeChip();
    const Core &c = chip.core(0);
    const int n = chip.dvfs().numLevels();
    EXPECT_DEATH(c.powerAtLevel(n), "out of range");
    EXPECT_DEATH(c.throughputAtLevel(n), "out of range");
    EXPECT_DEATH(c.powerAtLevel(-1), "out of range");
}

static_assert(!std::is_copy_constructible_v<MultiCoreChip> &&
                  !std::is_copy_assignable_v<MultiCoreChip> &&
                  !std::is_move_constructible_v<MultiCoreChip> &&
                  !std::is_move_assignable_v<MultiCoreChip>,
              "cores point into their chip: a chip must not be copied "
              "or moved");

TEST(Core, StepAccumulatesInstructionsAndEnergy)
{
    auto chip = makeChip();
    Core &c = chip.core(0);
    c.setLevel(5);
    const double thr = c.throughput();
    const double pw = c.powerW();
    c.step(1.0);
    // One second within one phase: exact accumulation.
    EXPECT_NEAR(c.instructionsRetired(), thr, thr * 1e-9);
    EXPECT_NEAR(c.energyJoules(), pw, pw * 1e-9);
}

TEST(Core, PhasePlaybackChangesOperatingPoint)
{
    auto chip = makeChip(workload::WorkloadId::H1);
    Core &c = chip.core(0);
    c.setLevel(5);
    // Walk through several phases and record the power trajectory;
    // art's phase swing must show up as distinct power values.
    double lo = 1e18;
    double hi = 0.0;
    for (int i = 0; i < 100; ++i) {
        c.step(30.0);
        const double p = c.powerW();
        lo = std::min(lo, p);
        hi = std::max(hi, p);
    }
    EXPECT_GT(hi - lo, 2.0); // watts of phase-driven ripple
}

TEST(Core, GatedStepConsumesResidualEnergyOnly)
{
    auto chip = makeChip();
    Core &c = chip.core(0);
    c.setGated(true);
    c.step(10.0);
    EXPECT_DOUBLE_EQ(c.instructionsRetired(), 0.0);
    EXPECT_NEAR(c.energyJoules(), 0.05 * 10.0, 1e-9);
}

TEST(Chip, AggregatesMatchCoreSums)
{
    auto chip = makeChip();
    chip.setAllLevels(3);
    double p = 0.0;
    double t = 0.0;
    for (int i = 0; i < chip.numCores(); ++i) {
        p += chip.core(i).powerW();
        t += chip.core(i).throughput();
    }
    EXPECT_NEAR(chip.totalPower(), p, 1e-9);
    EXPECT_NEAR(chip.totalThroughput(), t, 1e-6);
}

TEST(Chip, EightCoresByDefault)
{
    auto chip = makeChip();
    EXPECT_EQ(chip.numCores(), 8);
}

TEST(Chip, PowerEnvelope)
{
    // Chip max power must exceed any realistic solar budget and the
    // ungated min must stay in the tens of watts (PCPG goes lower).
    for (auto id : workload::allWorkloads()) {
        auto chip = makeChip(id);
        chip.setAllLevels(chip.dvfs().maxLevel());
        const double pmax = chip.totalPower();
        EXPECT_GT(pmax, 140.0) << workload::workloadName(id);
        EXPECT_LT(pmax, 260.0) << workload::workloadName(id);

        chip.setAllLevels(0);
        const double pmin = chip.totalPower();
        EXPECT_LT(pmin, 50.0) << workload::workloadName(id);

        chip.gateAll();
        EXPECT_LT(chip.totalPower(), 1.0) << workload::workloadName(id);
    }
}

TEST(Chip, SameSeedReproducesTrajectories)
{
    auto a = makeChip(workload::WorkloadId::ML2, 7);
    auto b = makeChip(workload::WorkloadId::ML2, 7);
    a.setAllLevels(4);
    b.setAllLevels(4);
    for (int i = 0; i < 50; ++i) {
        a.step(13.0);
        b.step(13.0);
    }
    EXPECT_DOUBLE_EQ(a.totalInstructions(), b.totalInstructions());
    EXPECT_DOUBLE_EQ(a.totalEnergy(), b.totalEnergy());
}

TEST(Chip, DifferentSeedsDecorrelatePhases)
{
    auto a = makeChip(workload::WorkloadId::H1, 1);
    auto b = makeChip(workload::WorkloadId::H1, 2);
    a.setAllLevels(5);
    b.setAllLevels(5);
    a.step(100.0);
    b.step(100.0);
    EXPECT_NE(a.totalInstructions(), b.totalInstructions());
}

TEST(Chip, IdealRegulatorsByDefault)
{
    auto chip = makeChip();
    chip.setAllLevels(3);
    EXPECT_FALSE(chip.hasVrmModel());
    EXPECT_DOUBLE_EQ(chip.inputPower(), chip.totalPower());
}

TEST(Chip, VrmModelAddsConversionLoss)
{
    auto chip = makeChip();
    chip.setAllLevels(3);
    chip.setVrmModel(VrmParams{});
    EXPECT_TRUE(chip.hasVrmModel());
    EXPECT_GT(chip.inputPower(), chip.totalPower());
    // ~10% regulator loss at typical operating points.
    EXPECT_LT(chip.inputPower(), 1.25 * chip.totalPower());
    chip.clearVrmModel();
    EXPECT_DOUBLE_EQ(chip.inputPower(), chip.totalPower());
}

TEST(Chip, VrmLossWorseAtLightLoad)
{
    // Light-load droop: the relative loss at the bottom level exceeds
    // the relative loss near the regulators' rated point.
    auto chip = makeChip();
    chip.setVrmModel(VrmParams{});
    chip.setAllLevels(0);
    const double light =
        chip.inputPower() / chip.totalPower();
    chip.setAllLevels(chip.dvfs().maxLevel());
    const double heavy =
        chip.inputPower() / chip.totalPower();
    EXPECT_GT(light, heavy);
}

TEST(Chip, HomogeneousWorkloadCoresDesynchronized)
{
    // Eight copies of art must not be phase-locked: per-core power at a
    // random instant should differ across cores.
    auto chip = makeChip(workload::WorkloadId::H1, 9);
    chip.setAllLevels(5);
    chip.step(200.0);
    double lo = 1e18;
    double hi = 0.0;
    for (int i = 0; i < chip.numCores(); ++i) {
        const double p = chip.core(i).powerW();
        lo = std::min(lo, p);
        hi = std::max(hi, p);
    }
    EXPECT_GT(hi - lo, 1.0);
}

} // namespace
} // namespace solarcore::cpu
