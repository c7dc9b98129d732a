/**
 * @file
 * Tests for step candidates and throughput-power-ratio machinery.
 */

#include <gtest/gtest.h>

#include "core/tpr.hpp"
#include "workload/multiprogram.hpp"

namespace solarcore::core {
namespace {

cpu::MultiCoreChip
makeChip(workload::WorkloadId id = workload::WorkloadId::ML2)
{
    return cpu::MultiCoreChip(cpu::defaultChipConfig(),
                              cpu::DvfsTable::paperDefault(),
                              cpu::EnergyParams{},
                              workload::workloadSet(id), 42);
}

TEST(Step, UpFromMiddleLevel)
{
    auto chip = makeChip();
    chip.core(0).setLevel(2);
    const auto s = upStep(chip, 0);
    ASSERT_TRUE(s.valid);
    EXPECT_EQ(s.fromLevel, 2);
    EXPECT_EQ(s.toLevel, 3);
    EXPECT_FALSE(s.toGated);
    EXPECT_GT(s.deltaPowerW, 0.0);
    EXPECT_GT(s.deltaThroughput, 0.0);
}

TEST(Step, UpFromTopIsInvalid)
{
    auto chip = makeChip();
    chip.core(0).setLevel(chip.dvfs().maxLevel());
    EXPECT_FALSE(upStep(chip, 0).valid);
}

TEST(Step, UpFromGatedUngates)
{
    auto chip = makeChip();
    chip.core(0).setGated(true);
    const auto s = upStep(chip, 0);
    ASSERT_TRUE(s.valid);
    EXPECT_TRUE(s.fromGated);
    EXPECT_FALSE(s.toGated);
    EXPECT_EQ(s.toLevel, 0);
    EXPECT_GT(s.deltaPowerW, 0.0);
}

TEST(Step, DownFromBottomGates)
{
    auto chip = makeChip();
    chip.core(0).setLevel(0);
    const auto s = downStep(chip, 0);
    ASSERT_TRUE(s.valid);
    EXPECT_TRUE(s.toGated);
    EXPECT_LT(s.deltaPowerW, 0.0);
    EXPECT_LT(s.deltaThroughput, 0.0);
}

TEST(Step, DownFromGatedIsInvalid)
{
    auto chip = makeChip();
    chip.core(0).setGated(true);
    EXPECT_FALSE(downStep(chip, 0).valid);
}

TEST(Step, ApplyUpThenDownRestoresState)
{
    auto chip = makeChip();
    chip.core(2).setLevel(3);
    const auto before = chip.settings();
    const auto up = upStep(chip, 2);
    applyStep(chip, up);
    EXPECT_EQ(chip.core(2).level(), 4);
    const auto down = downStep(chip, 2);
    applyStep(chip, down);
    EXPECT_EQ(chip.settings()[2].level, before[2].level);
}

/**
 * revertStep against applySettings of the pre-step snapshot on a twin
 * chip, from random states (gated cores, level 0 with PCPG on and off,
 * top-level cores): every valid up and down candidate must come back
 * to the same settings() and the same transition counters, which the
 * stats dump reports as chip.core.*Transitions.
 */
TEST(Step, RevertStepMatchesApplySettings)
{
    Rng rng(0x5e7e57ull);
    const auto workloads = workload::allWorkloads();
    int reverted = 0;
    int ungates = 0;
    int gates = 0;
    for (int trial = 0; trial < 300; ++trial) {
        const auto id = workloads[static_cast<std::size_t>(
            rng.uniformInt(0, workload::kNumWorkloads - 1))];
        const auto seed = rng();
        cpu::MultiCoreChip chip(cpu::defaultChipConfig(),
                                cpu::DvfsTable::paperDefault(),
                                cpu::EnergyParams{},
                                workload::workloadSet(id), seed);
        cpu::MultiCoreChip twin(cpu::defaultChipConfig(),
                                cpu::DvfsTable::paperDefault(),
                                cpu::EnergyParams{},
                                workload::workloadSet(id), seed);
        const bool pcpg = rng.bernoulli(0.5);
        chip.setGatingAllowed(pcpg);
        twin.setGatingAllowed(pcpg);
        const int top = chip.dvfs().maxLevel();
        for (int i = 0; i < chip.numCores(); ++i) {
            int level = static_cast<int>(rng.uniformInt(0, top));
            bool gated = false;
            switch (rng.uniformInt(0, 3)) {
              case 0: gated = true; break; // at a random level
              case 1: level = 0; break;
              case 2: level = top; break;
              default: break;
            }
            for (auto *c : {&chip, &twin}) {
                c->core(i).setLevel(level);
                c->core(i).setGated(gated);
            }
        }

        for (int i = 0; i < chip.numCores(); ++i) {
            for (const bool up : {true, false}) {
                const auto s = up ? upStep(chip, i) : downStep(chip, i);
                if (!s.valid)
                    continue;
                const auto snapshot = chip.settings();
                applyStep(chip, s);
                revertStep(chip, s);
                applyStep(twin, s);
                twin.applySettings(snapshot);

                const auto after = chip.settings();
                for (int j = 0; j < chip.numCores(); ++j) {
                    const auto &a = after[static_cast<std::size_t>(j)];
                    const auto &b = snapshot[static_cast<std::size_t>(j)];
                    EXPECT_EQ(a.level, b.level) << "core " << j;
                    EXPECT_EQ(a.gated, b.gated) << "core " << j;
                    EXPECT_EQ(chip.core(j).dvfsTransitions(),
                              twin.core(j).dvfsTransitions())
                        << "core " << j;
                    EXPECT_EQ(chip.core(j).gateTransitions(),
                              twin.core(j).gateTransitions())
                        << "core " << j;
                }
                ++reverted;
                ungates += s.fromGated && !s.toGated ? 1 : 0;
                gates += !s.fromGated && s.toGated ? 1 : 0;
            }
        }
    }
    EXPECT_GT(reverted, 2000);
    EXPECT_GT(ungates, 100);
    EXPECT_GT(gates, 100);
}

TEST(Step, UpDownDeltasAreSymmetric)
{
    auto chip = makeChip();
    chip.core(1).setLevel(2);
    const auto up = upStep(chip, 1);
    applyStep(chip, up);
    const auto down = downStep(chip, 1);
    EXPECT_NEAR(down.deltaPowerW, -up.deltaPowerW, 1e-9);
    EXPECT_NEAR(down.deltaThroughput, -up.deltaThroughput, 1e-6);
}

TEST(Step, AllUpStepsSkipsMaxedCores)
{
    auto chip = makeChip();
    chip.setAllLevels(chip.dvfs().maxLevel());
    chip.core(3).setLevel(1);
    const auto steps = allUpSteps(chip);
    ASSERT_EQ(steps.size(), 1u);
    EXPECT_EQ(steps[0].coreIndex, 3);
}

TEST(Step, AllDownStepsSkipsGatedCores)
{
    auto chip = makeChip();
    chip.gateAll();
    chip.core(5).setGated(false);
    chip.core(5).setLevel(2);
    const auto steps = allDownSteps(chip);
    ASSERT_EQ(steps.size(), 1u);
    EXPECT_EQ(steps[0].coreIndex, 5);
}

TEST(Tpr, LowEpiCoreHasHigherUpTpr)
{
    // In ML2, core 4 runs mesa (low EPI) and core 1 runs mcf
    // (moderate EPI, memory bound). At equal levels, mesa gains more
    // throughput per watt.
    auto chip = makeChip(workload::WorkloadId::ML2);
    chip.setAllLevels(2);
    const auto mesa = upStep(chip, 4);
    const auto mcf = upStep(chip, 1);
    ASSERT_TRUE(mesa.valid && mcf.valid);
    EXPECT_GT(mesa.tpr(), mcf.tpr());
}

TEST(Tpr, DiminishingReturnsAtHigherLevels)
{
    // The cubic power law makes each additional notch more expensive
    // per unit of throughput: TPR falls as the level rises.
    auto chip = makeChip(workload::WorkloadId::M1);
    double prev = 1e300;
    for (int l = 0; l < chip.dvfs().maxLevel(); ++l) {
        chip.core(0).setLevel(l);
        const auto s = upStep(chip, 0);
        ASSERT_TRUE(s.valid);
        EXPECT_LT(s.tpr(), prev) << "level " << l;
        prev = s.tpr();
    }
}

} // namespace
} // namespace solarcore::core
