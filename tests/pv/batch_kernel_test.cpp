/**
 * @file
 * Parity, determinism and routing tests for the batched SoA MPP kernel
 * (pv/pv_kernel.hpp) against the per-lane scalar path, kept untouched
 * as the always-built parity oracle.
 *
 * The numeric contract: the batch kernel agrees with the scalar
 * Lambert-W path to ~1e-12 relative (far inside the golden-baseline
 * tolerances), dark lanes and Rs = 0 cells route through the *exact*
 * scalar formulas (bitwise), and lane math is elementwise with fixed
 * iteration counts, so results are bitwise independent of batch size,
 * lane position and tail padding. On a machine without AVX2 the
 * dispatched kernel is the Scalar oracle itself, and every comparison
 * below holds trivially.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "pv/cell.hpp"
#include "power/operating_point.hpp"
#include "pv/bp3180n.hpp"
#include "pv/mpp.hpp"
#include "pv/pv_kernel.hpp"
#include "pv/shading.hpp"
#include "workload/multiprogram.hpp"

namespace solarcore::pv {
namespace {

/** Restore the process-wide kernel selection on scope exit. */
struct KernelGuard
{
    PvKernel saved = selectedPvKernel();
    ~KernelGuard() { setPvKernel(saved); }
};

const PvModule &
testModule()
{
    static const PvModule m = buildBp3180n();
    return m;
}

/** The full (G, T) test grid, dark lanes included. */
std::vector<Environment>
envGrid()
{
    std::vector<Environment> envs;
    for (double g : {-10.0, 0.0, 1.0, 25.0, 150.0, 480.0, 725.0, 1000.0,
                     1100.0})
        for (double t : {-10.0, 0.0, 25.0, 45.0, 70.0})
            envs.push_back({g, t});
    return envs;
}

double
relDiff(double a, double b)
{
    const double scale = std::max({std::abs(a), std::abs(b), 1e-12});
    return std::abs(a - b) / scale;
}

/** |a - b| <= rtol * max(|a|, |b|) + atol, with a useful message. */
::testing::AssertionResult
near(double a, double b, double rtol, double atol)
{
    const double bound =
        rtol * std::max(std::abs(a), std::abs(b)) + atol;
    if (std::abs(a - b) <= bound)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << a << " vs " << b << " (|diff| " << std::abs(a - b)
        << " > bound " << bound << ")";
}

TEST(PvKernel, TokensRoundTripAndDetectIsSupported)
{
    for (PvKernel k : {PvKernel::Scalar, PvKernel::Avx2}) {
        if (pvKernelSupported(k)) {
            EXPECT_EQ(resolvePvKernel(pvKernelName(k)), k);
        }
    }
    EXPECT_TRUE(pvKernelSupported(detectPvKernel()));
}

TEST(PvKernel, ResolverAcceptsAutoAndSupportedKernelsOnly)
{
    EXPECT_EQ(resolvePvKernel("auto"), detectPvKernel());
    EXPECT_EQ(resolvePvKernel("scalar"), PvKernel::Scalar);
    EXPECT_EQ(resolvePvKernel("avx2").has_value(),
              pvKernelSupported(PvKernel::Avx2));
    for (const char *bad : {"portable", "sse9", "", "AVX2"})
        EXPECT_FALSE(resolvePvKernel(bad).has_value()) << bad;
}

TEST(PvKernel, FindMppBatchMatchesScalarOracleAcrossGrid)
{
    KernelGuard guard;
    const auto envs = envGrid();

    PvArray array(testModule(), 2, 3, kStc);
    std::vector<MppResult> oracle;
    for (const auto &env : envs) {
        array.setEnvironment(env);
        oracle.push_back(findMpp(array));
    }

    setPvKernel(detectPvKernel());
    std::vector<MppResult> got(envs.size());
    findMppBatch(testModule(), 2, 3, envs, got);
    for (std::size_t k = 0; k < envs.size(); ++k) {
        if (envs[k].irradiance <= 0.0) {
            EXPECT_EQ(got[k].power, 0.0);
            EXPECT_EQ(got[k].current, 0.0);
            continue;
        }
        EXPECT_TRUE(near(got[k].voltage, oracle[k].voltage, 1e-9, 1e-12))
            << pvKernelName(detectPvKernel())
            << " G=" << envs[k].irradiance << " T=" << envs[k].cellTempC;
        EXPECT_TRUE(near(got[k].current, oracle[k].current, 1e-9, 1e-12));
        EXPECT_TRUE(near(got[k].power, oracle[k].power, 1e-9, 1e-12));
    }

    // The Scalar kernel and the Newton oracle send every lane, dark
    // ones included, through findMpp(PvArray) itself: bitwise equal.
    auto expect_bitwise = [&](const std::vector<MppResult> &want,
                              const char *route) {
        std::vector<MppResult> got(envs.size());
        findMppBatch(testModule(), 2, 3, envs, got);
        for (std::size_t k = 0; k < envs.size(); ++k) {
            EXPECT_EQ(got[k].voltage, want[k].voltage)
                << route << " G=" << envs[k].irradiance
                << " T=" << envs[k].cellTempC;
            EXPECT_EQ(got[k].current, want[k].current) << route;
            EXPECT_EQ(got[k].power, want[k].power) << route;
        }
    };
    setPvKernel(PvKernel::Scalar);
    expect_bitwise(oracle, "scalar");

    setPvKernel(detectPvKernel());
    setNewtonIvSolve(true);
    std::vector<MppResult> newton;
    for (const auto &env : envs) {
        array.setEnvironment(env);
        newton.push_back(findMpp(array));
    }
    expect_bitwise(newton, "newton");
    setNewtonIvSolve(false);
}

TEST(PvKernel, BatchResultsIndependentOfBatchSize)
{
    KernelGuard guard;
    setPvKernel(detectPvKernel());
    // 17 lanes: exercises every remainder class of the 4-wide AVX2
    // groups and the 128-lane chunking is untouched.
    std::vector<Environment> envs;
    for (int k = 0; k < 17; ++k)
        envs.push_back({40.0 + 60.0 * k, -5.0 + 4.5 * k});

    std::vector<MppResult> whole(envs.size());
    findMppBatch(testModule(), 1, 1, envs, whole);

    for (std::size_t chunk : {std::size_t{1}, std::size_t{2},
                              std::size_t{3}, std::size_t{5},
                              std::size_t{8}, std::size_t{16}}) {
        std::vector<MppResult> pieces(envs.size());
        for (std::size_t base = 0; base < envs.size(); base += chunk) {
            const std::size_t m = std::min(chunk, envs.size() - base);
            findMppBatch(testModule(), 1, 1,
                         std::span(envs).subspan(base, m),
                         std::span(pieces).subspan(base, m));
        }
        for (std::size_t k = 0; k < envs.size(); ++k) {
            EXPECT_EQ(pieces[k].voltage, whole[k].voltage)
                << pvKernelName(detectPvKernel()) << " chunk=" << chunk
                << " lane=" << k;
            EXPECT_EQ(pieces[k].current, whole[k].current);
        }
    }
}

TEST(PvKernel, PreparedArrayMatchesPvArray)
{
    PvArray array(testModule(), 2, 2, kStc);
    PreparedArray prepared(testModule(), 2, 2);

    for (const auto &env : envGrid()) {
        array.setEnvironment(env);
        prepared.setEnvironment(env);

        // The MPP and feasibility threshold are bitwise legacy.
        const MppResult want = findMpp(array);
        EXPECT_EQ(prepared.mpp().voltage, want.voltage);
        EXPECT_EQ(prepared.mpp().current, want.current);
        EXPECT_EQ(prepared.mpp().power, want.power);
        EXPECT_EQ(prepared.dark(), env.irradiance <= 0.0);

        const double voc = array.openCircuitVoltage();
        for (double frac : {0.0, 0.4, 0.8, 0.97}) {
            const double v = frac * std::max(voc, 1.0);
            EXPECT_TRUE(near(prepared.currentAt(v), array.currentAt(v),
                             1e-12, 1e-12))
                << "G=" << env.irradiance << " T=" << env.cellTempC
                << " v=" << v;
        }
    }
}

TEST(PvKernel, PinRailPreparedMatchesLegacyPin)
{
    PvArray array(testModule(), 1, 1, kStc);
    PreparedArray prepared(testModule(), 1, 1);

    for (const auto &env : envGrid()) {
        array.setEnvironment(env);
        prepared.setEnvironment(env);
        const double pmpp = findMpp(array).power;
        for (double frac : {0.15, 0.5, 0.9, 0.99, 1.01, 2.0}) {
            const double demand = frac * std::max(pmpp, 1.0);
            power::DcDcConverter conv_a(0.5, 8.0, 0.95);
            power::DcDcConverter conv_b(0.5, 8.0, 0.95);
            const auto legacy =
                power::pinRailVoltage(array, conv_a, 12.0, demand);
            const auto fast =
                power::pinRailVoltage(prepared, conv_b, 12.0, demand);

            ASSERT_EQ(fast.valid, legacy.valid)
                << "G=" << env.irradiance << " T=" << env.cellTempC
                << " demand=" << demand;
            if (!legacy.valid)
                continue;
            EXPECT_LT(relDiff(fast.panel.voltage, legacy.panel.voltage),
                      1e-6);
            EXPECT_LT(relDiff(fast.panel.current, legacy.panel.current),
                      1e-6);
            EXPECT_LT(relDiff(conv_b.ratio(), conv_a.ratio()), 1e-6);
            EXPECT_EQ(fast.load.voltage, legacy.load.voltage);
            EXPECT_EQ(fast.load.current, legacy.load.current);
        }
    }
}

/** Bitwise equality of two doubles, NaN payloads and signed zeros
 *  included. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(PvKernel, AdoptPreparedMatchesSetEnvironment)
{
    // adopt(prepare(env)) must leave an array in the very state
    // setEnvironment(env) does: the same MPP, Voc and I-V curve bits,
    // and the same stable-branch roots, with the warm seed carried
    // across environments the same way. The states come from a third
    // array, as a day stage prepares them away from the controller.
    CellParams ideal = testModule().cell().params();
    ideal.seriesRes = 0.0;
    const PvModule rs0(SolarCell(ideal), testModule().cellsSeries(),
                       testModule().stringsParallel());
    const std::vector<Environment> envs = {
        {0.0, 12.0},    // dark
        {35.0, 6.0},    // dawn
        kStc,           // STC
        {1050.0, 72.0}, // hot
        {1050.0, 72.0}, // a repeat: setEnvironment is a no-op
        {820.0, -15.0}, // cold
        {0.0, 12.0},    // dark again, after a warm root
        kStc,
    };
    for (const PvModule *module : {&testModule(), &rs0}) {
        const PreparedArray stager(*module, 2, 3);
        PreparedArray set(*module, 2, 3);
        PreparedArray adopted(*module, 2, 3);
        for (std::size_t e = 0; e < envs.size(); ++e) {
            const Environment &env = envs[e];
            SCOPED_TRACE(::testing::Message()
                         << "Rs " << module->cell().params().seriesRes
                         << " env " << e);
            set.setEnvironment(env);
            adopted.adopt(stager.prepare(env));

            EXPECT_EQ(std::memcmp(&adopted.mpp(), &set.mpp(),
                                  sizeof(MppResult)),
                      0);
            EXPECT_EQ(adopted.dark(), set.dark());
            EXPECT_TRUE(sameBits(adopted.openCircuitVoltage(),
                                 set.openCircuitVoltage()));
            const double v_top =
                1.1 * std::max(set.openCircuitVoltage(), 1.0);
            for (int k = 0; k < 64; ++k) {
                const double v = v_top * k / 63.0;
                EXPECT_TRUE(
                    sameBits(adopted.currentAt(v), set.currentAt(v)))
                    << "v " << v;
            }
            // The last solve leaves a warm root inside the bracket,
            // which seeds the first solve at the next environment.
            for (double frac : {0.9, 0.3, 0.6, 0.999, 1.0, 1.5, 0.5}) {
                const double p = frac * set.mpp().power;
                double v_a = -1.0, i_a = -1.0, v_s = -1.0, i_s = -1.0;
                const bool ok_a = adopted.solveStableBranch(p, v_a, i_a);
                const bool ok_s = set.solveStableBranch(p, v_s, i_s);
                EXPECT_EQ(ok_a, ok_s) << "p " << p;
                EXPECT_TRUE(sameBits(v_a, v_s)) << "p " << p;
                EXPECT_TRUE(sameBits(i_a, i_s)) << "p " << p;
            }
        }
    }
}

TEST(PvKernel, AdoptKeepsTheWarmSeed)
{
    // Find demands p0, p1 at one environment where a solve of p1 seeded
    // by p0's root ends on other bits than a cold (midpoint-seeded)
    // solve of p1: there the warm seed is observable. Re-adopting the
    // environment's state between the two solves must keep the seed,
    // as the no-op setEnvironment of a repeated environment does.
    const Environment env{730.0, 41.0};
    const PreparedArray stager(testModule(), 1, 1);
    const PreparedEnvironment state = stager.prepare(env);
    const double pmpp = state.mpp.power;
    int witnesses = 0;
    for (int a = 1; a < 20; ++a) {
        for (int b = 1; b < 20; ++b) {
            const double p0 = pmpp * a / 20.0;
            const double p1 = pmpp * b / 20.0;
            double v = 0.0, i = 0.0;
            PreparedArray warm(testModule(), 1, 1);
            warm.setEnvironment(env);
            ASSERT_TRUE(warm.solveStableBranch(p0, v, i));
            warm.setEnvironment(env);
            double v_warm = 0.0, i_warm = 0.0;
            ASSERT_TRUE(warm.solveStableBranch(p1, v_warm, i_warm));
            PreparedArray cold(testModule(), 1, 1);
            cold.adopt(state);
            double v_cold = 0.0, i_cold = 0.0;
            ASSERT_TRUE(cold.solveStableBranch(p1, v_cold, i_cold));
            if (sameBits(v_warm, v_cold) && sameBits(i_warm, i_cold))
                continue;
            ++witnesses;
            PreparedArray adopted(testModule(), 1, 1);
            adopted.adopt(state);
            ASSERT_TRUE(adopted.solveStableBranch(p0, v, i));
            adopted.adopt(state);
            double v_adopt = 0.0, i_adopt = 0.0;
            ASSERT_TRUE(adopted.solveStableBranch(p1, v_adopt, i_adopt));
            EXPECT_TRUE(sameBits(v_adopt, v_warm) &&
                        sameBits(i_adopt, i_warm))
                << "p0 " << p0 << " p1 " << p1;
        }
    }
    EXPECT_GT(witnesses, 0);
}

TEST(PvKernel, PrepareIsPureAndSetEnvironmentRepreparesOnlyOnChange)
{
    // prepare() depends on the environment alone: two arrays, one
    // with a history, prepare the same bits.
    PreparedArray a(testModule(), 1, 1);
    const PreparedArray fresh(testModule(), 1, 1);
    a.setEnvironment({640.0, 33.0});
    double v = 0.0, i = 0.0;
    ASSERT_TRUE(a.solveStableBranch(0.5 * a.mpp().power, v, i));
    for (const Environment &env : {Environment{640.0, 33.0}, kStc}) {
        const PreparedEnvironment x = a.prepare(env);
        const PreparedEnvironment y = fresh.prepare(env);
        EXPECT_EQ(std::memcmp(&x.mpp, &y.mpp, sizeof(MppResult)), 0);
        for (const auto &[p, q] :
             {std::pair{x.vt, y.vt}, {x.iph, y.iph}, {x.i0, y.i0},
              {x.a, y.a}, {x.logC, y.logC}, {x.vocArray, y.vocArray},
              {x.wMpp, y.wMpp}, {x.wVoc, y.wVoc}})
            EXPECT_TRUE(sameBits(p, q));
    }
}

TEST(PvKernel, ShadedStringKeepsTheLegacyControllerPath)
{
    // The controller's rail pin depends on the panel alone: a
    // non-uniform ShadedString takes the legacy pin (partial shading
    // breaks the single-diode closed form) and a uniform PvArray the
    // PreparedArray pin, whatever the kernel. So a controller on either
    // panel must behave bitwise the same under every kernel selection,
    // through a tracking event and through a rail enforcement after
    // the light drops.
    KernelGuard guard;
    using Outcome = std::tuple<bool, double, double, double, double>;
    auto run = [&](PvKernel kernel, bool shaded) {
        setPvKernel(kernel);
        ShadedString shaded_string(testModule(),
                                   {{900.0, 45.0}, {250.0, 38.0}});
        PvArray array(testModule(), 2, 1, {900.0, 45.0});
        const IvSource &panel =
            shaded ? static_cast<const IvSource &>(shaded_string) : array;
        cpu::MultiCoreChip chip{
            cpu::defaultChipConfig(), cpu::DvfsTable::paperDefault(),
            cpu::EnergyParams{},
            workload::workloadSet(workload::WorkloadId::HM2), 42};
        core::TprOptAdapter adapter;
        core::SolarCoreController ctl(panel, chip, adapter);
        auto outcome = [&](const core::TrackResult &res) {
            return Outcome(res.solarViable, res.net.panel.voltage,
                           res.net.panel.current, ctl.converter().ratio(),
                           chip.totalPower());
        };
        const Outcome tracked = outcome(ctl.track());
        shaded_string.setEnvironment(0, {420.0, 40.0});
        array.setEnvironment({420.0, 40.0});
        return std::pair(tracked, outcome(ctl.enforceRail()));
    };

    for (bool shaded : {true, false}) {
        const auto scalar = run(PvKernel::Scalar, shaded);
        EXPECT_EQ(run(detectPvKernel(), shaded), scalar)
            << pvKernelName(detectPvKernel())
            << (shaded ? " shaded string" : " uniform array");
    }
}

} // namespace
} // namespace solarcore::pv
