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
