/**
 * @file
 * Tests for PvArray::curveGapAt, the solve-free check of a panel
 * operating point the day loop's auditor runs every tracked step: on
 * the dawn-to-STC, cold-to-hot grid a point on the I-V curve has no
 * gap under the closed form and under the Newton oracle, and a point
 * 2 % of Isc off the curve fails checkPanelPoint's 1 % tolerance
 * while one 0.5 % off passes.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "obs/auditor.hpp"
#include "pv/bp3180n.hpp"
#include "pv/module.hpp"

namespace solarcore::pv {
namespace {

/** Dawn, then 200 W/m^2 to STC, each at a cold, an STC and a hot cell. */
std::vector<Environment>
environments()
{
    std::vector<Environment> envs;
    for (const double g : {20.0, 200.0, 500.0, 800.0, 1000.0})
        for (const double t : {-10.0, 25.0, 60.0})
            envs.push_back({g, t});
    return envs;
}

/** One module, and a 2-series x 3-parallel array of it. */
std::vector<PvArray>
arrays()
{
    const PvModule module = buildBp3180n();
    return {PvArray(module, 1, 1, kStc), PvArray(module, 2, 3, kStc)};
}

constexpr int kVoltages = 64; //!< points across [0, Voc]

/** Voltage k of kVoltages + 1 across [0, Voc]. */
double
voltageAt(const PvArray &array, int k)
{
    return array.openCircuitVoltage() * k / kVoltages;
}

void
expectOnCurvePointsHaveNoGap()
{
    for (PvArray array : arrays()) {
        for (const Environment &env : environments()) {
            array.setEnvironment(env);
            const double isc = array.shortCircuitCurrent();
            for (int k = 0; k <= kVoltages; ++k) {
                const double v = voltageAt(array, k);
                const CurveGap gap = array.curveGapAt(v, array.currentAt(v));
                EXPECT_LE(std::abs(gap.currentA), 1e-9 * isc)
                    << "G " << env.irradiance << " T " << env.cellTempC
                    << " v " << v;
                EXPECT_NEAR(gap.photoCurrentA, isc, 1e-6 * isc);
            }
        }
    }
}

TEST(CurveGap, OnCurvePointsHaveNoGap)
{
    expectOnCurvePointsHaveNoGap();
}

TEST(CurveGap, OnCurvePointsHaveNoGapUnderTheNewtonOracle)
{
    setNewtonIvSolve(true);
    expectOnCurvePointsHaveNoGap();
    setNewtonIvSolve(false);
}

TEST(CurveGap, PointsOffTheCurveFailTheAuditAtItsTolerance)
{
    obs::AuditorConfig cfg;
    ASSERT_EQ(cfg.curveToleranceFrac, 0.01);
    for (PvArray array : arrays()) {
        for (const Environment &env : environments()) {
            array.setEnvironment(env);
            const double isc = array.shortCircuitCurrent();
            for (int k = 0; k <= kVoltages; ++k) {
                const double v = voltageAt(array, k);
                const double on = array.currentAt(v);
                for (const double sign : {-1.0, 1.0}) {
                    obs::Auditor audit(cfg);
                    auto check = [&](double frac) {
                        const double i = on + sign * frac * isc;
                        const CurveGap gap = array.curveGapAt(v, i);
                        return audit.checkPanelPoint(i, i + gap.currentA,
                                                     gap.photoCurrentA,
                                                     "test point");
                    };
                    EXPECT_FALSE(check(0.02))
                        << "G " << env.irradiance << " T " << env.cellTempC
                        << " v " << v << " sign " << sign;
                    EXPECT_TRUE(check(0.005))
                        << "G " << env.irradiance << " T " << env.cellTempC
                        << " v " << v << " sign " << sign;
                }
            }
        }
    }
}

TEST(CurveGap, BlockingDiodeClampsTheCurveAtZero)
{
    // Past Voc the module's curve is 0 A, so an open-circuit point
    // there is on it.
    PvArray array = arrays().front();
    array.setEnvironment({800.0, 40.0});
    const double voc = array.openCircuitVoltage();
    EXPECT_EQ(array.curveGapAt(1.1 * voc, 0.0).currentA, 0.0);
    EXPECT_EQ(array.curveGapAt(2.0 * voc, 0.0).currentA, 0.0);
}

} // namespace
} // namespace solarcore::pv
