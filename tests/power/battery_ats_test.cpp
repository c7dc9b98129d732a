/**
 * @file
 * Tests for the battery de-rating/state-of-charge models (paper
 * Table 3) and the automatic transfer switch.
 */

#include <gtest/gtest.h>

#include "power/ats.hpp"
#include "power/battery.hpp"

namespace solarcore::power {
namespace {

TEST(DeRating, Table3Values)
{
    const auto high = deRating(BatteryLevel::High);
    EXPECT_DOUBLE_EQ(high.mpptTrackingEff, 0.97);
    EXPECT_DOUBLE_EQ(high.batteryRoundTrip, 0.95);
    EXPECT_NEAR(high.overall(), 0.92, 0.003);

    const auto mod = deRating(BatteryLevel::Moderate);
    EXPECT_NEAR(mod.overall(), 0.81, 0.003);

    const auto low = deRating(BatteryLevel::Low);
    EXPECT_NEAR(low.overall(), 0.70, 0.003);
}

TEST(DeRating, PaperBoundsMatchHighLevel)
{
    EXPECT_NEAR(kBatteryUpperBound, 0.92, 1e-9);
    EXPECT_NEAR(kBatteryLowerBound, 0.81, 1e-9);
}

TEST(Battery, ChargeStoresWithLoss)
{
    Battery b(100.0, 0.9, 0.9, 0.0);
    const double absorbed = b.charge(50.0, 1.0); // 50 Wh offered
    EXPECT_DOUBLE_EQ(absorbed, 50.0);
    EXPECT_DOUBLE_EQ(b.storedWh(), 45.0);
    EXPECT_DOUBLE_EQ(b.lostWh(), 5.0);
}

TEST(Battery, ChargeSaturatesAtCapacity)
{
    Battery b(10.0, 1.0, 1.0, 0.0);
    const double absorbed = b.charge(100.0, 1.0);
    EXPECT_DOUBLE_EQ(absorbed, 10.0);
    EXPECT_DOUBLE_EQ(b.socFraction(), 1.0);
    EXPECT_DOUBLE_EQ(b.charge(100.0, 1.0), 0.0);
}

TEST(Battery, DischargeDeliversWithLoss)
{
    Battery b(100.0, 1.0, 0.8, 0.0);
    b.charge(100.0, 1.0);
    const double delivered = b.discharge(40.0, 1.0);
    EXPECT_DOUBLE_EQ(delivered, 40.0);
    EXPECT_DOUBLE_EQ(b.storedWh(), 50.0); // removed 50 to deliver 40
    EXPECT_DOUBLE_EQ(b.deliveredWh(), 40.0);
    EXPECT_DOUBLE_EQ(b.lostWh(), 10.0);
}

TEST(Battery, DischargeLimitedByStore)
{
    Battery b(100.0, 1.0, 1.0, 0.0);
    b.charge(30.0, 1.0);
    EXPECT_DOUBLE_EQ(b.discharge(100.0, 1.0), 30.0);
    EXPECT_DOUBLE_EQ(b.storedWh(), 0.0);
}

TEST(Battery, StartsEmptyAndEmptyDeliversNothing)
{
    Battery b(100.0);
    EXPECT_DOUBLE_EQ(b.storedWh(), 0.0);
    EXPECT_DOUBLE_EQ(b.socFraction(), 0.0);
    EXPECT_DOUBLE_EQ(b.discharge(50.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(b.deliveredWh(), 0.0);
    // Idling an empty battery must not drive the store negative.
    b.idle(24.0);
    EXPECT_DOUBLE_EQ(b.storedWh(), 0.0);
}

TEST(Battery, FullBatteryRejectsChargeButDischargesCleanly)
{
    Battery b(50.0, 1.0, 1.0, 0.0);
    b.charge(1000.0, 1.0);
    EXPECT_DOUBLE_EQ(b.socFraction(), 1.0);
    // At capacity, further offers are refused in full.
    EXPECT_DOUBLE_EQ(b.charge(10.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(b.storedWh(), 50.0);
    // The full store then drains to exactly empty, never below.
    EXPECT_DOUBLE_EQ(b.discharge(50.0, 1.0), 50.0);
    EXPECT_DOUBLE_EQ(b.discharge(50.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(b.storedWh(), 0.0);
}

TEST(Battery, SelfDischargeDrains)
{
    Battery b(100.0, 1.0, 1.0, 0.01);
    b.charge(100.0, 1.0);
    b.idle(10.0);
    EXPECT_LT(b.storedWh(), 100.0);
    EXPECT_GT(b.storedWh(), 85.0);
}

TEST(Battery, RoundTripEfficiencyComposes)
{
    // 0.95 charge x 0.9 discharge ~ 0.855 round trip.
    Battery b(1000.0, 0.95, 0.90, 0.0);
    b.charge(100.0, 1.0);
    const double out = b.discharge(1000.0, 1.0);
    EXPECT_NEAR(out / 100.0, 0.855, 1e-9);
}

TEST(TransferSwitch, StartsOnGrid)
{
    TransferSwitch ats(25.0, 2.0, 300.0);
    EXPECT_FALSE(ats.onSolar());
}

TEST(TransferSwitch, SwitchesAfterStableDelay)
{
    TransferSwitch ats(25.0, 2.0, 300.0);
    // Above threshold but not yet for the stabilization delay.
    for (int i = 0; i < 9; ++i) {
        ats.update(40.0, 30.0);
        EXPECT_FALSE(ats.onSolar()) << i;
    }
    ats.update(40.0, 30.0); // 300 s accumulated
    EXPECT_TRUE(ats.onSolar());
    EXPECT_EQ(ats.transferCount(), 1);
}

TEST(TransferSwitch, FlickerResetsDelay)
{
    TransferSwitch ats(25.0, 2.0, 300.0);
    for (int i = 0; i < 8; ++i)
        ats.update(40.0, 30.0);
    ats.update(10.0, 30.0); // dip resets the stability clock
    for (int i = 0; i < 9; ++i) {
        ats.update(40.0, 30.0);
        EXPECT_FALSE(ats.onSolar()) << i;
    }
    ats.update(40.0, 30.0);
    EXPECT_TRUE(ats.onSolar());
}

TEST(TransferSwitch, DropsToGridImmediately)
{
    TransferSwitch ats(25.0, 2.0, 0.0);
    ats.update(40.0, 1.0);
    EXPECT_TRUE(ats.onSolar());
    ats.update(20.0, 1.0);
    EXPECT_FALSE(ats.onSolar());
    EXPECT_EQ(ats.transferCount(), 2);
}

TEST(TransferSwitch, HysteresisBandRespected)
{
    TransferSwitch ats(25.0, 5.0, 0.0);
    ats.update(27.0, 1.0); // above threshold but inside hysteresis band
    EXPECT_FALSE(ats.onSolar());
    ats.update(31.0, 1.0);
    EXPECT_TRUE(ats.onSolar());
    ats.update(26.0, 1.0); // above threshold: stays on solar
    EXPECT_TRUE(ats.onSolar());
}

TEST(TransferSwitch, EnergyLedgersSplitBySource)
{
    TransferSwitch ats(25.0, 2.0, 0.0);
    ats.accountEnergy(100.0, 3600.0); // on grid
    ats.update(40.0, 1.0);
    ats.accountEnergy(50.0, 7200.0); // on solar
    EXPECT_DOUBLE_EQ(ats.gridEnergyWh(), 100.0);
    EXPECT_DOUBLE_EQ(ats.solarEnergyWh(), 100.0);
    EXPECT_DOUBLE_EQ(ats.gridSeconds(), 3600.0);
    EXPECT_DOUBLE_EQ(ats.solarSeconds(), 7200.0);
}

} // namespace
} // namespace solarcore::power
