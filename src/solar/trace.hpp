/**
 * @file
 * Day-long irradiance/temperature traces and their generator.
 *
 * A SolarTrace is the synthetic stand-in for one MIDC daytime record
 * (paper Section 5): per-minute plane-of-array irradiance and ambient
 * temperature between 7:30 and 17:30 local time. Generation composes
 * the clear-sky model with the stochastic cloud model and a diurnal
 * temperature curve, all seeded deterministically per site/month/day.
 */

#ifndef SOLARCORE_SOLAR_TRACE_HPP
#define SOLARCORE_SOLAR_TRACE_HPP

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "solar/sites.hpp"

namespace solarcore::solar {

/** One sample of a daytime trace. */
struct TracePoint
{
    double minuteOfDay = 0.0; //!< minutes since local midnight
    double irradiance = 0.0;  //!< plane-of-array irradiance [W/m^2]
    double ambientC = 0.0;    //!< ambient air temperature [C]
};

/** The paper's evaluation window: 7:30 .. 17:30 local time. */
inline constexpr double kDayStartMinute = 7.5 * 60.0;
inline constexpr double kDayEndMinute = 17.5 * 60.0;

/** A uniformly sampled daytime irradiance/temperature record. */
class SolarTrace
{
  public:
    SolarTrace() = default;

    /**
     * @param points     uniformly spaced samples, ascending minuteOfDay
     * @param dt_minutes sample spacing [minutes]
     */
    SolarTrace(std::vector<TracePoint> points, double dt_minutes);

    bool empty() const { return points_.empty(); }
    std::size_t size() const { return points_.size(); }
    double dtMinutes() const { return dtMinutes_; }
    const TracePoint &point(std::size_t i) const { return points_.at(i); }
    const std::vector<TracePoint> &points() const { return points_; }

    double startMinute() const;
    double endMinute() const;

    /** Linear interpolation of irradiance at @p minute (clamped). */
    double irradianceAt(double minute) const;

    /** Linear interpolation of ambient temperature at @p minute. */
    double ambientAt(double minute) const;

    /** Integrated insolation over the record [kWh/m^2]. */
    double insolationKwhPerM2() const;

    /** Peak irradiance over the record [W/m^2]. */
    double peakIrradiance() const;

    /** Write as CSV: minute,irradiance,ambient_c. */
    void saveCsv(std::ostream &os) const;

    /** Parse the CSV format written by saveCsv. */
    static SolarTrace loadCsv(std::istream &is);

  private:
    std::vector<TracePoint> points_;
    double dtMinutes_ = 1.0;
};

/**
 * Generate the daytime trace of one representative day.
 *
 * @param site       MIDC station
 * @param month      evaluated month (day 15 of it)
 * @param seed       deterministic seed; same arguments = same trace
 * @param dt_minutes sample spacing, default 1 minute
 */
SolarTrace generateDayTrace(SiteId site, Month month, std::uint64_t seed,
                            double dt_minutes = 1.0);

/** The arguments that name a generated day: generateDayTrace(site,
 *  month, seed) at the default spacing. */
struct DayId
{
    SiteId site = SiteId::AZ;
    Month month = Month::Jan;
    std::uint64_t seed = 0;

    bool operator==(const DayId &) const = default;
};

/**
 * Generate a daytime trace for an arbitrary location and sky: the
 * building block behind generateDayTrace, exposed so users can study
 * sites and climates beyond the paper's four stations.
 *
 * @param latitude_deg     site latitude [deg N]
 * @param day_of_year      1..365
 * @param weather          cloud-regime mixture and temperature span
 * @param clearness_factor clear-sky scaling (altitude/aerosol proxy)
 * @param seed             deterministic seed
 * @param dt_minutes       sample spacing
 */
SolarTrace generateCustomTrace(double latitude_deg, int day_of_year,
                               const WeatherParams &weather,
                               double clearness_factor, std::uint64_t seed,
                               double dt_minutes = 1.0);

} // namespace solarcore::solar

#endif // SOLARCORE_SOLAR_TRACE_HPP
