/**
 * @file
 * The per-unit metric record shared by the campaign runner, the
 * persistent unit cache and the summary exporter. One flat, fixed
 * schema: every field is a double (counters included) so the cache
 * entries and the summary serialize from a single field table and
 * stay in lockstep with the struct. Extending the schema = adding a
 * field here and a row to metricFields(); the field names are part of
 * every unit-cache key, so stale entries miss instead of being
 * misread.
 */

#ifndef SOLARCORE_CAMPAIGN_UNIT_METRICS_HPP
#define SOLARCORE_CAMPAIGN_UNIT_METRICS_HPP

#include <cstddef>

namespace solarcore::campaign {

/** Aggregated results of one scenario unit (one simulated day). */
struct UnitMetrics
{
    double mppEnergyWh = 0.0;     //!< theoretical maximum solar energy
    double solarEnergyWh = 0.0;   //!< energy harvested from the panel
    double gridEnergyWh = 0.0;    //!< energy drawn from the utility
    double chipEnergyWh = 0.0;    //!< energy the chip consumed
    double utilization = 0.0;     //!< MPPT efficiency: solar / MPP energy
    double effectiveFraction = 0.0; //!< solar-powered share of daytime
    double trackingError = 0.0;   //!< geomean per-period relative error
    double solarInstructions = 0.0; //!< throughput on solar power
    double totalInstructions = 0.0; //!< throughput incl. grid periods
    double retracks = 0.0;        //!< tracking events over the day
    double transfers = 0.0;       //!< ATS source switchovers
    double controllerSteps = 0.0; //!< DVFS notches the controller moved
    double thermalThrottles = 0.0; //!< forced notch-downs (RC model)
    double auditViolations = 0.0; //!< invariant-auditor violations (0
                                  //!< when auditing was off)
};

/** One row of the serialization schema. */
struct MetricField
{
    const char *name;
    double UnitMetrics::*member;
};

inline constexpr std::size_t kNumMetricFields = 14;

/** The fixed field table, in struct order. */
const MetricField (&metricFields())[kNumMetricFields];

} // namespace solarcore::campaign

#endif // SOLARCORE_CAMPAIGN_UNIT_METRICS_HPP
