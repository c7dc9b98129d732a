/**
 * @file
 * Declarative scenario grids for the campaign runner.
 *
 * A ScenarioGrid names the axes the paper's evaluation sweeps -- NREL
 * sites, months, control policies (the four day-simulation policies
 * plus the battery-equipped MPPT baseline), workload mixes and seeds
 * -- together with the shared simulation knobs. expandGrid() unrolls
 * the grid into an indexed list of work units in a fixed site-major
 * nesting order, so a unit's index (and therefore every summary row)
 * is a pure function of the grid, independent of thread count or
 * execution order.
 */

#ifndef SOLARCORE_CAMPAIGN_SCENARIO_HPP
#define SOLARCORE_CAMPAIGN_SCENARIO_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/load_adapter.hpp"
#include "power/battery.hpp"
#include "solar/sites.hpp"
#include "workload/multiprogram.hpp"

namespace solarcore::campaign {

/**
 * The five evaluated control schemes: the four SimConfig policies and
 * the paper's battery-equipped MPPT baseline (simulateBatteryDay).
 */
enum class CampaignPolicy
{
    MpptOpt = 0,
    MpptRr,
    MpptIc,
    MpptIcMotion,
    FixedPower,
    Battery,
};

/** CLI/key token of a policy: "opt", "rr", "ic", "icm", "fixed", "battery". */
const char *campaignPolicyToken(CampaignPolicy policy);

/** The day-simulation PolicyKind of a non-battery campaign policy. */
core::PolicyKind toSimPolicy(CampaignPolicy policy);

/** A declarative scenario matrix plus shared simulation knobs. */
struct ScenarioGrid
{
    std::vector<solar::SiteId> sites;
    std::vector<solar::Month> months;
    std::vector<CampaignPolicy> policies;
    std::vector<workload::WorkloadId> workloads;
    std::vector<std::uint64_t> seeds;

    double dtSeconds = 30.0;           //!< simulation step
    double fixedBudgetW = 75.0;        //!< Fixed-Power budget
    double batteryDerating = power::kBatteryUpperBound;
    double trackingPeriodMinutes = 10.0;

    /**
     * PV kernel token: "auto" (runtime dispatch), "scalar" or "avx2".
     * runCampaign resolves "auto" to the dispatched kernel
     * and records the *resolved* name in the grid signature and every
     * unit-cache key, so two runs whose summaries are byte-compatible
     * are guaranteed to have used the same kernel, and a cached unit
     * is never re-used under another kernel.
     */
    std::string pvKernel = "auto";

    /** Number of units the grid expands to. */
    std::size_t unitCount() const
    {
        return sites.size() * months.size() * policies.size() *
            workloads.size() * seeds.size();
    }
};

/**
 * Check that @p grid can run: no axis empty; dtSeconds, fixedBudgetW
 * and trackingPeriodMinutes positive and finite; batteryDerating in
 * (0, 1]. The daemon and the campaign CLI both refuse a grid that
 * fails, before a unit runs.
 * @return empty when the grid can run, else what is wrong with it
 */
std::string validateGrid(const ScenarioGrid &grid);

/** One expanded work unit (a single simulated day). */
struct ScenarioUnit
{
    int index = -1;                //!< position in the expanded grid
    int day = -1;                  //!< its (site, month, seed) day in
                                   //!< [0, dayCount(grid)): site-major,
                                   //!< then month, then seed; every
                                   //!< policy and workload replays it
    solar::SiteId site = solar::SiteId::AZ;
    solar::Month month = solar::Month::Jan;
    CampaignPolicy policy = CampaignPolicy::MpptOpt;
    workload::WorkloadId workload = workload::WorkloadId::HM2;
    std::uint64_t seed = 1;
};

/**
 * Unroll @p grid into indexed units. Nesting (outer to inner): site,
 * month, policy, workload, seed -- the paper's site-major table order.
 */
std::vector<ScenarioUnit> expandGrid(const ScenarioGrid &grid);

/** Number of (site, month, seed) days @p grid replays. */
std::size_t dayCount(const ScenarioGrid &grid);

/** Human-readable unit key, e.g. "AZ-Jan-opt-HM2-s1". */
std::string unitKey(const ScenarioUnit &unit);

/**
 * A stable one-line signature of the grid (axes and knobs). The run
 * manifest and status.json name the grid by it, and the planning
 * daemon keys its answer cache on it.
 */
std::string gridSignature(const ScenarioGrid &grid);

/**
 * Comma-list parsers for the CLI ("AZ,CO", "Jan,Jul", "opt,fixed",
 * "H1,HM2", "1,2,3"). Return false (leaving @p out unspecified) on an
 * unknown token or empty list.
 */
bool parseSiteList(std::string_view text, std::vector<solar::SiteId> &out);
bool parseMonthList(std::string_view text, std::vector<solar::Month> &out);
bool parsePolicyList(std::string_view text,
                     std::vector<CampaignPolicy> &out);
bool parseWorkloadList(std::string_view text,
                       std::vector<workload::WorkloadId> &out);
bool parseSeedList(std::string_view text,
                   std::vector<std::uint64_t> &out);

/**
 * Load a named preset grid:
 *  - "smoke": AZ,NC x Jan,Jul x opt,fixed x HM2, dt=120 s (CI gate)
 *  - "fig13": AZ-Jan, opt, H1/HM2/L1 at dt=15 s (the Figure 13 days)
 *  - "fig14": AZ-Jul, opt, H1/HM2/L1 at dt=15 s (the Figure 14 days)
 *  - "full":  4 sites x 4 months x 5 policies x H1/HM2/L1
 * @return false for an unknown name.
 */
bool applyPreset(std::string_view name, ScenarioGrid &grid);

} // namespace solarcore::campaign

#endif // SOLARCORE_CAMPAIGN_SCENARIO_HPP
