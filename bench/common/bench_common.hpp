/**
 * @file
 * Shared helpers for the experiment-reproduction binaries: a cached
 * standard panel/trace setup (one BP3180N module, seed-1 weather), a
 * one-call day runner, and the normalization helpers the paper's
 * figures use. Every bench binary prints the same rows/series the
 * paper reports; absolute values differ from the authors' testbed but
 * the shapes are the reproduction target (see EXPERIMENTS.md).
 */

#ifndef SOLARCORE_BENCH_COMMON_HPP
#define SOLARCORE_BENCH_COMMON_HPP

#include <string>

#include "core/solarcore.hpp"

namespace solarcore::bench {

/** The weather seed shared by every experiment binary. */
inline constexpr std::uint64_t kBenchSeed = 1;

/** The calibrated BP3180N module (built once). */
const pv::PvModule &standardModule();

/** The seed-1 daytime trace of a site-month (cached). */
const solar::SolarTrace &standardTrace(solar::SiteId site,
                                       solar::Month month);

/** Default simulation step used by the sweeps [seconds]. */
inline constexpr double kBenchDtSeconds = 30.0;

/**
 * Run one standard day.
 *
 * @param site, month  weather pattern
 * @param wl           workload mix
 * @param policy       power-management scheme
 * @param fixed_budget_w Fixed-Power budget (ignored for MPPT policies)
 * @param timeline     record the per-minute trace
 * @param dt_seconds   simulation step
 * @param recorders    optional recorders of the day (one set per task)
 */
core::DayResult runDay(solar::SiteId site, solar::Month month,
                       workload::WorkloadId wl, core::PolicyKind policy,
                       double fixed_budget_w = 75.0, bool timeline = false,
                       double dt_seconds = kBenchDtSeconds,
                       obs::Recorders *recorders = nullptr);

/**
 * Parse a `--threads=N` argument (0 or omitted: all hardware threads).
 * Shared by the sweep binaries so every figure can be reproduced
 * single-threaded (byte-identical output) or fanned across cores. A
 * value that is not a whole number, or is above ThreadPool::maxThreads(),
 * prints the usage and exits 2.
 */
int threadsFromArgs(int argc, char **argv);

/** Run the battery baseline for a site-month/workload. */
core::BatteryDayResult runBatteryDay(solar::SiteId site, solar::Month month,
                                     workload::WorkloadId wl,
                                     double derating_factor,
                                     double dt_seconds = kBenchDtSeconds);

/** "AZ-Jan"-style label. */
std::string siteMonthLabel(solar::SiteId site, solar::Month month);

} // namespace solarcore::bench

#endif // SOLARCORE_BENCH_COMMON_HPP
