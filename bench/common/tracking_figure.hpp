/**
 * @file
 * Shared implementation of the Figure 13/14 tracking-accuracy plots:
 * per-minute maximal power budget vs actual consumption for the H1
 * (high EPI, homogeneous), HM2 (high EPI, heterogeneous) and L1 (low
 * EPI, homogeneous) workloads at one site-month.
 */

#ifndef SOLARCORE_BENCH_TRACKING_FIGURE_HPP
#define SOLARCORE_BENCH_TRACKING_FIGURE_HPP

#include "common/bench_common.hpp"

namespace solarcore::bench {

/**
 * The main() of one tracking-accuracy figure for @p site / @p month.
 *
 * Flags: --csv prints machine-readable CSV instead of the aligned
 * table; --threads=N fans the per-workload days across a pool (the
 * table is assembled in workload order, so the output is byte-identical
 * for any thread count); the obs::ObsOptions file flags record the
 * three days, each task into its own recorders, merged in task order,
 * so every file is byte-identical for any thread count too. The
 * telemetry CSV's unit column is the task (0 H1, 1 HM2, 2 L1).
 * --metrics-out, --metrics-port and --postmortem-out end in the usage
 * text (exit 2): a figure serves no metrics and arms no flight
 * recorder.
 */
int trackingFigureMain(int argc, char **argv, solar::SiteId site,
                       solar::Month month, const char *figure_name);

} // namespace solarcore::bench

#endif // SOLARCORE_BENCH_TRACKING_FIGURE_HPP
