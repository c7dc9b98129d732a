/**
 * @file
 * The recorders of one unit of work -- a simulated day, a campaign
 * unit, one task of a figure's sweep -- and the one path that merges
 * and writes a run's recorders.
 *
 * A Recorders holds each of the five recorders (stats registry, event
 * trace, telemetry, profiler, auditor) only when the run's ObsOptions
 * ask for it. The day drivers read it through core::SimConfig; the
 * owner of a unit's scope attaches its profiler. writeRun() merges a
 * run's per-task recorders in task order, so every file it writes has
 * the same bytes at any thread count.
 */

#ifndef SOLARCORE_OBS_RECORDERS_HPP
#define SOLARCORE_OBS_RECORDERS_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/auditor.hpp"
#include "obs/obs_options.hpp"
#include "obs/profiler.hpp"
#include "obs/stats_registry.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace solarcore::obs {

class RunManifest;

/** The recorders of one unit of work; an absent one records nothing. */
struct Recorders
{
    std::unique_ptr<StatsRegistry> stats;
    std::unique_ptr<TraceBuffer> trace;
    std::unique_ptr<TelemetryRecorder> telemetry;
    std::unique_ptr<Profiler> profiler;
    std::unique_ptr<Auditor> audit;

    Recorders() = default;

    /**
     * Exactly the recorders @p opts asks for: stats for --stats-out, a
     * --trace-buffer event buffer for --trace-out, a telemetry recorder
     * at --telemetry-every and --telemetry-mode for --telemetry-out, a
     * profiler for --profile-out, and an auditor in the --audit mode
     * (counting by default) for --audit or --audit-out.
     */
    explicit Recorders(const ObsOptions &opts);

    /** Fold the auditor's counters into the stats, when both exist. */
    void foldAudit();
};

/** How a run lays out its telemetry. */
enum class TelemetryLayout : std::uint8_t
{
    Day,   //!< one task, the days solarcore_cli runs: the CSV has no
           //!< unit column, and a Chrome trace carries the channels
           //!< as counter tracks
    Tasks, //!< the CSV's unit column holds the task index; the Chrome
           //!< trace carries no counter tracks
};

/**
 * Merge a run's recorders and write every file @p opts requests but
 * the manifest.
 *
 * Stats, profiles and audits merge in task order; the trace buffers
 * merge through mergeBuffers, one Chrome lane per task that traced.
 *
 * @param tasks    the run's recorders in task order; a task not run
 *                 in this process has none
 * @param lanes    the Chrome trace lane name of each task
 * @param layout   the telemetry layout (Day takes one task)
 * @param stats    receives the merged stats: the tasks' registries
 *                 merge after what it already holds (a forked run's
 *                 worker registries)
 * @param manifest receives the sidecar entries: each file written,
 *                 the telemetry rows and steps, the profiled time,
 *                 the audit totals and the trace events full buffers
 *                 dropped (also warned about on stderr); the caller
 *                 adds its own entries and writes it
 */
void writeRun(const ObsOptions &opts, std::span<Recorders> tasks,
              const std::vector<std::string> &lanes, TelemetryLayout layout,
              StatsRegistry &stats, RunManifest &manifest);

/** Merge the stats of @p tasks into @p into, in task order. */
void mergeStats(std::span<const Recorders> tasks, StatsRegistry &into);

} // namespace solarcore::obs

#endif // SOLARCORE_OBS_RECORDERS_HPP
