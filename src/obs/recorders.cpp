#include "recorders.hpp"

#include <fstream>
#include <string_view>
#include <vector>

#include "obs/manifest.hpp"
#include "util/logging.hpp"

namespace solarcore::obs {

namespace {

bool
hasSuffix(std::string_view s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
        s.substr(s.size() - suffix.size()) == suffix;
}

std::ofstream
openOut(const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        SC_WARN("obs: cannot open output file '", path, "'");
    return os;
}

/** The auditor --audit asks for: --audit=off with --audit-out counts. */
AuditorConfig
auditorConfig(const ObsOptions &opts)
{
    AuditorConfig audit_cfg;
    if (opts.audit != AuditMode::Off)
        audit_cfg.mode = opts.audit;
    return audit_cfg;
}

} // namespace

Recorders::Recorders(const ObsOptions &opts)
{
    if (!opts.statsOut.empty())
        stats = std::make_unique<StatsRegistry>();
    if (!opts.traceOut.empty())
        trace = std::make_unique<TraceBuffer>(opts.traceBufferCap);
    if (!opts.telemetryOut.empty())
        telemetry = std::make_unique<TelemetryRecorder>(
            opts.telemetryEvery, opts.telemetryMode);
    if (!opts.profileOut.empty())
        profiler = std::make_unique<Profiler>();
    if (opts.auditRequested())
        audit = std::make_unique<Auditor>(auditorConfig(opts));
}

void
Recorders::foldAudit()
{
    if (audit && stats)
        audit->foldInto(*stats);
}

void
mergeStats(std::span<const Recorders> tasks, StatsRegistry &into)
{
    for (const Recorders &task : tasks)
        if (task.stats)
            into.merge(*task.stats);
}

void
writeRun(const ObsOptions &opts, std::span<Recorders> tasks,
         const std::vector<std::string> &lanes, TelemetryLayout layout,
         StatsRegistry &stats, RunManifest &manifest)
{
    SC_ASSERT(lanes.size() == tasks.size(), "writeRun: one lane per task");
    SC_ASSERT(layout == TelemetryLayout::Tasks || tasks.size() == 1,
              "writeRun: a day layout holds one task");
    TelemetryRecorder *const day_telemetry = layout == TelemetryLayout::Day
        ? tasks[0].telemetry.get()
        : nullptr;

    mergeStats(tasks, stats);
    if (!opts.statsOut.empty()) {
        if (auto os = openOut(opts.statsOut)) {
            if (hasSuffix(opts.statsOut, ".csv"))
                stats.dumpCsv(os);
            else
                stats.dumpJson(os);
        }
    }

    if (!opts.traceOut.empty()) {
        std::vector<const TraceBuffer *> buffers;
        std::vector<std::string> names;
        std::uint64_t dropped = 0;
        for (std::size_t t = 0; t < tasks.size(); ++t) {
            if (const TraceBuffer *buf = tasks[t].trace.get()) {
                buffers.push_back(buf);
                names.push_back(lanes[t]);
                dropped += buf->dropped();
            }
        }
        if (auto os = openOut(opts.traceOut)) {
            const std::vector<TraceEvent> events = mergeBuffers(buffers);
            if (hasSuffix(opts.traceOut, ".jsonl"))
                exportJsonl(events, os);
            else
                exportChromeTrace(events, os, names, day_telemetry);
        }
        if (dropped > 0) {
            manifest.set("trace_dropped_events", dropped);
            SC_WARN("obs: full trace buffers dropped ", dropped,
                    " events; --trace-buffer=", opts.traceBufferCap,
                    " holds too few");
        }
    }

    if (!opts.telemetryOut.empty()) {
        std::vector<TelemetryRecorder *> recs;
        std::uint64_t rows = 0;
        std::uint64_t steps = 0;
        for (Recorders &task : tasks) {
            recs.push_back(task.telemetry.get());
            if (TelemetryRecorder *rec = task.telemetry.get()) {
                rec->flush();
                rows += rec->rowCount();
                steps += rec->stepCount();
            }
        }
        if (auto os = openOut(opts.telemetryOut)) {
            if (layout == TelemetryLayout::Tasks)
                TelemetryRecorder::writeCsvConcat(recs, os);
            else if (day_telemetry)
                day_telemetry->writeCsv(os);
        }
        manifest.set("telemetry_out", opts.telemetryOut);
        manifest.set("telemetry_rows", rows);
        manifest.set("telemetry_steps", steps);
    }

    if (!opts.profileOut.empty()) {
        Profiler merged;
        for (const Recorders &task : tasks)
            if (task.profiler)
                merged.merge(*task.profiler);
        if (auto os = openOut(opts.profileOut))
            merged.writeJson(os);
        if (auto os = openOut(opts.profileOut + ".folded"))
            merged.writeCollapsed(os);
        manifest.set("profile_out", opts.profileOut);
        manifest.set("profile_total_us",
                     static_cast<double>(merged.totalNs()) * 1e-3);
    }

    if (opts.auditRequested()) {
        Auditor merged(auditorConfig(opts));
        bool audited = false;
        for (const Recorders &task : tasks) {
            if (task.audit) {
                merged.merge(*task.audit);
                audited = true;
            }
        }
        if (!opts.auditOut.empty()) {
            if (auto os = openOut(opts.auditOut))
                merged.writeJson(os);
            manifest.set("audit_out", opts.auditOut);
        }
        // The totals of what this process audited; a forked run's
        // workers report theirs through the unit metrics.
        if (audited) {
            manifest.set("audit_violations", merged.violationCount());
            manifest.set("audit_steps", merged.stepsAudited());
        }
    }
}

} // namespace solarcore::obs
