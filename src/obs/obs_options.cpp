#include "obs_options.hpp"

#include <cstdint>
#include <fstream>

#include "obs/manifest.hpp"
#include "obs/profiler.hpp"
#include "obs/stats_registry.hpp"
#include "util/logging.hpp"
#include "util/parse_number.hpp"

namespace solarcore::obs {

namespace {

bool
takeValue(std::string_view arg, std::string_view key, std::string &out)
{
    if (arg.rfind(key, 0) != 0)
        return false;
    out = std::string(arg.substr(key.size()));
    return true;
}

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

} // namespace

bool
ObsOptions::consume(std::string_view arg)
{
    std::string buf;
    if (takeValue(arg, "--stats-out=", statsOut) ||
        takeValue(arg, "--trace-out=", traceOut) ||
        takeValue(arg, "--manifest-out=", manifestOut) ||
        takeValue(arg, "--telemetry-out=", telemetryOut) ||
        takeValue(arg, "--profile-out=", profileOut) ||
        takeValue(arg, "--audit-out=", auditOut) ||
        takeValue(arg, "--metrics-out=", metricsOut) ||
        takeValue(arg, "--postmortem-out=", postmortemOut))
        return true;
    if (takeValue(arg, "--metrics-port=", buf)) {
        const auto port = util::parseNumber<std::uint16_t>(buf);
        if (!port)
            SC_FATAL("--metrics-port: expected a port in [0, 65535], "
                     "got '", buf, "'");
        metricsPort = *port;
        return true;
    }
    if (takeValue(arg, "--trace-buffer=", buf)) {
        const auto n = util::parseNumber<std::size_t>(buf);
        if (!n || *n == 0)
            SC_FATAL("--trace-buffer: expected a positive event count, "
                     "got '", buf, "'");
        traceBufferCap = *n;
        return true;
    }
    if (takeValue(arg, "--telemetry-every=", buf)) {
        const auto n = util::parseNumber<std::size_t>(buf);
        if (!n || *n == 0)
            SC_FATAL("--telemetry-every: expected a positive step count, "
                     "got '", buf, "'");
        telemetryEvery = *n;
        return true;
    }
    if (takeValue(arg, "--telemetry-mode=", buf)) {
        if (!parseTelemetryMode(buf, telemetryMode))
            SC_FATAL("--telemetry-mode: expected 'every' or 'minmax', "
                     "got '", buf, "'");
        return true;
    }
    if (takeValue(arg, "--audit=", buf)) {
        if (!parseAuditMode(buf, audit))
            SC_FATAL("--audit: expected 'off', 'count' or 'strict', "
                     "got '", buf, "'");
        return true;
    }
    return false;
}

void
ObsOptions::writeStats(const StatsRegistry &reg) const
{
    if (statsOut.empty())
        return;
    auto os = openOut(statsOut);
    if (!os)
        return;
    if (hasSuffix(statsOut, ".csv"))
        reg.dumpCsv(os);
    else
        reg.dumpJson(os);
}

void
ObsOptions::writeTrace(const std::vector<TraceEvent> &events,
                       const std::vector<std::string> &trackNames,
                       TelemetryRecorder *telemetry) const
{
    if (traceOut.empty())
        return;
    auto os = openOut(traceOut);
    if (!os)
        return;
    if (hasSuffix(traceOut, ".jsonl"))
        exportJsonl(events, os);
    else
        exportChromeTrace(events, os, trackNames, telemetry);
}

void
ObsOptions::writeTelemetry(TelemetryRecorder &recorder) const
{
    if (telemetryOut.empty())
        return;
    auto os = openOut(telemetryOut);
    if (!os)
        return;
    recorder.writeCsv(os);
}

void
ObsOptions::writeTelemetryConcat(
    const std::vector<TelemetryRecorder *> &recs) const
{
    if (telemetryOut.empty())
        return;
    auto os = openOut(telemetryOut);
    if (!os)
        return;
    TelemetryRecorder::writeCsvConcat(recs, os);
}

void
ObsOptions::writeProfile(const Profiler &profiler) const
{
    if (profileOut.empty())
        return;
    if (auto os = openOut(profileOut))
        profiler.writeJson(os);
    if (auto os = openOut(profileOut + ".folded"))
        profiler.writeCollapsed(os);
}

void
ObsOptions::writeAudit(const Auditor &auditor) const
{
    if (auditOut.empty())
        return;
    if (auto os = openOut(auditOut))
        auditor.writeJson(os);
}

void
ObsOptions::writeManifest(RunManifest &manifest) const
{
    std::string path = manifestOut;
    for (const std::string *out :
         {&statsOut, &traceOut, &telemetryOut, &profileOut, &auditOut}) {
        if (path.empty() && !out->empty())
            path = *out + ".manifest.json";
    }
    if (path.empty())
        return;
    manifest.writeFile(path);
}

void
ObsOptions::recordSidecars(RunManifest &manifest,
                           TelemetryRecorder *telemetry,
                           const Profiler *profiler,
                           const Auditor *auditor) const
{
    manifest.set("peak_rss_bytes", peakRssBytes());
    if (telemetry && !telemetryOut.empty()) {
        telemetry->flush();
        manifest.set("telemetry_out", telemetryOut);
        manifest.set("telemetry_rows",
                     static_cast<std::uint64_t>(telemetry->rowCount()));
        manifest.set("telemetry_steps",
                     static_cast<std::uint64_t>(telemetry->stepCount()));
    }
    if (profiler && !profileOut.empty()) {
        manifest.set("profile_out", profileOut);
        manifest.set("profile_total_us",
                     static_cast<double>(profiler->totalNs()) * 1e-3);
    }
    if (auditor) {
        if (!auditOut.empty())
            manifest.set("audit_out", auditOut);
        manifest.set("audit_violations", auditor->violationCount());
        manifest.set("audit_steps", auditor->stepsAudited());
    }
}

} // namespace solarcore::obs
