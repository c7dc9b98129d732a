/**
 * @file
 * Shared command-line wiring for the observability layer:
 * solarcore_cli and solarcore_campaign accept
 *
 *   --stats-out=FILE    stats registry dump (.json or .csv by extension)
 *   --trace-out=FILE    event trace (.jsonl, or Chrome trace JSON
 *                       otherwise -- load the latter in Perfetto)
 *   --trace-buffer=N    ring-buffer capacity in events (default 64k)
 *   --manifest-out=FILE run manifest; when omitted but another output
 *                       is requested, a `<output>.manifest.json`
 *                       sidecar is written next to it
 *   --telemetry-out=FILE per-step waveform channels as columnar CSV
 *   --telemetry-every=N  telemetry decimation factor (default 1)
 *   --telemetry-mode=M   "every" or "minmax" decimation (default every)
 *   --profile-out=FILE   scoped self-profiler tree as JSON, plus a
 *                        `FILE.folded` flamegraph collapsed-stack dump
 *   --audit=MODE         invariant auditor: off / count / strict
 *   --audit-out=FILE     auditor JSON report (counts + contexts)
 *   --metrics-out=FILE   OpenMetrics exposition snapshot (atomically
 *                        replaced; point file-based scrapers here)
 *   --metrics-port=N     serve the exposition on 127.0.0.1:N over
 *                        HTTP (0 binds an ephemeral port)
 *   --postmortem-out=FILE arm the crash flight recorder; a fatal
 *                        signal / strict-audit abort writes this
 *                        postmortem.json
 *
 * consume() recognizes one argv token at a time so callers can weave
 * it into their existing parsers. fig13 and fig14 take every flag but
 * the last three, which they refuse: they serve no metrics and arm no
 * flight recorder.
 */

#ifndef SOLARCORE_OBS_OBS_OPTIONS_HPP
#define SOLARCORE_OBS_OBS_OPTIONS_HPP

#include <cstddef>
#include <string>
#include <string_view>

#include "obs/auditor.hpp"
#include "obs/telemetry.hpp"

namespace solarcore::obs {

class RunManifest;

/**
 * Parsed observability flags. obs::Recorders builds the recorders they
 * ask for, and obs::writeRun writes them.
 */
struct ObsOptions
{
    std::string statsOut;
    std::string traceOut;
    std::string manifestOut;
    std::size_t traceBufferCap = 1 << 16;

    std::string telemetryOut;
    std::size_t telemetryEvery = 1;
    TelemetryMode telemetryMode = TelemetryMode::EveryN;
    std::string profileOut;
    std::string auditOut;
    AuditMode audit = AuditMode::Off;

    std::string metricsOut;
    int metricsPort = -1; //!< -1 disables; 0 binds an ephemeral port
    std::string postmortemOut;

    /** @return true when @p arg was an observability flag (consumed). */
    bool consume(std::string_view arg);

    bool statsRequested() const { return !statsOut.empty(); }
    bool traceRequested() const { return !traceOut.empty(); }
    bool telemetryRequested() const { return !telemetryOut.empty(); }
    bool profileRequested() const { return !profileOut.empty(); }
    bool auditRequested() const
    {
        return audit != AuditMode::Off || !auditOut.empty();
    }
    bool metricsRequested() const
    {
        return !metricsOut.empty() || metricsPort >= 0;
    }
    bool postmortemRequested() const { return !postmortemOut.empty(); }
    bool anyRequested() const
    {
        return statsRequested() || traceRequested() ||
            telemetryRequested() || profileRequested() ||
            auditRequested() || !manifestOut.empty();
    }

    /**
     * Write @p manifest to manifestOut, or to a sidecar named after
     * the first requested output ("<out>.manifest.json"); no-op when
     * nothing was requested.
     */
    void writeManifest(RunManifest &manifest) const;
};

} // namespace solarcore::obs

#endif // SOLARCORE_OBS_OBS_OPTIONS_HPP
