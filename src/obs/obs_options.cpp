#include "obs_options.hpp"

#include <cstdint>

#include "obs/manifest.hpp"
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

} // namespace solarcore::obs
