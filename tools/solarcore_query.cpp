/**
 * @file
 * solarcore_query: one-shot client for the solarcore_serve daemon.
 *
 *   solarcore_query --socket=/tmp/sc.sock --sites=AZ,NC --months=Jul \
 *       --policies=opt --workloads=HM2 --seeds=1 --nodes=10000 \
 *       --deadline-ms=2000
 *
 * Builds one PlanQuery from campaign-style axis lists, sends it, and
 * prints the reply: a JSON object on Ok (fleet energies, carbon and
 * payback projections, shortest-round-trip numbers so repeated
 * identical queries print byte-identical output), or the typed error
 * status on stderr with a non-zero exit. --repeat=N replays the same
 * query N times over one connection (cache warm-up demos and the CI
 * smoke job); every reply must match the first byte-for-byte.
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "obs/json.hpp"
#include "obs/span.hpp"
#include "serve/client.hpp"
#include "util/parse_number.hpp"

using namespace solarcore;

namespace {

[[noreturn]] void
usage(const char *complaint = nullptr)
{
    if (complaint)
        std::cerr << "solarcore_query: " << complaint << "\n";
    std::cerr <<
        "usage: solarcore_query --socket=PATH [options]\n"
        "  --socket=PATH        daemon socket (required)\n"
        "  --sites=A,B          sites (default AZ)\n"
        "  --months=A,B         months (default Jul)\n"
        "  --policies=A,B       policies (default opt)\n"
        "  --workloads=A,B      workloads (default HM2)\n"
        "  --seeds=1,2          weather seeds (default 1)\n"
        "  --nodes=N            fleet nodes per unit (default 1)\n"
        "  --deadline-ms=N      per-request deadline (default none)\n"
        "  --dt=SECONDS         simulation step (default 30)\n"
        "  --fixed-budget=W     Fixed-Power budget (default 75)\n"
        "  --co2=KG             grid carbon intensity [kg/kWh]\n"
        "  --tariff=USD         utility tariff [USD/kWh]\n"
        "  --panel-usd=USD      installed panel cost (fleet level)\n"
        "  --battery-usd=USD    battery bank cost (fleet level)\n"
        "  --battery-life=Y     battery replacement period [years]\n"
        "  --repeat=N           send the query N times (default 1)\n"
        "  --timeout-ms=N       reply wait (default 30000)\n"
        "  --id=N               base request id (default 1)\n"
        "  --trace[=HEXID]      stamp a trace id (fresh when omitted)\n"
        "                       so the daemon records request spans;\n"
        "                       the id prints on stderr\n";
    std::exit(2);
}

/** Parse @p value with util::parseNumber, or exit via usage(). */
template <typename T>
T
numberFlag(const std::string &flag, const std::string &value)
{
    const auto v = util::parseNumber<T>(value);
    if (!v)
        usage(("bad value for " + flag).c_str());
    return *v;
}

void
printAnswer(const serve::PlanAnswer &a)
{
    using obs::jsonNumber;
    std::string out = "{\"units\":" +
        jsonNumber(static_cast<std::uint64_t>(a.unitCount));
    out += ",\"nodes_per_unit\":" +
        jsonNumber(static_cast<std::uint64_t>(a.nodesPerUnit));
    out += ",\"nodes\":" + jsonNumber(a.nodes);
    out += ",\"mpp_energy_wh\":" + jsonNumber(a.mppEnergyWh);
    out += ",\"solar_energy_wh\":" + jsonNumber(a.solarEnergyWh);
    out += ",\"grid_energy_wh\":" + jsonNumber(a.gridEnergyWh);
    out += ",\"chip_energy_wh\":" + jsonNumber(a.chipEnergyWh);
    out += ",\"solar_instructions\":" + jsonNumber(a.solarInstructions);
    out += ",\"total_instructions\":" + jsonNumber(a.totalInstructions);
    out += ",\"fleet_utilization\":" + jsonNumber(a.fleetUtilization);
    out += ",\"green_fraction\":" + jsonNumber(a.greenFraction);
    out += ",\"solar_kwh_per_day\":" + jsonNumber(a.solarKwhPerDay);
    out += ",\"grid_kwh_per_day\":" + jsonNumber(a.gridKwhPerDay);
    out += ",\"co2_avoided_kg_per_year\":" +
        jsonNumber(a.co2AvoidedKgPerYear);
    out += ",\"savings_usd_per_year\":" + jsonNumber(a.savingsUsdPerYear);
    out += ",\"panel_payback_years\":" + jsonNumber(a.panelPaybackYears);
    out += ",\"battery_avoided_usd_per_year\":" +
        jsonNumber(a.batteryAvoidedUsdPerYear);
    out += "}\n";
    std::cout << out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path;
    serve::PlanQuery query;
    query.requestId = 1;
    query.grid.sites = {solar::SiteId::AZ};
    query.grid.months = {solar::Month::Jul};
    query.grid.policies = {campaign::CampaignPolicy::MpptOpt};
    query.grid.workloads = {workload::WorkloadId::HM2};
    query.grid.seeds = {1};
    long repeat = 1;
    int timeout_ms = 30000;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "--socket")
            socket_path = value;
        else if (key == "--sites") {
            if (!campaign::parseSiteList(value, query.grid.sites))
                usage("bad --sites list");
        } else if (key == "--months") {
            if (!campaign::parseMonthList(value, query.grid.months))
                usage("bad --months list");
        } else if (key == "--policies") {
            if (!campaign::parsePolicyList(value, query.grid.policies))
                usage("bad --policies list");
        } else if (key == "--workloads") {
            if (!campaign::parseWorkloadList(value, query.grid.workloads))
                usage("bad --workloads list");
        } else if (key == "--seeds") {
            if (!campaign::parseSeedList(value, query.grid.seeds))
                usage("bad --seeds list");
        } else if (key == "--nodes")
            query.nodesPerUnit = numberFlag<std::uint32_t>(key, value);
        else if (key == "--deadline-ms")
            query.deadlineMillis = numberFlag<std::uint32_t>(key, value);
        else if (key == "--dt")
            query.grid.dtSeconds = numberFlag<double>(key, value);
        else if (key == "--fixed-budget")
            query.grid.fixedBudgetW = numberFlag<double>(key, value);
        else if (key == "--co2")
            query.econ.co2KgPerKwh = numberFlag<double>(key, value);
        else if (key == "--tariff")
            query.econ.gridUsdPerKwh = numberFlag<double>(key, value);
        else if (key == "--panel-usd")
            query.econ.panelUsd = numberFlag<double>(key, value);
        else if (key == "--battery-usd")
            query.econ.batteryUsd = numberFlag<double>(key, value);
        else if (key == "--battery-life")
            query.econ.batteryLifeYears = numberFlag<double>(key, value);
        else if (key == "--repeat")
            repeat = numberFlag<long>(key, value);
        else if (key == "--timeout-ms")
            timeout_ms = numberFlag<int>(key, value);
        else if (key == "--id")
            query.requestId = numberFlag<std::uint64_t>(key, value);
        else if (key == "--trace") {
            if (value.empty())
                query.traceId = obs::newTraceId();
            else if (!obs::parseSpanIdHex(value, query.traceId) ||
                     query.traceId == 0)
                usage("bad --trace id (expected 1..16 hex digits)");
        }
        else if (key == "--help" || key == "-h")
            usage();
        else
            usage(("unknown option " + key).c_str());
    }
    if (socket_path.empty())
        usage("--socket=PATH is required");
    if (repeat < 1)
        usage("--repeat must be at least 1");

    // Stdout stays byte-identical across repeats (and with/without
    // tracing): the trace id goes to stderr.
    if (query.traceId != 0)
        std::cerr << "solarcore_query: trace "
                  << obs::spanIdHex(query.traceId) << "\n";

    serve::Client client;
    if (!client.connect(socket_path)) {
        std::cerr << "solarcore_query: cannot connect to '" << socket_path
                  << "'\n";
        return 1;
    }

    for (long r = 0; r < repeat; ++r) {
        serve::PlanReply reply;
        std::string error;
        if (!client.call(query, reply, timeout_ms, error)) {
            std::cerr << "solarcore_query: " << error << "\n";
            return 1;
        }
        if (reply.status != serve::ReplyStatus::Ok) {
            std::cerr << "solarcore_query: "
                      << serve::replyStatusName(reply.status);
            if (!reply.message.empty())
                std::cerr << ": " << reply.message;
            std::cerr << "\n";
            return 3;
        }
        printAnswer(reply.answer);
        ++query.requestId;
    }
    return 0;
}
