#include "protocol.hpp"

#include <charconv>
#include <cmath>
#include <cstring>

#if !defined(_WIN32)
#include <cerrno>
#include <poll.h>
#include <sys/socket.h>
#endif

namespace solarcore::serve {
namespace {

/// Packed little helpers. All integers and doubles travel native-endian
/// as raw bytes -- same-machine IPC, and doubles must round-trip bit
/// exactly so cached answers replay identical payloads.
void
appendU8(std::string &out, std::uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

void
appendU32(std::string &out, std::uint32_t v)
{
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    out.append(buf, sizeof v);
}

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    out.append(buf, sizeof v);
}

void
appendF64(std::string &out, double v)
{
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    out.append(buf, sizeof v);
}

/**
 * Bounds-checked cursor over an untrusted frame. Every take* checks
 * the remaining length first; nothing here allocates towards a size
 * read from the wire.
 */
struct Reader
{
    const char *cur = nullptr;
    const char *end = nullptr;

    explicit Reader(std::string_view frame)
        : cur(frame.data()), end(frame.data() + frame.size())
    {
    }

    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end - cur);
    }

    bool takeU8(std::uint8_t &v)
    {
        if (remaining() < sizeof v)
            return false;
        v = static_cast<std::uint8_t>(*cur++);
        return true;
    }

    bool takeU32(std::uint32_t &v)
    {
        if (remaining() < sizeof v)
            return false;
        std::memcpy(&v, cur, sizeof v);
        cur += sizeof v;
        return true;
    }

    bool takeU64(std::uint64_t &v)
    {
        if (remaining() < sizeof v)
            return false;
        std::memcpy(&v, cur, sizeof v);
        cur += sizeof v;
        return true;
    }

    bool takeF64(double &v)
    {
        if (remaining() < sizeof v)
            return false;
        std::memcpy(&v, cur, sizeof v);
        cur += sizeof v;
        return true;
    }

    bool takeBytes(std::string &out, std::size_t n)
    {
        if (remaining() < n)
            return false;
        out.assign(cur, n);
        cur += n;
        return true;
    }
};

/** Shortest round-trip decimal of @p v (cache-key text). */
void
appendNumberText(std::string &out, double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
}

/**
 * Read an axis list: u32 count followed by fixed-size entries mapped
 * through @p decode, which must range-check the raw value. The count
 * is validated against both kMaxAxisEntries and the bytes actually
 * present before any element is touched.
 */
template <typename Raw, typename Decode, typename Out>
bool
takeAxis(Reader &r, const char *axis, std::vector<Out> &out,
         Decode decode, std::string &error)
{
    std::uint32_t count = 0;
    if (!r.takeU32(count)) {
        error = std::string("truncated ") + axis + " list";
        return false;
    }
    if (count == 0 || count > kMaxAxisEntries) {
        error = std::string(axis) + " count out of range";
        return false;
    }
    if (r.remaining() < static_cast<std::size_t>(count) * sizeof(Raw)) {
        error = std::string("truncated ") + axis + " entries";
        return false;
    }
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        Raw raw{};
        if constexpr (sizeof(Raw) == 1) {
            std::uint8_t b = 0;
            r.takeU8(b);
            raw = static_cast<Raw>(b);
        } else {
            std::uint64_t w = 0;
            r.takeU64(w);
            raw = static_cast<Raw>(w);
        }
        Out value{};
        if (!decode(raw, value)) {
            error = std::string("invalid ") + axis + " entry";
            return false;
        }
        out.push_back(value);
    }
    return true;
}

/// Dense 0-based enum ranges on the wire.
constexpr std::uint8_t kSiteCount =
    static_cast<std::uint8_t>(solar::kNumSites);
constexpr std::uint8_t kMonthCount =
    static_cast<std::uint8_t>(solar::kNumMonths);
constexpr std::uint8_t kPolicyCount = 6; // MpptOpt..Battery
constexpr std::uint8_t kWorkloadCount =
    static_cast<std::uint8_t>(workload::kNumWorkloads);

void
appendEcon(std::string &out, const core::GridContext &econ)
{
    appendF64(out, econ.co2KgPerKwh);
    appendF64(out, econ.gridUsdPerKwh);
    appendF64(out, econ.panelUsd);
    appendF64(out, econ.batteryUsd);
    appendF64(out, econ.batteryLifeYears);
}

bool
takeEcon(Reader &r, core::GridContext &econ)
{
    return r.takeF64(econ.co2KgPerKwh) && r.takeF64(econ.gridUsdPerKwh) &&
        r.takeF64(econ.panelUsd) && r.takeF64(econ.batteryUsd) &&
        r.takeF64(econ.batteryLifeYears);
}

void
appendAnswer(std::string &out, const PlanAnswer &a)
{
    appendU32(out, a.unitCount);
    appendU32(out, a.nodesPerUnit);
    appendF64(out, a.nodes);
    appendF64(out, a.mppEnergyWh);
    appendF64(out, a.solarEnergyWh);
    appendF64(out, a.gridEnergyWh);
    appendF64(out, a.chipEnergyWh);
    appendF64(out, a.solarInstructions);
    appendF64(out, a.totalInstructions);
    appendF64(out, a.fleetUtilization);
    appendF64(out, a.greenFraction);
    appendF64(out, a.solarKwhPerDay);
    appendF64(out, a.gridKwhPerDay);
    appendF64(out, a.co2AvoidedKgPerYear);
    appendF64(out, a.savingsUsdPerYear);
    appendF64(out, a.panelPaybackYears);
    appendF64(out, a.batteryAvoidedUsdPerYear);
}

bool
takeAnswer(Reader &r, PlanAnswer &a)
{
    return r.takeU32(a.unitCount) && r.takeU32(a.nodesPerUnit) &&
        r.takeF64(a.nodes) && r.takeF64(a.mppEnergyWh) &&
        r.takeF64(a.solarEnergyWh) && r.takeF64(a.gridEnergyWh) &&
        r.takeF64(a.chipEnergyWh) && r.takeF64(a.solarInstructions) &&
        r.takeF64(a.totalInstructions) && r.takeF64(a.fleetUtilization) &&
        r.takeF64(a.greenFraction) && r.takeF64(a.solarKwhPerDay) &&
        r.takeF64(a.gridKwhPerDay) && r.takeF64(a.co2AvoidedKgPerYear) &&
        r.takeF64(a.savingsUsdPerYear) && r.takeF64(a.panelPaybackYears) &&
        r.takeF64(a.batteryAvoidedUsdPerYear);
}

} // namespace

const char *
replyStatusName(ReplyStatus status)
{
    switch (status) {
    case ReplyStatus::Ok: return "ok";
    case ReplyStatus::ShedCapacity: return "shed-capacity";
    case ReplyStatus::ShedDeadline: return "shed-deadline";
    case ReplyStatus::Expired: return "expired";
    case ReplyStatus::BadRequest: return "bad-request";
    case ReplyStatus::ServerError: return "server-error";
    case ReplyStatus::ShuttingDown: return "shutting-down";
    }
    return "unknown";
}

std::string
encodeQuery(const PlanQuery &query)
{
    std::string out;
    appendU8(out, kFrameQuery);
    appendU32(out, query.traceId != 0 ? kProtocolVersionTraced
                                      : kProtocolVersion);
    appendU64(out, query.requestId);
    if (query.traceId != 0)
        appendU64(out, query.traceId);
    appendU32(out, query.deadlineMillis);
    appendU32(out, query.nodesPerUnit);

    auto axis8 = [&out](const auto &values) {
        appendU32(out, static_cast<std::uint32_t>(values.size()));
        for (const auto v : values)
            appendU8(out, static_cast<std::uint8_t>(v));
    };
    axis8(query.grid.sites);
    axis8(query.grid.months);
    axis8(query.grid.policies);
    axis8(query.grid.workloads);
    appendU32(out, static_cast<std::uint32_t>(query.grid.seeds.size()));
    for (const auto seed : query.grid.seeds)
        appendU64(out, seed);

    appendF64(out, query.grid.dtSeconds);
    appendF64(out, query.grid.fixedBudgetW);
    appendF64(out, query.grid.batteryDerating);
    appendF64(out, query.grid.trackingPeriodMinutes);
    appendEcon(out, query.econ);
    return out;
}

bool
decodeQuery(std::string_view frame, PlanQuery &out, std::string &error)
{
    Reader r(frame);
    std::uint8_t tag = 0;
    std::uint32_t version = 0;
    if (!r.takeU8(tag) || !r.takeU32(version)) {
        error = "truncated header";
        return false;
    }
    if (tag != kFrameQuery) {
        error = "not a query frame";
        return false;
    }
    if (!r.takeU64(out.requestId)) {
        error = "truncated request id";
        return false;
    }
    // From here on the request id is known, so BadRequest replies can
    // echo it.
    if (version != kProtocolVersion && version != kProtocolVersionTraced) {
        error = "protocol version mismatch";
        return false;
    }
    out.traceId = 0;
    if (version == kProtocolVersionTraced) {
        if (!r.takeU64(out.traceId)) {
            error = "truncated trace id";
            return false;
        }
        if (out.traceId == 0) {
            error = "traced frame with zero trace id";
            return false;
        }
    }
    if (!r.takeU32(out.deadlineMillis) || !r.takeU32(out.nodesPerUnit)) {
        error = "truncated request header";
        return false;
    }

    auto site = [](std::uint8_t raw, solar::SiteId &v) {
        if (raw >= kSiteCount)
            return false;
        v = static_cast<solar::SiteId>(raw);
        return true;
    };
    auto month = [](std::uint8_t raw, solar::Month &v) {
        if (raw >= kMonthCount)
            return false;
        v = static_cast<solar::Month>(raw);
        return true;
    };
    auto policy = [](std::uint8_t raw, campaign::CampaignPolicy &v) {
        if (raw >= kPolicyCount)
            return false;
        v = static_cast<campaign::CampaignPolicy>(raw);
        return true;
    };
    auto workloadId = [](std::uint8_t raw, workload::WorkloadId &v) {
        if (raw >= kWorkloadCount)
            return false;
        v = static_cast<workload::WorkloadId>(raw);
        return true;
    };
    auto seed = [](std::uint64_t raw, std::uint64_t &v) {
        v = raw;
        return true;
    };
    if (!takeAxis<std::uint8_t>(r, "site", out.grid.sites, site, error) ||
        !takeAxis<std::uint8_t>(r, "month", out.grid.months, month,
                                error) ||
        !takeAxis<std::uint8_t>(r, "policy", out.grid.policies, policy,
                                error) ||
        !takeAxis<std::uint8_t>(r, "workload", out.grid.workloads,
                                workloadId, error) ||
        !takeAxis<std::uint64_t>(r, "seed", out.grid.seeds, seed, error))
        return false;

    if (!r.takeF64(out.grid.dtSeconds) ||
        !r.takeF64(out.grid.fixedBudgetW) ||
        !r.takeF64(out.grid.batteryDerating) ||
        !r.takeF64(out.grid.trackingPeriodMinutes)) {
        error = "truncated simulation knobs";
        return false;
    }
    if (!takeEcon(r, out.econ)) {
        error = "truncated economic context";
        return false;
    }
    if (r.remaining() != 0) {
        error = "trailing bytes after query";
        return false;
    }
    error = validateQuery(out);
    return error.empty();
}

std::string
validateQuery(const PlanQuery &query)
{
    const auto &g = query.grid;
    if (std::string error = campaign::validateGrid(g); !error.empty())
        return error;
    if (g.sites.size() > kMaxAxisEntries ||
        g.months.size() > kMaxAxisEntries ||
        g.policies.size() > kMaxAxisEntries ||
        g.workloads.size() > kMaxAxisEntries ||
        g.seeds.size() > kMaxAxisEntries)
        return "scenario axis too large";
    if (query.nodesPerUnit == 0)
        return "nodesPerUnit must be positive";
    // assessEnergy SC_ASSERTs on negative context -- reject here so a
    // client cannot abort the server.
    const auto &e = query.econ;
    const double econ_fields[] = {e.co2KgPerKwh, e.gridUsdPerKwh,
                                  e.panelUsd, e.batteryUsd,
                                  e.batteryLifeYears};
    for (const double v : econ_fields)
        if (!std::isfinite(v) || v < 0.0)
            return "economic context must be finite and non-negative";
    return {};
}

std::string
encodeAnswerBody(const PlanAnswer &answer)
{
    std::string out;
    appendU8(out, static_cast<std::uint8_t>(ReplyStatus::Ok));
    appendU32(out, 0); // empty message
    appendAnswer(out, answer);
    return out;
}

std::string
encodeReplyFromBody(std::uint64_t request_id, std::string_view body)
{
    std::string out;
    appendU8(out, kFrameReply);
    appendU32(out, kProtocolVersion);
    appendU64(out, request_id);
    out.append(body);
    return out;
}

std::string
encodeReply(const PlanReply &reply)
{
    if (reply.status == ReplyStatus::Ok)
        return encodeReplyFromBody(reply.requestId,
                                   encodeAnswerBody(reply.answer));
    std::string out;
    appendU8(out, kFrameReply);
    appendU32(out, kProtocolVersion);
    appendU64(out, reply.requestId);
    appendU8(out, static_cast<std::uint8_t>(reply.status));
    appendU32(out, static_cast<std::uint32_t>(reply.message.size()));
    out.append(reply.message);
    return out;
}

bool
decodeReply(std::string_view frame, PlanReply &out, std::string &error)
{
    Reader r(frame);
    std::uint8_t tag = 0;
    std::uint32_t version = 0;
    if (!r.takeU8(tag) || !r.takeU32(version) ||
        !r.takeU64(out.requestId)) {
        error = "truncated reply header";
        return false;
    }
    if (tag != kFrameReply) {
        error = "not a reply frame";
        return false;
    }
    if (version != kProtocolVersion) {
        error = "protocol version mismatch";
        return false;
    }
    std::uint8_t status = 0;
    if (!r.takeU8(status)) {
        error = "truncated reply status";
        return false;
    }
    if (status > static_cast<std::uint8_t>(ReplyStatus::ShuttingDown)) {
        error = "unknown reply status";
        return false;
    }
    out.status = static_cast<ReplyStatus>(status);
    std::uint32_t message_len = 0;
    if (!r.takeU32(message_len)) {
        error = "truncated reply message length";
        return false;
    }
    if (message_len > kMaxFrameBytes ||
        !r.takeBytes(out.message, message_len)) {
        error = "truncated reply message";
        return false;
    }
    if (out.status == ReplyStatus::Ok && !takeAnswer(r, out.answer)) {
        error = "truncated reply answer";
        return false;
    }
    if (r.remaining() != 0) {
        error = "trailing bytes after reply";
        return false;
    }
    return true;
}

bool
sendFrame(int fd, std::string_view payload)
{
#if defined(_WIN32)
    (void)fd;
    (void)payload;
    return false;
#else
    std::string buf;
    buf.reserve(sizeof(std::uint32_t) + payload.size());
    appendU32(buf, static_cast<std::uint32_t>(payload.size()));
    buf.append(payload);
    std::size_t off = 0;
    while (off < buf.size()) {
        const ssize_t n = ::send(fd, buf.data() + off, buf.size() - off,
                                 MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            struct pollfd pfd;
            pfd.fd = fd;
            pfd.events = POLLOUT;
            pfd.revents = 0;
            ::poll(&pfd, 1, 100);
            continue;
        }
        return false;
    }
    return true;
#endif
}

std::string
queryKeyMaterial(const PlanQuery &query, std::string_view resolved_kernel)
{
    // The campaign grid signature already pins axes, knobs and the
    // *resolved* kernel; layer the serve-only inputs on top.
    campaign::ScenarioGrid grid = query.grid;
    grid.pvKernel.assign(resolved_kernel);
    std::string out = "serve-v";
    appendNumberText(out, static_cast<double>(kProtocolVersion));
    out += '|';
    out += campaign::gridSignature(grid);
    out += "|nodes=";
    appendNumberText(out, static_cast<double>(query.nodesPerUnit));
    out += "|econ=";
    appendNumberText(out, query.econ.co2KgPerKwh);
    out += ',';
    appendNumberText(out, query.econ.gridUsdPerKwh);
    out += ',';
    appendNumberText(out, query.econ.panelUsd);
    out += ',';
    appendNumberText(out, query.econ.batteryUsd);
    out += ',';
    appendNumberText(out, query.econ.batteryLifeYears);
    return out;
}

} // namespace solarcore::serve
