/**
 * @file
 * Codec and fuzz battery for the serve wire protocol.
 *
 * The decoders carry the robustness contract of the whole daemon: a
 * fuzzer (or a buggy client) can hand them arbitrary bytes and they
 * must answer with a typed failure, never crash, and never allocate
 * towards an unvalidated size. These tests exercise round-trips,
 * every-byte truncation, targeted field corruption, random garbage
 * and the determinism identity between encodeReply() and the cached
 * encodeAnswerBody()/encodeReplyFromBody() path.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "serve/protocol.hpp"

namespace solarcore::serve {
namespace {

// Fixed query-frame offsets (see encodeQuery): tag, version u32,
// request id u64, deadline u32, nodes-per-unit u32, then the site
// axis (count u32 + u8 entries).
constexpr std::size_t kOffVersion = 1;
constexpr std::size_t kOffSiteCount = 21;
constexpr std::size_t kOffFirstSite = 25;

PlanQuery
sampleQuery()
{
    PlanQuery q;
    q.requestId = 0x1122334455667788ull;
    q.deadlineMillis = 1500;
    q.nodesPerUnit = 250;
    q.grid.sites = {solar::SiteId::AZ, solar::SiteId::NC};
    q.grid.months = {solar::Month::Jan, solar::Month::Jul};
    q.grid.policies = {campaign::CampaignPolicy::MpptOpt,
                       campaign::CampaignPolicy::Battery};
    q.grid.workloads = {workload::WorkloadId::H1,
                        workload::WorkloadId::ML2};
    q.grid.seeds = {1, 42, 0xdeadbeefull};
    q.grid.dtSeconds = 120.0;
    q.grid.fixedBudgetW = 60.0;
    q.econ.co2KgPerKwh = 0.55;
    q.econ.panelUsd = 900.0;
    return q;
}

PlanAnswer
sampleAnswer()
{
    PlanAnswer a;
    a.unitCount = 16;
    a.nodesPerUnit = 250;
    a.nodes = 4000.0;
    a.mppEnergyWh = 1234.5;
    a.solarEnergyWh = 1100.25;
    a.gridEnergyWh = 50.125;
    a.chipEnergyWh = 1150.375;
    a.solarInstructions = 3.5e12;
    a.totalInstructions = 3.7e12;
    a.fleetUtilization = 0.891;
    a.greenFraction = 0.956;
    a.solarKwhPerDay = 1.10025;
    a.gridKwhPerDay = 0.050125;
    a.co2AvoidedKgPerYear = 160.6;
    a.savingsUsdPerYear = 48.2;
    a.panelPaybackYears = 18.67;
    a.batteryAvoidedUsdPerYear = 150.0;
    return a;
}

/** Tiny deterministic PRNG (xorshift64*) for garbage generation. */
struct Rng
{
    std::uint64_t state;
    explicit Rng(std::uint64_t seed) : state(seed ? seed : 1) {}
    std::uint64_t next()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545F4914F6CDD1Dull;
    }
};

TEST(ServeProtocol, QueryRoundTrip)
{
    const auto q = sampleQuery();
    const std::string frame = encodeQuery(q);

    PlanQuery d;
    std::string error;
    ASSERT_TRUE(decodeQuery(frame, d, error)) << error;
    EXPECT_EQ(d.requestId, q.requestId);
    EXPECT_EQ(d.deadlineMillis, q.deadlineMillis);
    EXPECT_EQ(d.nodesPerUnit, q.nodesPerUnit);
    EXPECT_EQ(d.grid.sites, q.grid.sites);
    EXPECT_EQ(d.grid.months, q.grid.months);
    EXPECT_EQ(d.grid.policies, q.grid.policies);
    EXPECT_EQ(d.grid.workloads, q.grid.workloads);
    EXPECT_EQ(d.grid.seeds, q.grid.seeds);
    EXPECT_DOUBLE_EQ(d.grid.dtSeconds, q.grid.dtSeconds);
    EXPECT_DOUBLE_EQ(d.grid.fixedBudgetW, q.grid.fixedBudgetW);
    EXPECT_DOUBLE_EQ(d.grid.batteryDerating, q.grid.batteryDerating);
    EXPECT_DOUBLE_EQ(d.grid.trackingPeriodMinutes,
                     q.grid.trackingPeriodMinutes);
    EXPECT_DOUBLE_EQ(d.econ.co2KgPerKwh, q.econ.co2KgPerKwh);
    EXPECT_DOUBLE_EQ(d.econ.gridUsdPerKwh, q.econ.gridUsdPerKwh);
    EXPECT_DOUBLE_EQ(d.econ.panelUsd, q.econ.panelUsd);
    EXPECT_DOUBLE_EQ(d.econ.batteryUsd, q.econ.batteryUsd);
    EXPECT_DOUBLE_EQ(d.econ.batteryLifeYears, q.econ.batteryLifeYears);
}

TEST(ServeProtocol, ReplyRoundTripAllStatuses)
{
    for (int s = 0; s <= 6; ++s) {
        PlanReply r;
        r.requestId = 77 + static_cast<std::uint64_t>(s);
        r.status = static_cast<ReplyStatus>(s);
        r.message = r.status == ReplyStatus::Ok ? "" : "diagnostic";
        if (r.status == ReplyStatus::Ok)
            r.answer = sampleAnswer();

        PlanReply d;
        std::string error;
        ASSERT_TRUE(decodeReply(encodeReply(r), d, error)) << error;
        EXPECT_EQ(d.requestId, r.requestId);
        EXPECT_EQ(d.status, r.status);
        EXPECT_EQ(d.message, r.message);
        if (r.status == ReplyStatus::Ok) {
            EXPECT_EQ(d.answer.unitCount, r.answer.unitCount);
            EXPECT_DOUBLE_EQ(d.answer.solarEnergyWh,
                             r.answer.solarEnergyWh);
            EXPECT_DOUBLE_EQ(d.answer.panelPaybackYears,
                             r.answer.panelPaybackYears);
        }
    }
}

TEST(ServeProtocol, AnswerBodyMatchesFullEncoder)
{
    PlanReply r;
    r.requestId = 0xfeedull;
    r.status = ReplyStatus::Ok;
    r.answer = sampleAnswer();
    // The cached-path assembly must be byte-identical to the direct
    // encoder -- this is what makes cache hits byte-exact replays.
    EXPECT_EQ(encodeReplyFromBody(r.requestId, encodeAnswerBody(r.answer)),
              encodeReply(r));
}

TEST(ServeProtocol, AnswerBodyPreservesRawDoubleBits)
{
    // Doubles travel as raw bits: a denormal and a negative zero must
    // survive the trip exactly.
    PlanAnswer a = sampleAnswer();
    a.fleetUtilization = -0.0;
    a.greenFraction = std::numeric_limits<double>::denorm_min();
    PlanReply r;
    r.requestId = 5;
    r.status = ReplyStatus::Ok;
    r.answer = a;

    PlanReply d;
    std::string error;
    ASSERT_TRUE(decodeReply(encodeReply(r), d, error)) << error;
    EXPECT_EQ(std::signbit(d.answer.fleetUtilization), true);
    EXPECT_EQ(d.answer.greenFraction,
              std::numeric_limits<double>::denorm_min());
}

TEST(ServeProtocol, EveryQueryTruncationFailsCleanly)
{
    const std::string frame = encodeQuery(sampleQuery());
    for (std::size_t len = 0; len < frame.size(); ++len) {
        PlanQuery d;
        std::string error;
        EXPECT_FALSE(decodeQuery(frame.substr(0, len), d, error))
            << "prefix of length " << len << " decoded";
        EXPECT_FALSE(error.empty());
    }
}

TEST(ServeProtocol, EveryReplyTruncationFailsCleanly)
{
    PlanReply r;
    r.requestId = 9;
    r.status = ReplyStatus::Ok;
    r.answer = sampleAnswer();
    const std::string frame = encodeReply(r);
    for (std::size_t len = 0; len < frame.size(); ++len) {
        PlanReply d;
        std::string error;
        EXPECT_FALSE(decodeReply(frame.substr(0, len), d, error));
    }
}

TEST(ServeProtocol, TrailingBytesRejected)
{
    std::string frame = encodeQuery(sampleQuery());
    frame.push_back('\0');
    PlanQuery d;
    std::string error;
    EXPECT_FALSE(decodeQuery(frame, d, error));
}

TEST(ServeProtocol, RequestIdSurvivesVersionMismatch)
{
    // A wrong protocol version must fail, but the request id must
    // still come out so the server can address its BadRequest reply.
    std::string frame = encodeQuery(sampleQuery());
    frame[kOffVersion] = static_cast<char>(0x7f);
    PlanQuery d;
    std::string error;
    EXPECT_FALSE(decodeQuery(frame, d, error));
    EXPECT_EQ(d.requestId, sampleQuery().requestId);
}

TEST(ServeProtocol, WrongTagRejected)
{
    std::string frame = encodeQuery(sampleQuery());
    frame[0] = 'X';
    PlanQuery d;
    std::string error;
    EXPECT_FALSE(decodeQuery(frame, d, error));

    PlanReply rd;
    EXPECT_FALSE(decodeReply(frame, rd, error));
}

TEST(ServeProtocol, BadEnumValueRejected)
{
    std::string frame = encodeQuery(sampleQuery());
    frame[kOffFirstSite] = static_cast<char>(200);
    PlanQuery d;
    std::string error;
    EXPECT_FALSE(decodeQuery(frame, d, error));
}

TEST(ServeProtocol, HugeAxisCountFailsWithoutAllocating)
{
    // Declare 0xffffffff sites; the decoder must reject the count
    // against both kMaxAxisEntries and the remaining bytes instead of
    // reserving towards it.
    std::string frame = encodeQuery(sampleQuery());
    std::memset(frame.data() + kOffSiteCount, 0xff, 4);
    PlanQuery d;
    std::string error;
    EXPECT_FALSE(decodeQuery(frame, d, error));
}

TEST(ServeProtocol, ZeroAxisCountRejected)
{
    std::string frame = encodeQuery(sampleQuery());
    std::memset(frame.data() + kOffSiteCount, 0, 4);
    PlanQuery d;
    std::string error;
    EXPECT_FALSE(decodeQuery(frame, d, error));
}

TEST(ServeProtocol, ValidateRejectsBadValues)
{
    {
        PlanQuery q = sampleQuery();
        q.nodesPerUnit = 0;
        EXPECT_FALSE(validateQuery(q).empty());
    }
    {
        PlanQuery q = sampleQuery();
        q.grid.dtSeconds = std::nan("");
        EXPECT_FALSE(validateQuery(q).empty());
    }
    {
        PlanQuery q = sampleQuery();
        q.grid.dtSeconds = -30.0;
        EXPECT_FALSE(validateQuery(q).empty());
    }
    {
        PlanQuery q = sampleQuery();
        q.grid.batteryDerating = 1.5;
        EXPECT_FALSE(validateQuery(q).empty());
    }
    {
        PlanQuery q = sampleQuery();
        q.econ.panelUsd = -1.0;
        EXPECT_FALSE(validateQuery(q).empty());
    }
    {
        PlanQuery q = sampleQuery();
        q.econ.co2KgPerKwh = std::numeric_limits<double>::infinity();
        EXPECT_FALSE(validateQuery(q).empty());
    }
    EXPECT_TRUE(validateQuery(sampleQuery()).empty());
}

TEST(ServeProtocol, RandomGarbageNeverCrashes)
{
    Rng rng(0x5eed5eedull);
    for (int i = 0; i < 5000; ++i) {
        std::string frame;
        const std::size_t len = rng.next() % 300;
        frame.reserve(len);
        for (std::size_t b = 0; b < len; ++b)
            frame.push_back(static_cast<char>(rng.next() & 0xff));
        PlanQuery q;
        PlanReply r;
        std::string error;
        // Either outcome is fine; crashing or tripping a sanitizer is
        // the only failure mode.
        decodeQuery(frame, q, error);
        decodeReply(frame, r, error);
    }
}

TEST(ServeProtocol, MutatedValidFramesNeverCrash)
{
    const std::string base = encodeQuery(sampleQuery());
    Rng rng(0xabcdefull);
    for (int i = 0; i < 5000; ++i) {
        std::string frame = base;
        const int flips = 1 + static_cast<int>(rng.next() % 4);
        for (int f = 0; f < flips; ++f)
            frame[rng.next() % frame.size()] ^=
                static_cast<char>(1u << (rng.next() % 8));
        PlanQuery q;
        std::string error;
        if (decodeQuery(frame, q, error)) {
            // Anything that decodes must also be semantically valid;
            // the decoder runs validateQuery() itself.
            EXPECT_TRUE(validateQuery(q).empty());
        }
    }
}

TEST(ServeProtocol, KeyMaterialSeparatesAnswerInputs)
{
    const auto base = sampleQuery();
    const std::string k0 = queryKeyMaterial(base, "scalar");

    // Identical query -> identical material (the cache identity).
    EXPECT_EQ(queryKeyMaterial(sampleQuery(), "scalar"), k0);

    // Every answer-changing input must separate the key.
    {
        PlanQuery q = base;
        q.nodesPerUnit += 1;
        EXPECT_NE(queryKeyMaterial(q, "scalar"), k0);
    }
    {
        PlanQuery q = base;
        q.econ.gridUsdPerKwh = 0.2;
        EXPECT_NE(queryKeyMaterial(q, "scalar"), k0);
    }
    {
        PlanQuery q = base;
        q.grid.seeds.push_back(7);
        EXPECT_NE(queryKeyMaterial(q, "scalar"), k0);
    }
    {
        PlanQuery q = base;
        q.grid.dtSeconds = 60.0;
        EXPECT_NE(queryKeyMaterial(q, "scalar"), k0);
    }
    EXPECT_NE(queryKeyMaterial(base, "avx2"), k0);

    // The request id and deadline do not change the answer, so they
    // must NOT separate the key -- that would defeat the cache.
    {
        PlanQuery q = base;
        q.requestId += 99;
        q.deadlineMillis += 99;
        EXPECT_EQ(queryKeyMaterial(q, "scalar"), k0);
    }
}

// ---- traced (v2) query frames -------------------------------------

TEST(ServeProtocol, TracedQueryRoundTrip)
{
    PlanQuery q = sampleQuery();
    q.traceId = 0xabcdef0123456789ull;
    const std::string frame = encodeQuery(q);

    std::uint32_t version = 0;
    std::memcpy(&version, frame.data() + kOffVersion, sizeof(version));
    EXPECT_EQ(version, kProtocolVersionTraced);

    PlanQuery d;
    std::string error;
    ASSERT_TRUE(decodeQuery(frame, d, error)) << error;
    EXPECT_EQ(d.traceId, q.traceId);
    EXPECT_EQ(d.requestId, q.requestId);
    EXPECT_EQ(d.grid.seeds, q.grid.seeds);
}

TEST(ServeProtocol, UntracedQueryStillEncodesV1Bytes)
{
    // Backward compatibility both ways: a client without a trace id
    // emits the exact pre-trace frame (a pre-trace server keeps
    // working), and that frame still decodes here with traceId == 0.
    PlanQuery q = sampleQuery();
    q.traceId = 0;
    const std::string frame = encodeQuery(q);

    std::uint32_t version = 0;
    std::memcpy(&version, frame.data() + kOffVersion, sizeof(version));
    EXPECT_EQ(version, kProtocolVersion);

    PlanQuery traced = q;
    traced.traceId = 0x77;
    EXPECT_EQ(encodeQuery(traced).size(), frame.size() + 8);

    PlanQuery d;
    std::string error;
    ASSERT_TRUE(decodeQuery(frame, d, error)) << error;
    EXPECT_EQ(d.traceId, 0u);
}

TEST(ServeProtocol, ZeroTraceIdInTracedFrameRejected)
{
    // A v2 frame whose trace field is zero is malformed: zero encodes
    // "no trace" and must use the v1 layout.
    PlanQuery q = sampleQuery();
    q.traceId = 0x55;
    std::string frame = encodeQuery(q);
    std::memset(frame.data() + kOffVersion + 12, 0, 8);
    PlanQuery d;
    std::string error;
    EXPECT_FALSE(decodeQuery(frame, d, error));
    EXPECT_EQ(d.requestId, sampleQuery().requestId);
}

TEST(ServeProtocol, EveryTracedQueryTruncationFailsCleanly)
{
    PlanQuery q = sampleQuery();
    q.traceId = 0xfeedfacecafebeefull;
    const std::string frame = encodeQuery(q);
    for (std::size_t len = 0; len < frame.size(); ++len) {
        PlanQuery d;
        std::string error;
        EXPECT_FALSE(decodeQuery(frame.substr(0, len), d, error))
            << "decode accepted a " << len << "-byte prefix";
        EXPECT_FALSE(error.empty());
    }
}

TEST(ServeProtocol, MutatedTracedFramesNeverCrash)
{
    PlanQuery base_query = sampleQuery();
    base_query.traceId = 0x1234abcd5678ef01ull;
    const std::string base = encodeQuery(base_query);
    // Every byte position x several corruption values: decode must
    // either reject with an error or produce a validatable query.
    for (std::size_t pos = 0; pos < base.size(); ++pos) {
        for (const unsigned char value : {0x00, 0x01, 0x7f, 0xff}) {
            std::string frame = base;
            if (static_cast<unsigned char>(frame[pos]) == value)
                continue;
            frame[pos] = static_cast<char>(value);
            PlanQuery q;
            std::string error;
            if (decodeQuery(frame, q, error)) {
                // The decoder runs validateQuery() itself, so anything
                // that decodes must also be semantically valid.
                EXPECT_TRUE(validateQuery(q).empty());
            } else {
                EXPECT_FALSE(error.empty());
            }
        }
    }
}

TEST(ServeProtocol, TraceIdExcludedFromKeyMaterial)
{
    // The trace id annotates the request; it must never separate the
    // answer-cache key, or traced queries would always miss.
    PlanQuery q = sampleQuery();
    const std::string k0 = queryKeyMaterial(q, "scalar");
    q.traceId = 0xdeadbeefull;
    EXPECT_EQ(queryKeyMaterial(q, "scalar"), k0);
}

TEST(ServeProtocol, StatusNamesAreStable)
{
    EXPECT_STREQ(replyStatusName(ReplyStatus::Ok), "ok");
    EXPECT_STREQ(replyStatusName(ReplyStatus::ShedCapacity),
                 "shed-capacity");
    EXPECT_STREQ(replyStatusName(ReplyStatus::ShedDeadline),
                 "shed-deadline");
    EXPECT_STREQ(replyStatusName(ReplyStatus::Expired), "expired");
    EXPECT_STREQ(replyStatusName(ReplyStatus::BadRequest), "bad-request");
    EXPECT_STREQ(replyStatusName(ReplyStatus::ServerError),
                 "server-error");
    EXPECT_STREQ(replyStatusName(ReplyStatus::ShuttingDown),
                 "shutting-down");
}

} // namespace
} // namespace solarcore::serve
