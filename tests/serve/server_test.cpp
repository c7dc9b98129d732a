/**
 * @file
 * End-to-end tests of the solarcore_serve daemon over a real AF_UNIX
 * socket in a temp directory: byte-identical answers across worker
 * counts and cache states, the two cache layers and their counters,
 * deadline/capacity shedding, deadline expiry mid-service, typed
 * BadRequest replies, wire-abuse robustness (oversized declared
 * lengths, torn frames, mid-request disconnects), and the health
 * surfaces (status.json, OpenMetrics snapshot, stats registry rows).
 *
 * Queries use tiny grids at a coarse dt so a unit simulates in a few
 * milliseconds; determinism claims compare full reply frames
 * byte-for-byte, which is the acceptance bar of the subsystem.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/golden.hpp"
#include "obs/metrics_export.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

#ifndef _WIN32
#include <stdlib.h>
#endif

namespace solarcore::serve {
namespace {

namespace fs = std::filesystem;

/** Temp dir + short socket path per test; removed on teardown. */
class ServeTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (!serveSupported())
            GTEST_SKIP() << "AF_UNIX serving not supported here";
#ifndef _WIN32
        char tmpl[] = "/tmp/scserveXXXXXX";
        ASSERT_NE(mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
#endif
    }

    void TearDown() override
    {
        if (!dir_.empty()) {
            std::error_code ec;
            fs::remove_all(dir_, ec);
        }
    }

    std::string path(const std::string &leaf) const
    {
        return dir_ + "/" + leaf;
    }

    ServeConfig baseConfig(const std::string &socket_leaf) const
    {
        ServeConfig cfg;
        cfg.socketPath = path(socket_leaf);
        cfg.workers = 2;
        cfg.minPublishSeconds = 0.0;
        return cfg;
    }

    std::string dir_;
};

/** A fast two-unit query (2 seeds, coarse dt). */
PlanQuery
smallQuery(std::uint64_t request_id = 1)
{
    PlanQuery q;
    q.requestId = request_id;
    q.nodesPerUnit = 100;
    q.grid.sites = {solar::SiteId::AZ};
    q.grid.months = {solar::Month::Jul};
    q.grid.policies = {campaign::CampaignPolicy::MpptOpt};
    q.grid.workloads = {workload::WorkloadId::HM2};
    q.grid.seeds = {1, 2};
    q.grid.dtSeconds = 480.0;
    return q;
}

/** Send @p query as a raw frame and return the raw reply frame. */
bool
rawCall(Client &client, const PlanQuery &query, std::string &frame,
        int timeout_ms = 30000)
{
    if (!client.sendFramePayload(encodeQuery(query)))
        return false;
    return client.receiveFrame(frame, timeout_ms);
}

/** Poll @p predicate for up to ~2 s (counters update asynchronously). */
template <typename Pred>
bool
eventually(Pred &&predicate)
{
    for (int i = 0; i < 200; ++i) {
        if (predicate())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return predicate();
}

TEST_F(ServeTest, AnswersAreByteIdenticalAcrossWorkersAndCaches)
{
    const auto query = smallQuery();
    std::string first;

    {
        Server server(baseConfig("a.sock"));
        ASSERT_TRUE(server.start());
        Client client;
        ASSERT_TRUE(client.connect(path("a.sock")));

        ASSERT_TRUE(rawCall(client, query, first));
        std::string again;
        ASSERT_TRUE(rawCall(client, query, again));
        // Second call is a result-cache hit and must replay the exact
        // bytes of the simulated answer.
        EXPECT_EQ(again, first);

        const auto snap = server.snapshot();
        EXPECT_EQ(snap.requests, 2u);
        EXPECT_EQ(snap.ok, 2u);
        EXPECT_EQ(snap.resultCacheMisses, 1u);
        EXPECT_EQ(snap.resultCacheHits, 1u);
        EXPECT_EQ(snap.unitsSimulated, 2u);
        server.stop();
    }

    // A different worker count (and a fresh process-state) must not
    // change a single bit of the reply.
    {
        auto cfg = baseConfig("b.sock");
        cfg.workers = 4;
        Server server(cfg);
        ASSERT_TRUE(server.start());
        Client client;
        ASSERT_TRUE(client.connect(path("b.sock")));
        std::string frame;
        ASSERT_TRUE(rawCall(client, query, frame));
        EXPECT_EQ(frame, first);
        server.stop();
    }

    // The decoded reply is a well-formed Ok plan.
    PlanReply reply;
    std::string error;
    ASSERT_TRUE(decodeReply(first, reply, error)) << error;
    EXPECT_EQ(reply.status, ReplyStatus::Ok);
    EXPECT_EQ(reply.requestId, query.requestId);
    EXPECT_EQ(reply.answer.unitCount, 2u);
    EXPECT_EQ(reply.answer.nodesPerUnit, 100u);
    EXPECT_DOUBLE_EQ(reply.answer.nodes, 200.0);
    EXPECT_GT(reply.answer.solarEnergyWh, 0.0);
    EXPECT_GT(reply.answer.savingsUsdPerYear, 0.0);
}

TEST_F(ServeTest, SharedDaysAnswerAsUnitsSimulatedAlone)
{
    // Two MPPT policies x two seeds: two days, each replayed by two
    // units, so a fresh daemon stages each day once (panel constants
    // included) and shares it. A daemon whose unit cache holds each
    // unit simulated alone, as a one-unit query, must give the same
    // reply bytes.
    PlanQuery query = smallQuery(77);
    query.grid.policies = {campaign::CampaignPolicy::MpptOpt,
                           campaign::CampaignPolicy::MpptRr};
    query.grid.dtSeconds = 120.0;

    std::string shared;
    {
        Server server(baseConfig("s.sock"));
        ASSERT_TRUE(server.start());
        Client client;
        ASSERT_TRUE(client.connect(path("s.sock")));
        ASSERT_TRUE(rawCall(client, query, shared));
        EXPECT_EQ(server.snapshot().unitsSimulated, 4u);
        server.stop();
    }

    std::string alone;
    {
        auto cfg = baseConfig("u.sock");
        cfg.unitCacheDir = path("alone_units");
        Server server(cfg);
        ASSERT_TRUE(server.start());
        Client client;
        ASSERT_TRUE(client.connect(cfg.socketPath));
        std::uint64_t id = 100;
        for (const auto policy : query.grid.policies) {
            for (const std::uint64_t seed : query.grid.seeds) {
                PlanQuery one = query;
                one.requestId = ++id;
                one.grid.policies = {policy};
                one.grid.seeds = {seed};
                std::string frame;
                ASSERT_TRUE(rawCall(client, one, frame));
            }
        }
        EXPECT_EQ(server.snapshot().unitsSimulated, 4u);
        ASSERT_TRUE(rawCall(client, query, alone));
        const auto snap = server.snapshot();
        EXPECT_EQ(snap.unitsSimulated, 4u);
        EXPECT_EQ(snap.unitsFromUnitCache, 4u);
        server.stop();
    }
    EXPECT_EQ(alone, shared);
    PlanReply reply;
    std::string error;
    ASSERT_TRUE(decodeReply(shared, reply, error)) << error;
    EXPECT_EQ(reply.status, ReplyStatus::Ok);
    EXPECT_EQ(reply.answer.unitCount, 4u);
}

TEST_F(ServeTest, UnitCachePersistsAcrossServerRestarts)
{
    const auto query = smallQuery();
    auto cfg = baseConfig("c.sock");
    cfg.unitCacheDir = path("units");

    {
        Server server(cfg);
        ASSERT_TRUE(server.start());
        Client client;
        ASSERT_TRUE(client.connect(cfg.socketPath));
        std::string frame;
        ASSERT_TRUE(rawCall(client, query, frame));
        const auto snap = server.snapshot();
        EXPECT_TRUE(snap.unitCacheEnabled);
        EXPECT_EQ(snap.unitCache.stores, 2u);
        server.stop();
    }

    // A fresh server over the same cache dir answers the same query
    // without simulating anything.
    {
        Server server(cfg);
        ASSERT_TRUE(server.start());
        Client client;
        ASSERT_TRUE(client.connect(cfg.socketPath));
        std::string frame;
        ASSERT_TRUE(rawCall(client, query, frame));
        const auto snap = server.snapshot();
        EXPECT_EQ(snap.unitsSimulated, 0u);
        EXPECT_EQ(snap.unitsFromUnitCache, 2u);
        server.stop();
    }
}

TEST_F(ServeTest, GarbagePayloadGetsTypedBadRequest)
{
    Server server(baseConfig("d.sock"));
    ASSERT_TRUE(server.start());
    Client client;
    ASSERT_TRUE(client.connect(path("d.sock")));

    ASSERT_TRUE(client.sendFramePayload("complete garbage"));
    std::string frame;
    ASSERT_TRUE(client.receiveFrame(frame, 30000));
    PlanReply reply;
    std::string error;
    ASSERT_TRUE(decodeReply(frame, reply, error)) << error;
    EXPECT_EQ(reply.status, ReplyStatus::BadRequest);
    EXPECT_FALSE(reply.message.empty());

    // The connection survives a bad request; a valid query still
    // gets a plan.
    ASSERT_TRUE(rawCall(client, smallQuery(7), frame));
    ASSERT_TRUE(decodeReply(frame, reply, error)) << error;
    EXPECT_EQ(reply.status, ReplyStatus::Ok);
    EXPECT_EQ(reply.requestId, 7u);

    EXPECT_EQ(server.snapshot().badRequest, 1u);
    server.stop();
}

TEST_F(ServeTest, MalformedFieldValuesGetBadRequestWithEchoedId)
{
    Server server(baseConfig("e.sock"));
    ASSERT_TRUE(server.start());
    Client client;
    ASSERT_TRUE(client.connect(path("e.sock")));

    // Corrupt the first site token (offset 25: after tag, version,
    // request id, deadline, nodes-per-unit, site count).
    auto query = smallQuery(99);
    std::string payload = encodeQuery(query);
    payload[25] = static_cast<char>(250);
    ASSERT_TRUE(client.sendFramePayload(payload));

    std::string frame;
    ASSERT_TRUE(client.receiveFrame(frame, 30000));
    PlanReply reply;
    std::string error;
    ASSERT_TRUE(decodeReply(frame, reply, error)) << error;
    EXPECT_EQ(reply.status, ReplyStatus::BadRequest);
    EXPECT_EQ(reply.requestId, 99u); // id parsed before the bad field
    server.stop();
}

TEST_F(ServeTest, OversizedDeclaredLengthDropsConnection)
{
    Server server(baseConfig("f.sock"));
    ASSERT_TRUE(server.start());
    Client client;
    ASSERT_TRUE(client.connect(path("f.sock")));

    // Declare a frame bigger than kMaxFrameBytes; the server must cut
    // the connection instead of buffering towards the length.
    const std::uint32_t huge = static_cast<std::uint32_t>(kMaxFrameBytes) + 1;
    std::string bytes(4, '\0');
    std::memcpy(bytes.data(), &huge, 4);
    bytes += "some payload";
    ASSERT_TRUE(client.sendBytes(bytes));

    std::string frame;
    EXPECT_FALSE(client.receiveFrame(frame, 2000));
    EXPECT_TRUE(eventually([&] {
        return server.snapshot().protocolErrors >= 1;
    }));

    // The server keeps serving new connections.
    Client fresh;
    ASSERT_TRUE(fresh.connect(path("f.sock")));
    ASSERT_TRUE(rawCall(fresh, smallQuery(3), frame));
    PlanReply reply;
    std::string error;
    ASSERT_TRUE(decodeReply(frame, reply, error)) << error;
    EXPECT_EQ(reply.status, ReplyStatus::Ok);
    server.stop();
}

TEST_F(ServeTest, TornFrameThenDisconnectCountsProtocolError)
{
    Server server(baseConfig("g.sock"));
    ASSERT_TRUE(server.start());
    {
        Client client;
        ASSERT_TRUE(client.connect(path("g.sock")));
        // Declare 100 bytes, deliver 10, hang up.
        const std::uint32_t declared = 100;
        std::string bytes(4, '\0');
        std::memcpy(bytes.data(), &declared, 4);
        bytes += "0123456789";
        ASSERT_TRUE(client.sendBytes(bytes));
        client.close();
    }
    EXPECT_TRUE(eventually([&] {
        const auto snap = server.snapshot();
        return snap.protocolErrors >= 1 && snap.disconnects >= 1;
    }));

    Client fresh;
    ASSERT_TRUE(fresh.connect(path("g.sock")));
    std::string frame;
    ASSERT_TRUE(rawCall(fresh, smallQuery(4), frame));
    server.stop();
}

TEST_F(ServeTest, MidRequestDisconnectIsHarmless)
{
    Server server(baseConfig("h.sock"));
    ASSERT_TRUE(server.start());
    {
        Client client;
        ASSERT_TRUE(client.connect(path("h.sock")));
        // Send a valid query and vanish before the reply.
        ASSERT_TRUE(client.sendFramePayload(encodeQuery(smallQuery(5))));
        client.close();
    }
    // The request still executes; the failed reply write must not
    // take the server down.
    EXPECT_TRUE(eventually([&] {
        return server.snapshot().requests >= 1 &&
            server.snapshot().inflight == 0 &&
            server.snapshot().queueDepth == 0;
    }));

    Client fresh;
    ASSERT_TRUE(fresh.connect(path("h.sock")));
    std::string frame;
    ASSERT_TRUE(rawCall(fresh, smallQuery(6), frame));
    PlanReply reply;
    std::string error;
    ASSERT_TRUE(decodeReply(frame, reply, error)) << error;
    EXPECT_EQ(reply.status, ReplyStatus::Ok);
    server.stop();
}

TEST_F(ServeTest, PredictedDeadlineMissIsShedBeforeSimulating)
{
    auto cfg = baseConfig("i.sock");
    // Pin the per-unit estimate absurdly high so the admission test
    // is deterministic: 2 units x 1e9 us >> any sane deadline.
    cfg.estimateInitUnitMicros = 1e9;
    Server server(cfg);
    ASSERT_TRUE(server.start());
    Client client;
    ASSERT_TRUE(client.connect(cfg.socketPath));

    auto query = smallQuery(11);
    query.deadlineMillis = 50;
    std::string frame;
    ASSERT_TRUE(rawCall(client, query, frame));
    PlanReply reply;
    std::string error;
    ASSERT_TRUE(decodeReply(frame, reply, error)) << error;
    EXPECT_EQ(reply.status, ReplyStatus::ShedDeadline);
    EXPECT_EQ(reply.requestId, 11u);

    // No deadline means no prediction to miss -- same query is served.
    query.deadlineMillis = 0;
    query.requestId = 12;
    ASSERT_TRUE(rawCall(client, query, frame));
    ASSERT_TRUE(decodeReply(frame, reply, error)) << error;
    EXPECT_EQ(reply.status, ReplyStatus::Ok);

    const auto snap = server.snapshot();
    EXPECT_EQ(snap.shedDeadline, 1u);
    EXPECT_EQ(snap.unitsSimulated, 2u); // only the admitted query ran

    // The shed counter is on the registry surface solarcore_top and
    // the OpenMetrics exporter read.
    const auto rows = server.statsRows();
    const auto row = std::find_if(rows.begin(), rows.end(), [](auto &r) {
        return r.first == "serve.shedDeadline";
    });
    ASSERT_NE(row, rows.end());
    EXPECT_DOUBLE_EQ(row->second, 1.0);
    server.stop();
}

TEST_F(ServeTest, FullQueueShedsWithTypedReply)
{
    auto cfg = baseConfig("j.sock");
    cfg.maxQueueDepth = 0; // every enqueue attempt overflows
    Server server(cfg);
    ASSERT_TRUE(server.start());
    Client client;
    ASSERT_TRUE(client.connect(cfg.socketPath));

    std::string frame;
    ASSERT_TRUE(rawCall(client, smallQuery(21), frame));
    PlanReply reply;
    std::string error;
    ASSERT_TRUE(decodeReply(frame, reply, error)) << error;
    EXPECT_EQ(reply.status, ReplyStatus::ShedCapacity);
    EXPECT_EQ(reply.requestId, 21u);
    EXPECT_EQ(server.snapshot().shedCapacity, 1u);
    server.stop();
}

TEST_F(ServeTest, DeadlineExpiresDuringService)
{
    auto cfg = baseConfig("k.sock");
    cfg.workers = 1;
    Server server(cfg);
    ASSERT_TRUE(server.start());
    Client client;
    ASSERT_TRUE(client.connect(cfg.socketPath));

    // With no estimate yet the request is admitted, but a 1 ms
    // deadline lapses during simulation (4 units at a fine dt); the
    // worker's between-unit check answers Expired.
    auto query = smallQuery(31);
    query.grid.seeds = {11, 12, 13, 14};
    query.grid.dtSeconds = 60.0;
    query.deadlineMillis = 1;
    std::string frame;
    ASSERT_TRUE(rawCall(client, query, frame));
    PlanReply reply;
    std::string error;
    ASSERT_TRUE(decodeReply(frame, reply, error)) << error;
    EXPECT_EQ(reply.status, ReplyStatus::Expired);
    EXPECT_EQ(server.snapshot().expired, 1u);
    server.stop();
}

TEST_F(ServeTest, OversizedGridIsBadRequest)
{
    auto cfg = baseConfig("l.sock");
    cfg.maxUnitsPerQuery = 1;
    Server server(cfg);
    ASSERT_TRUE(server.start());
    Client client;
    ASSERT_TRUE(client.connect(cfg.socketPath));

    std::string frame;
    ASSERT_TRUE(rawCall(client, smallQuery(41), frame)); // 2 units > 1
    PlanReply reply;
    std::string error;
    ASSERT_TRUE(decodeReply(frame, reply, error)) << error;
    EXPECT_EQ(reply.status, ReplyStatus::BadRequest);
    server.stop();
}

TEST_F(ServeTest, StatusJsonAndMetricsSnapshotAreWellFormed)
{
    auto cfg = baseConfig("m.sock");
    cfg.statusPath = path("status.json");
    cfg.metricsOut = path("metrics.prom");
    Server server(cfg);
    ASSERT_TRUE(server.start());
    Client client;
    ASSERT_TRUE(client.connect(cfg.socketPath));

    std::string frame;
    ASSERT_TRUE(rawCall(client, smallQuery(51), frame));
    ASSERT_TRUE(rawCall(client, smallQuery(52), frame));
    server.publishNow();

    // status.json: parseable, right schema, counters consistent.
    std::ifstream in(cfg.statusPath);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    campaign::FlatJson doc;
    std::string error;
    ASSERT_TRUE(campaign::parseJsonFlat(buf.str(), doc, error)) << error;
    ASSERT_TRUE(doc.count("schema"));
    EXPECT_EQ(doc["schema"].text, "solarcore-serve-status-v1");
    EXPECT_EQ(doc["socket"].text, cfg.socketPath);
    EXPECT_DOUBLE_EQ(doc["requests"].number, 2.0);
    EXPECT_DOUBLE_EQ(doc["ok"].number, 2.0);
    EXPECT_DOUBLE_EQ(doc["result_cache.hits"].number, 1.0);
    EXPECT_DOUBLE_EQ(doc["result_cache.misses"].number, 1.0);
    EXPECT_GT(doc["latency_ms.service_p50"].number, 0.0);
    EXPECT_GE(doc["latency_ms.service_p99"].number,
              doc["latency_ms.service_p50"].number);

    // OpenMetrics snapshot: lint-clean and carrying the serve family.
    std::ifstream min(cfg.metricsOut);
    ASSERT_TRUE(min.good());
    std::stringstream mbuf;
    mbuf << min.rdbuf();
    std::vector<std::string> problems;
    EXPECT_TRUE(obs::lintOpenMetrics(mbuf.str(), problems))
        << (problems.empty() ? "" : problems.front());
    EXPECT_NE(mbuf.str().find("solarcore_serve_requests"),
              std::string::npos);
    EXPECT_NE(mbuf.str().find("solarcore_serve_resultCache_hits"),
              std::string::npos);
    server.stop();
}

TEST_F(ServeTest, TracedQueryYieldsStitchedSpanExport)
{
    auto cfg = baseConfig("t.sock");
    cfg.traceOut = path("spans.jsonl");
    cfg.tracePerfettoOut = path("spans.perfetto.json");
    cfg.metricsOut = path("metrics.prom");
    Server server(cfg);
    ASSERT_TRUE(server.start());
    {
        Client client;
        ASSERT_TRUE(client.connect(cfg.socketPath));
        PlanQuery q = smallQuery(61);
        q.traceId = 0xabc123;
        std::string frame;
        ASSERT_TRUE(rawCall(client, q, frame));
        PlanReply reply;
        std::string error;
        ASSERT_TRUE(decodeReply(frame, reply, error)) << error;
        EXPECT_EQ(reply.status, ReplyStatus::Ok);
    }
    server.publishNow();
    server.stop(); // span exports are written at stop()

    // Every span belongs to the client-stamped trace; the stages of
    // the request lifecycle are all present and stitch to one root.
    std::ifstream in(cfg.traceOut);
    ASSERT_TRUE(in.good());
    std::string line;
    std::vector<std::string> names;
    std::size_t roots = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        campaign::FlatJson doc;
        std::string error;
        ASSERT_TRUE(campaign::parseJsonFlat(line, doc, error)) << error;
        EXPECT_EQ(doc["schema"].text, "solarcore-span-v1");
        EXPECT_EQ(doc["trace"].text, "0000000000abc123");
        names.push_back(doc["name"].text);
        if (doc["parent"].text == "0000000000000000")
            ++roots;
    }
    EXPECT_EQ(roots, 1u);
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    EXPECT_GE(names.size(), 6u);
    for (const char *stage :
         {"request", "io.read", "admit", "queue.wait", "service",
          "unit", "aggregate", "reply"})
        EXPECT_TRUE(std::find(names.begin(), names.end(), stage) !=
                    names.end())
            << "missing stage " << stage;

    // The kept trace surfaces as an exemplar on the latency
    // histograms, and the snapshot still lints clean.
    std::ifstream min(cfg.metricsOut);
    ASSERT_TRUE(min.good());
    std::stringstream mbuf;
    mbuf << min.rdbuf();
    EXPECT_NE(mbuf.str().find("# {trace_id=\"0000000000abc123\"}"),
              std::string::npos);
    std::vector<std::string> problems;
    EXPECT_TRUE(obs::lintOpenMetrics(mbuf.str(), problems))
        << (problems.empty() ? "" : problems.front());

    // The Perfetto artifact exists and is non-trivial JSON.
    std::ifstream pin(cfg.tracePerfettoOut);
    ASSERT_TRUE(pin.good());
    std::stringstream pbuf;
    pbuf << pin.rdbuf();
    EXPECT_NE(pbuf.str().find("\"traceEvents\""), std::string::npos);
}

TEST_F(ServeTest, TraceReadyRepliesByteIdenticalToTracingDisabled)
{
    // Same untraced query against a tracing-armed daemon (head
    // sampling off) and a tracing-disabled daemon: the reply frames
    // must match byte for byte.
    auto traced_cfg = baseConfig("ta.sock");
    traced_cfg.traceOut = path("off_spans.jsonl");
    traced_cfg.traceSample = 0;
    auto plain_cfg = baseConfig("tb.sock");

    std::string traced_frame;
    std::string plain_frame;
    {
        Server server(traced_cfg);
        ASSERT_TRUE(server.start());
        Client client;
        ASSERT_TRUE(client.connect(traced_cfg.socketPath));
        ASSERT_TRUE(rawCall(client, smallQuery(65), traced_frame));
        server.stop();
    }
    {
        Server server(plain_cfg);
        ASSERT_TRUE(server.start());
        Client client;
        ASSERT_TRUE(client.connect(plain_cfg.socketPath));
        ASSERT_TRUE(rawCall(client, smallQuery(65), plain_frame));
        server.stop();
    }
    ASSERT_FALSE(traced_frame.empty());
    EXPECT_EQ(traced_frame, plain_frame);
}

TEST_F(ServeTest, SlowQueryLogRoundTripsThroughStatusJson)
{
    // The slow-query log is always on (no tracing configured here):
    // a tiny slow threshold makes every request slow, and the cap
    // keeps only the most recent two.
    auto cfg = baseConfig("s.sock");
    cfg.statusPath = path("status.json");
    cfg.slowMillis = 0.001;
    cfg.slowLogCap = 2;
    Server server(cfg);
    ASSERT_TRUE(server.start());
    {
        Client client;
        ASSERT_TRUE(client.connect(cfg.socketPath));
        std::string frame;
        ASSERT_TRUE(rawCall(client, smallQuery(71), frame));
        ASSERT_TRUE(rawCall(client, smallQuery(72), frame));
        ASSERT_TRUE(rawCall(client, smallQuery(73), frame));
    }
    server.publishNow();

    const ServeSnapshot snap = server.snapshot();
    ASSERT_EQ(snap.slowQueries.size(), 2u);
    EXPECT_EQ(snap.slowQueries[0].requestId, 72u); // 71 evicted FIFO
    EXPECT_EQ(snap.slowQueries[1].requestId, 73u);
    EXPECT_EQ(snap.slowQueries[1].status, "ok");
    EXPECT_EQ(snap.slowQueries[1].traceId, 0u); // tracing off
    EXPECT_FALSE(snap.tracingEnabled);

    std::ifstream in(cfg.statusPath);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    campaign::FlatJson doc;
    std::string error;
    ASSERT_TRUE(campaign::parseJsonFlat(buf.str(), doc, error)) << error;
    EXPECT_EQ(doc["tracing.enabled"].kind,
              campaign::JsonLeaf::Kind::Bool);
    EXPECT_FALSE(doc["tracing.enabled"].boolean);
    ASSERT_TRUE(doc.count("slow_queries.0.request_id"));
    ASSERT_TRUE(doc.count("slow_queries.1.request_id"));
    EXPECT_FALSE(doc.count("slow_queries.2.request_id"));
    EXPECT_DOUBLE_EQ(doc["slow_queries.0.request_id"].number, 72.0);
    EXPECT_DOUBLE_EQ(doc["slow_queries.1.request_id"].number, 73.0);
    EXPECT_EQ(doc["slow_queries.1.status"].text, "ok");
    EXPECT_EQ(doc["slow_queries.1.trace_id"].text, "");
    EXPECT_GT(doc["slow_queries.1.service_ms"].number, 0.0);
    EXPECT_DOUBLE_EQ(doc["slow_queries.1.units"].number, 2.0);
    server.stop();
}

TEST_F(ServeTest, StopAnswersQueuedRequestsAndUnlinksSocket)
{
    auto cfg = baseConfig("n.sock");
    Server server(cfg);
    ASSERT_TRUE(server.start());
    EXPECT_TRUE(fs::exists(cfg.socketPath));
    server.stop();
    EXPECT_FALSE(fs::exists(cfg.socketPath));
    // stop() is idempotent.
    server.stop();
}

TEST_F(ServeTest, ImmediateStartStopNeverHangs)
{
    // stop() right after start() races the workers into their first
    // wait on the queue; a wakeup lost there leaves a worker asleep
    // and stop() blocked in join(). The binary's ctest TIMEOUT turns
    // such a hang into a failure.
    auto cfg = baseConfig("r.sock");
    cfg.workers = 4;
    for (int round = 0; round < 50; ++round) {
        Server server(cfg);
        ASSERT_TRUE(server.start()) << "round " << round;
        server.stop();
    }
}

} // namespace
} // namespace solarcore::serve
