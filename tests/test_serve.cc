/**
 * @file
 * Loopback integration tests for the nucached server: request/response
 * over a real TCP socket, result-cache and run-alone/arena reuse,
 * concurrent clients, hostile input (garbage and oversized lines),
 * explicit backpressure on a full admission queue, pipelined in-order
 * delivery, slow-client shedding, streamed telemetry frames, engine
 * shards, work-conserving shard workers, engine eviction under
 * concurrency, shutdown draining admitted work, and run_trace over
 * binary and text trace files.
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/net.hh"
#include "model/profile.hh"
#include "serve/server.hh"
#include "sim/experiment.hh"
#include "sim/policies.hh"
#include "sim/system.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"

namespace nucache
{
namespace
{

/** A blocking line-oriented client for one test connection. */
class TestClient
{
  public:
    explicit TestClient(std::uint16_t port)
    {
        std::string err;
        fd = net::connectTcp("127.0.0.1", port, err);
        EXPECT_GE(fd, 0) << err;
        reader = std::make_unique<net::LineReader>(fd);
    }

    ~TestClient()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool
    send(const std::string &line)
    {
        std::string framed = line;
        framed += '\n';
        return net::writeAll(fd, framed.data(), framed.size());
    }

    /** Read one response line and parse it. */
    bool
    recv(Json &doc)
    {
        std::string line, err;
        if (!reader->readLine(line))
            return false;
        EXPECT_TRUE(Json::parse(line, doc, err)) << err << ": " << line;
        return true;
    }

    /** Round-trip @p line; fails the test if the response is late. */
    Json
    call(const std::string &line)
    {
        EXPECT_TRUE(send(line));
        Json doc;
        EXPECT_TRUE(recv(doc));
        return doc;
    }

    int fd = -1;
    std::unique_ptr<net::LineReader> reader;
};

/** Start a server on an ephemeral port with a small window. */
class ServeTest : public ::testing::Test
{
  protected:
    serve::ServerConfig
    baseConfig()
    {
        serve::ServerConfig cfg;
        cfg.port = 0;
        cfg.service.jobs = 2;
        cfg.service.defaultRecords = 2'000;
        return cfg;
    }

    void
    startServer(const serve::ServerConfig &cfg)
    {
        server = std::make_unique<serve::Server>(cfg);
        std::string err;
        ASSERT_TRUE(server->start(err)) << err;
        ASSERT_NE(server->port(), 0);
    }

    std::unique_ptr<serve::Server> server;
};

const char *kMixLine =
    R"({"op":"run_mix","id":1,"params":{"mix":"mix2_01"}})";

TEST_F(ServeTest, HealthRoundTrip)
{
    serve::ServerConfig cfg = baseConfig();
    cfg.shards = 2;
    startServer(cfg);
    TestClient client(server->port());
    const Json doc = client.call(R"({"op":"health","id":3})");
    EXPECT_TRUE(doc.at("ok").asBool());
    EXPECT_EQ(doc.at("id").asUint(), 3u);
    const Json &result = doc.at("result");
    EXPECT_EQ(result.at("status").asString(), "ok");
    EXPECT_EQ(result.at("version").asString(), "nucache-rpc/v1");
    EXPECT_TRUE(result.at("uptime_ms").isNumber());
    EXPECT_EQ(result.at("shards").asUint(), 2u);
}

TEST_F(ServeTest, RunMixResultsAndCacheReuse)
{
    startServer(baseConfig());
    TestClient client(server->port());

    const Json first = client.call(kMixLine);
    ASSERT_TRUE(first.at("ok").asBool()) << first.str(0);
    const Json &result = first.at("result");
    EXPECT_EQ(result.at("mix").asString(), "mix2_01");
    EXPECT_GT(result.at("weighted_speedup").asDouble(), 0.0);
    EXPECT_FALSE(result.at("server").at("cached").asBool());

    // The identical request must come back from the result cache,
    // byte-equal in its simulation content.
    const Json second = client.call(kMixLine);
    ASSERT_TRUE(second.at("ok").asBool());
    EXPECT_TRUE(second.at("result").at("server").at("cached").asBool());
    EXPECT_EQ(second.at("result").at("weighted_speedup").str(0),
              result.at("weighted_speedup").str(0));
}

TEST_F(ServeTest, AloneRunsAndArenaAreReusedAcrossRequests)
{
    startServer(baseConfig());
    TestClient client(server->port());

    // Two *uncached* runs of the same mix: the second must reuse the
    // memoized run-alone baselines and the materialized arena traces.
    const char *uncached =
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("no_cache":true}})";
    ASSERT_TRUE(client.call(uncached).at("ok").asBool());
    const Json m1 = client.call(R"({"op":"metrics"})").at("result");
    ASSERT_TRUE(client.call(uncached).at("ok").asBool());
    const Json m2 = client.call(R"({"op":"metrics"})").at("result");

    const Json &svc1 = m1.at("shards").at(0).at("service");
    const Json &svc2 = m2.at("shards").at(0).at("service");
    EXPECT_EQ(svc2.at("cache_hits").asUint(),
              svc1.at("cache_hits").asUint());
    EXPECT_EQ(svc2.at("alone_runs").asUint(),
              svc1.at("alone_runs").asUint());
    EXPECT_EQ(m2.at("process").at("arena_materializations").asUint(),
              m1.at("process").at("arena_materializations").asUint());
}

TEST_F(ServeTest, TelemetryRequestAttachesDocument)
{
    startServer(baseConfig());
    TestClient client(server->port());
    const Json doc = client.call(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("telemetry":500}})");
    ASSERT_TRUE(doc.at("ok").asBool()) << doc.str(0);
    const Json *telemetry = doc.at("result").find("telemetry");
    ASSERT_NE(telemetry, nullptr);
    EXPECT_EQ(telemetry->at("schema").asString(),
              "nucache-telemetry/v1");
}

TEST_F(ServeTest, GarbageLineGetsErrorAndConnectionSurvives)
{
    startServer(baseConfig());
    TestClient client(server->port());

    const Json bad = client.call("this is not json");
    EXPECT_FALSE(bad.at("ok").asBool());
    EXPECT_EQ(bad.at("error").at("code").asString(), "bad_request");

    const Json unknown = client.call(R"({"op":"explode"})");
    EXPECT_FALSE(unknown.at("ok").asBool());

    // Same socket still serves valid requests.
    EXPECT_TRUE(client.call(R"({"op":"health"})").at("ok").asBool());
}

TEST_F(ServeTest, OversizedLineIsRejectedAndClosed)
{
    serve::ServerConfig cfg = baseConfig();
    cfg.maxLineBytes = 512;
    startServer(cfg);
    TestClient client(server->port());

    const std::string big(2048, 'x');
    ASSERT_TRUE(client.send(big));
    Json doc;
    ASSERT_TRUE(client.recv(doc));
    EXPECT_FALSE(doc.at("ok").asBool());
    EXPECT_EQ(doc.at("error").at("code").asString(), "too_large");
    // The server closes the connection after flushing the error.
    EXPECT_FALSE(client.recv(doc));
}

TEST_F(ServeTest, FullQueueAnswersOverload)
{
    serve::ServerConfig cfg = baseConfig();
    cfg.queueDepth = 1;
    startServer(cfg);

    // Occupy the shard with an exclusive (telemetry) run that takes
    // ~2s: its workers pop nothing else while it runs.  Then fill
    // the depth-1 queue and overflow it.
    TestClient blocker(server->port());
    ASSERT_TRUE(blocker.send(
        R"({"op":"run_mix","id":1,"params":{"mix":"mix2_01",)"
        R"("records":1000000,"telemetry":100000}})"));

    TestClient client(server->port());
    Json metrics;
    do {
        metrics = client.call(R"({"op":"metrics"})");
    } while (metrics.at("result")
                 .at("shards")
                 .at(0)
                 .at("dispatched")
                 .asUint() == 0);

    // Two admissions back-to-back: the first fills the queue while
    // the workers are held back, the second must get explicit
    // backpressure instead of an unbounded queue or a stalled socket.
    // Both carry the largest queue deadline, so a slow blocker (a
    // sanitizer build with the checker on) cannot expire id 2 first.
    ASSERT_TRUE(client.send(
        std::string(R"({"op":"run_mix","id":2,"deadline_ms":600000,)"
                    R"("params":{"mix":"mix2_01"}})") +
        "\n" +
        R"({"op":"run_mix","id":3,"deadline_ms":600000,)"
        R"("params":{"mix":"mix2_01"}})"));
    Json first, second;
    ASSERT_TRUE(client.recv(first));
    ASSERT_TRUE(client.recv(second));
    // The overload for id 3 is produced immediately, but pipelined
    // responses are delivered in request order: it parks in its
    // response slot until id 2 completes behind the blocker.
    EXPECT_EQ(first.at("id").asUint(), 2u);
    EXPECT_TRUE(first.at("ok").asBool());
    EXPECT_EQ(second.at("id").asUint(), 3u);
    EXPECT_FALSE(second.at("ok").asBool());
    EXPECT_EQ(second.at("error").at("code").asString(), "overload");

    // Control ops bypass the admission queue entirely.
    EXPECT_TRUE(client.call(R"({"op":"health"})").at("ok").asBool());
    Json blocked;
    EXPECT_TRUE(blocker.recv(blocked));
    EXPECT_TRUE(blocked.at("ok").asBool());
}

TEST_F(ServeTest, ConcurrentClientsAllServed)
{
    startServer(baseConfig());
    constexpr int kClients = 4;
    constexpr int kRequests = 8;
    std::vector<std::thread> threads;
    std::atomic<int> ok{0};
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            TestClient client(server->port());
            for (int r = 0; r < kRequests; ++r) {
                const Json doc = client.call(kMixLine);
                if (doc.isObject() && doc.at("ok").asBool())
                    ++ok;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(ok.load(), kClients * kRequests);

    const Json metrics = TestClient(server->port())
                             .call(R"({"op":"metrics"})");
    EXPECT_EQ(metrics.at("result")
                  .at("server")
                  .at("dropped_responses")
                  .asUint(),
              0u);
}

TEST_F(ServeTest, ShutdownDrainsAdmittedWork)
{
    startServer(baseConfig());
    TestClient client(server->port());

    // Queue real (uncacheable) work, then ask for shutdown.  Every
    // admitted request must still get its response before the server
    // closes the connection.
    constexpr int kInFlight = 3;
    for (int i = 0; i < kInFlight; ++i)
        ASSERT_TRUE(client.send(
            R"({"op":"run_mix","id":)" + std::to_string(i + 10) +
            R"(,"params":{"mix":"mix2_01","no_cache":true}})"));
    ASSERT_TRUE(client.send(R"({"op":"shutdown"})"));

    int run_responses = 0;
    bool drain_ack = false;
    Json doc;
    while (client.recv(doc)) {
        if (!doc.at("ok").asBool())
            continue;
        const Json &result = doc.at("result");
        if (result.find("draining") != nullptr)
            drain_ack = true;
        else if (result.find("mix") != nullptr)
            ++run_responses;
    }
    EXPECT_TRUE(drain_ack);
    EXPECT_EQ(run_responses, kInFlight);

    server->join();
    EXPECT_TRUE(server->shuttingDown());
}

TEST_F(ServeTest, PipelinedResponsesArriveInRequestOrder)
{
    startServer(baseConfig());
    TestClient client(server->port());

    // 16 requests written before any response is read: a slow run
    // first, cheap inline control ops behind it, and a final run.
    // The old server would answer the health probes first; the
    // in-order contract requires responses in request order, with
    // the probes parked behind the simulation in their slots.
    constexpr int kInFlight = 16;
    std::string burst;
    for (int i = 0; i < kInFlight; ++i) {
        if (i == 0 || i == kInFlight - 1) {
            burst += R"({"op":"run_mix","id":)" + std::to_string(i) +
                     R"(,"params":{"mix":"mix2_01","no_cache":true}})";
        } else {
            burst +=
                R"({"op":"health","id":)" + std::to_string(i) + "}";
        }
        burst += "\n";
    }
    ASSERT_TRUE(
        net::writeAll(client.fd, burst.data(), burst.size()));
    for (int i = 0; i < kInFlight; ++i) {
        Json doc;
        ASSERT_TRUE(client.recv(doc)) << "response " << i;
        EXPECT_EQ(doc.at("id").asUint(),
                  static_cast<std::uint64_t>(i));
        EXPECT_TRUE(doc.at("ok").asBool()) << doc.str(0);
    }
}

/** @return the JSON request line for an uncached run_mix of
 *  @p mix over a @p records window. */
std::string
uncachedMixLine(const std::string &mix, std::uint64_t records)
{
    return R"({"op":"run_mix","params":{"mix":")" + mix +
           R"(","records":)" + std::to_string(records) +
           R"(,"no_cache":true}})";
}

/** @return @p response's result without its per-run server block. */
std::string
simulatedPart(const Json &response)
{
    Json out = Json::object();
    for (const auto &[k, v] : response.at("result").members())
        if (k != "server")
            out[k] = v;
    return out.str(0);
}

TEST_F(ServeTest, ShortRunIsNotStuckBehindLongOne)
{
    serve::ServerConfig cfg = baseConfig();
    cfg.shards = 1;
    cfg.service.jobs = 2;
    startServer(cfg);

    // A long exact run occupies one of the shard's two workers.
    TestClient longClient(server->port());
    ASSERT_TRUE(longClient.send(uncachedMixLine("mix2_01", 1'000'000)));
    TestClient shortClient(server->port());
    Json metrics;
    do {
        metrics = shortClient.call(R"({"op":"metrics"})");
    } while (metrics.at("result")
                 .at("shards")
                 .at(0)
                 .at("dispatched")
                 .asUint() == 0);

    // The idle worker takes the short run at once: its reply arrives
    // while the long run's socket has nothing to read yet.
    const Json shortReply =
        shortClient.call(uncachedMixLine("mix2_01", 2'000));
    ASSERT_TRUE(shortReply.at("ok").asBool()) << shortReply.str(0);
    pollfd pfd{longClient.fd, POLLIN, 0};
    EXPECT_EQ(::poll(&pfd, 1, 0), 0)
        << "the short run waited for the long one";

    Json longReply;
    ASSERT_TRUE(longClient.recv(longReply));
    EXPECT_TRUE(longReply.at("ok").asBool()) << longReply.str(0);
}

TEST_F(ServeTest, ConcurrentRunsAcrossMoreWindowsThanEngines)
{
    serve::ServerConfig cfg = baseConfig();
    cfg.shards = 1;
    cfg.service.jobs = 2;
    startServer(cfg);

    // Five windows, one more than the shard keeps engines for.  One
    // connection repeats the longest window while the other cycles
    // through the four short ones, so the long run's engine is
    // evicted while a worker is still simulating on it.
    const std::vector<std::uint64_t> shortWindows = {2'000, 2'500,
                                                     3'000, 3'500};
    constexpr std::uint64_t kLongWindow = 40'000;
    constexpr int kRounds = 3;
    std::vector<Json> longReplies(kRounds);
    std::vector<Json> shortReplies(kRounds * shortWindows.size());
    std::thread longThread([&] {
        TestClient client(server->port());
        for (Json &reply : longReplies)
            reply = client.call(uncachedMixLine("mix2_01", kLongWindow));
    });
    std::thread shortThread([&] {
        TestClient client(server->port());
        for (std::size_t i = 0; i < shortReplies.size(); ++i)
            shortReplies[i] = client.call(uncachedMixLine(
                "mix2_02", shortWindows[i % shortWindows.size()]));
    });
    longThread.join();
    shortThread.join();

    // Every reply matches the same request run alone on a fresh
    // service.
    serve::SimulationService alone(cfg.service);
    auto expect = [&](const std::string &line, const Json &reply) {
        ASSERT_TRUE(reply.isObject());
        ASSERT_TRUE(reply.at("ok").asBool()) << reply.str(0);
        serve::Request req;
        std::string err;
        ASSERT_TRUE(serve::parseRequest(line, req, err)) << err;
        Json want;
        alone.executeBatch({req}, [&](std::size_t, Json response) {
            want = std::move(response);
        });
        EXPECT_EQ(simulatedPart(reply), simulatedPart(want)) << line;
    };
    for (const Json &reply : longReplies)
        expect(uncachedMixLine("mix2_01", kLongWindow), reply);
    for (std::size_t i = 0; i < shortReplies.size(); ++i)
        expect(uncachedMixLine("mix2_02",
                               shortWindows[i % shortWindows.size()]),
               shortReplies[i]);

    const Json metrics =
        TestClient(server->port()).call(R"({"op":"metrics"})");
    EXPECT_GE(metrics.at("result")
                  .at("shards")
                  .at(0)
                  .at("service")
                  .at("engines_evicted")
                  .asUint(),
              1u);
}

TEST_F(ServeTest, SlowReaderIsShedWhileOthersAreServed)
{
    serve::ServerConfig cfg = baseConfig();
    // Tiny buffers make the shed deterministic: the kernel absorbs a
    // few KiB at most, so an unread response backlog crosses the
    // outbound cap after a handful of responses.
    cfg.maxOutboundBytes = 32 * 1024;
    cfg.sockSndBufBytes = 4096;
    startServer(cfg);

    // Prime the result cache so the stalled client's requests answer
    // instantly and pile up in its outbound buffer.
    TestClient(server->port()).call(kMixLine);

    TestClient stalled(server->port());
    net::setRecvBuffer(stalled.fd, 1024);
    const std::string line = std::string(kMixLine) + "\n";
    std::string burst;
    for (int i = 0; i < 200; ++i)
        burst += line;
    // The stalled client writes requests and never reads.  The write
    // itself may fail midway once the server sheds the connection.
    (void)net::writeAll(stalled.fd, burst.data(), burst.size());

    // A well-behaved client on another connection is served promptly
    // the whole time — the loop thread never blocks on the stalled
    // socket (the old server wedged every connection here).
    TestClient healthy(server->port());
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(healthy.call(kMixLine).at("ok").asBool());

    // The stalled connection must be closed by the server: draining
    // whatever was buffered ends in EOF, never a hang.
    Json doc;
    while (stalled.recv(doc)) {
    }
    // The shed counter ticked, and the outbound gauge's high-water
    // mark records the backlog that crossed the 32 KiB cap before the
    // kill.
    const Json metrics = healthy.call(R"({"op":"metrics"})");
    ASSERT_TRUE(metrics.at("ok").asBool()) << metrics.str(0);
    const Json &srv = metrics.at("result").at("server");
    EXPECT_GE(srv.at("slow_clients").asUint(), 1u);
    EXPECT_GE(srv.at("outbound_hwm_bytes").asUint(), 32u * 1024u);
    EXPECT_LT(srv.at("outbound_bytes").asUint(),
              srv.at("outbound_hwm_bytes").asUint());
}

TEST_F(ServeTest, StreamedTelemetryRunDeliversOrderedFrames)
{
    startServer(baseConfig());
    TestClient client(server->port());
    ASSERT_TRUE(client.send(
        R"({"op":"run_mix","id":5,"params":{"mix":"mix2_01",)"
        R"("telemetry":500,"stream":true}})"));

    bool saw_result = false, saw_telemetry = false;
    std::uint64_t expect_seq = 0;
    while (true) {
        Json doc;
        ASSERT_TRUE(client.recv(doc));
        ASSERT_TRUE(doc.at("ok").asBool()) << doc.str(0);
        EXPECT_EQ(doc.at("id").asUint(), 5u);
        const Json &stream = doc.at("stream");
        EXPECT_EQ(stream.at("seq").asUint(), expect_seq);
        ++expect_seq;
        if (doc.find("result") != nullptr)
            saw_result = true;
        if (const Json *t = doc.find("telemetry"); t != nullptr) {
            saw_telemetry = true;
            EXPECT_EQ(t->at("schema").asString(),
                      "nucache-telemetry/v1");
        }
        if (stream.at("last").asBool())
            break;
    }
    EXPECT_TRUE(saw_result);
    EXPECT_TRUE(saw_telemetry);
    EXPECT_GE(expect_seq, 2u);

    // The connection still serves ordinary requests after a stream.
    EXPECT_TRUE(client.call(R"({"op":"health"})").at("ok").asBool());
}

TEST_F(ServeTest, StreamWithoutTelemetryIsRejected)
{
    startServer(baseConfig());
    TestClient client(server->port());
    const Json doc = client.call(
        R"({"op":"run_mix","params":{"mix":"mix2_01","stream":true}})");
    EXPECT_FALSE(doc.at("ok").asBool());
    EXPECT_EQ(doc.at("error").at("code").asString(), "bad_request");
}

TEST_F(ServeTest, ShardedServerServesDistinctWindows)
{
    serve::ServerConfig cfg = baseConfig();
    cfg.shards = 2;
    startServer(cfg);
    TestClient client(server->port());

    // Distinct measurement windows hash to (potentially) different
    // shards; both must serve and cache independently.
    const char *win_a =
        R"({"op":"run_mix","id":1,"params":{"mix":"mix2_01",)"
        R"("records":2000}})";
    const char *win_b =
        R"({"op":"run_mix","id":2,"params":{"mix":"mix2_01",)"
        R"("records":4000}})";
    const Json a1 = client.call(win_a);
    const Json b1 = client.call(win_b);
    ASSERT_TRUE(a1.at("ok").asBool()) << a1.str(0);
    ASSERT_TRUE(b1.at("ok").asBool()) << b1.str(0);
    EXPECT_FALSE(a1.at("result").at("server").at("cached").asBool());
    EXPECT_FALSE(b1.at("result").at("server").at("cached").asBool());

    const Json a2 = client.call(win_a);
    const Json b2 = client.call(win_b);
    EXPECT_TRUE(a2.at("result").at("server").at("cached").asBool());
    EXPECT_TRUE(b2.at("result").at("server").at("cached").asBool());
    EXPECT_EQ(a2.at("result").at("weighted_speedup").str(0),
              a1.at("result").at("weighted_speedup").str(0));
    EXPECT_EQ(b2.at("result").at("weighted_speedup").str(0),
              b1.at("result").at("weighted_speedup").str(0));

    const Json metrics = client.call(R"({"op":"metrics"})");
    EXPECT_EQ(
        metrics.at("result").at("server").at("serve_shards").asUint(),
        2u);
}

TEST_F(ServeTest, EstimateModeAnswersFromTheModel)
{
    // Cold-start the profile store so the first estimate provably
    // takes the worker (profile-building) path.
    model::ProfileStore::instance().clear();
    startServer(baseConfig());
    TestClient client(server->port());

    // Cold estimate: the profiles are not built yet, so the request
    // takes the worker path (which builds them), but still answers
    // from the model, tagged as such.
    const char *estimate =
        R"({"op":"run_mix","id":1,"params":{"mix":"mix2_01",)"
        R"("mode":"estimate"}})";
    const Json first = client.call(estimate);
    ASSERT_TRUE(first.at("ok").asBool()) << first.str(0);
    const Json &result = first.at("result");
    EXPECT_TRUE(result.at("estimated").asBool());
    EXPECT_EQ(result.at("model_version").asString(),
              "nucache-estimate/v1");
    EXPECT_GT(result.at("weighted_speedup").asDouble(), 0.0);
    EXPECT_FALSE(result.at("server").at("cached").asBool());

    // Identical request: served from the result cache.
    const Json second = client.call(estimate);
    EXPECT_TRUE(second.at("result").at("server").at("cached").asBool());
    EXPECT_EQ(second.at("result").at("weighted_speedup").str(0),
              result.at("weighted_speedup").str(0));

    // Warm profiles + cache opt-out: answered inline on the loop
    // thread (the sub-millisecond fast path), counted as such.
    const char *uncached =
        R"({"op":"run_mix","id":2,"params":{"mix":"mix2_01",)"
        R"("mode":"estimate","no_cache":true}})";
    const Json third = client.call(uncached);
    ASSERT_TRUE(third.at("ok").asBool()) << third.str(0);
    EXPECT_TRUE(third.at("result").at("estimated").asBool());
    // Estimates are deterministic: the inline answer is numerically
    // identical to the worker-path answer.
    EXPECT_EQ(third.at("result").at("weighted_speedup").str(0),
              result.at("weighted_speedup").str(0));

    const Json metrics = client.call(R"({"op":"metrics"})");
    const Json &svc =
        metrics.at("result").at("shards").at(0).at("service");
    EXPECT_EQ(svc.at("estimates").asUint(), 2u);
    EXPECT_EQ(svc.at("estimates_inline").asUint(), 1u);
}

TEST_F(ServeTest, EstimateAndExactResultsAreCachedSeparately)
{
    startServer(baseConfig());
    TestClient client(server->port());

    const char *exact =
        R"({"op":"run_mix","id":1,"params":{"mix":"mix2_01"}})";
    const Json sim = client.call(exact);
    ASSERT_TRUE(sim.at("ok").asBool()) << sim.str(0);
    EXPECT_EQ(sim.at("result").find("estimated"), nullptr);

    // The estimate for the same (mix, policy, window, geometry) must
    // not be served from the exact run's cache entry — the tier is
    // part of the key.
    const char *estimate =
        R"({"op":"run_mix","id":2,"params":{"mix":"mix2_01",)"
        R"("mode":"estimate"}})";
    const Json est = client.call(estimate);
    ASSERT_TRUE(est.at("ok").asBool()) << est.str(0);
    EXPECT_FALSE(est.at("result").at("server").at("cached").asBool());
    EXPECT_TRUE(est.at("result").at("estimated").asBool());

    // And the exact rerun still returns the simulation payload.
    const Json again = client.call(exact);
    EXPECT_TRUE(again.at("result").at("server").at("cached").asBool());
    EXPECT_EQ(again.at("result").find("estimated"), nullptr);
    EXPECT_EQ(again.at("result").at("weighted_speedup").str(0),
              sim.at("result").at("weighted_speedup").str(0));
}

TEST_F(ServeTest, MetricsOpReportsRequestClassesAndShards)
{
    model::ProfileStore::instance().clear();
    serve::ServerConfig cfg = baseConfig();
    cfg.shards = 2;
    startServer(cfg);
    TestClient client(server->port());

    // One exact run (dispatched), its cached repeat (inline), and an
    // estimate — three distinct request classes.
    ASSERT_TRUE(client.call(kMixLine).at("ok").asBool());
    ASSERT_TRUE(client.call(kMixLine).at("ok").asBool());
    ASSERT_TRUE(client
                    .call(R"({"op":"run_mix","params":{)"
                          R"("mix":"mix2_01","mode":"estimate"}})")
                    .at("ok")
                    .asBool());

    const Json doc = client.call(R"({"op":"metrics"})");
    ASSERT_TRUE(doc.at("ok").asBool()) << doc.str(0);
    const Json &m = doc.at("result");
    EXPECT_EQ(m.at("schema").asString(), "nucache-metrics/v1");

    const Json &srv = m.at("server");
    EXPECT_GE(srv.at("requests").asUint(), 4u);
    EXPECT_EQ(srv.at("serve_shards").asUint(), 2u);
    EXPECT_GT(srv.at("outbound_hwm_bytes").asUint(), 0u);
    EXPECT_GE(srv.at("metrics_scrapes").asUint(), 1u);
    EXPECT_GT(m.at("process").at("rss_bytes").asUint(), 0u);

    // Every class that ran has total-latency samples; the phase
    // histograms cover the dispatched requests.
    const Json &classes = m.at("requests");
    EXPECT_GE(classes.at("exact").at("count").asUint(), 1u);
    EXPECT_GE(classes.at("cache_hit").at("count").asUint(), 1u);
    EXPECT_GE(classes.at("estimate").at("count").asUint(), 1u);
    EXPECT_GT(classes.at("exact").at("p50_us").asDouble(), 0.0);
    EXPECT_GE(m.at("phases").at("execute").at("count").asUint(), 2u);
    EXPECT_GE(m.at("phases").at("flush").at("count").asUint(), 3u);

    // Per-shard rows: both shards present, the dispatch counters sum
    // to the dispatched (non-inline) requests.
    const Json &shards = m.at("shards");
    ASSERT_EQ(shards.size(), 2u);
    std::uint64_t dispatched = 0;
    for (const Json &s : shards.elements()) {
        dispatched += s.at("dispatched").asUint();
        EXPECT_TRUE(s.at("queue_len").isNumber());
        EXPECT_TRUE(s.at("queue_depth_hwm").isNumber());
        EXPECT_TRUE(s.at("service").isObject());
    }
    EXPECT_GE(dispatched, 2u);

    const Json &cache = m.at("cache");
    EXPECT_GE(cache.at("result_hits").asUint(), 1u);
    EXPECT_GE(cache.at("engines_built").asUint(), 1u);
    EXPECT_GE(cache.at("estimates").asUint(), 1u);
    EXPECT_GE(m.at("slow_requests").size(), 1u);
}

TEST_F(ServeTest, MetricsPrometheusFormat)
{
    startServer(baseConfig());
    TestClient client(server->port());
    ASSERT_TRUE(client.call(R"({"op":"health"})").at("ok").asBool());

    const Json doc = client.call(
        R"({"op":"metrics","params":{"format":"prometheus"}})");
    ASSERT_TRUE(doc.at("ok").asBool()) << doc.str(0);
    const Json &result = doc.at("result");
    EXPECT_EQ(result.at("content_type").asString(),
              "text/plain; version=0.0.4");
    const std::string &text = result.at("text").asString();
    EXPECT_NE(text.find("# TYPE nucache_requests_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("nucache_requests_total "), std::string::npos);
    EXPECT_NE(text.find("nucache_serve_shards 1"), std::string::npos);
    EXPECT_NE(text.find("nucache_shard_queue_len{shard=\"0\"}"),
              std::string::npos);
    // Histograms carry the +Inf bucket and the _sum/_count pair.
    EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
    EXPECT_NE(text.find("nucache_request_duration_us_count"),
              std::string::npos);
}

TEST_F(ServeTest, TwoShardStatsCountProfilesOnce)
{
    // profiles_built comes from the process-global ProfileStore, so
    // metrics reports it once, in the process block, and in no shard
    // row a reader might sum.
    model::ProfileStore::instance().clear();
    serve::ServerConfig cfg = baseConfig();
    cfg.shards = 2;
    startServer(cfg);
    TestClient client(server->port());

    ASSERT_TRUE(client
                    .call(R"({"op":"run_mix","params":{)"
                          R"("mix":"mix2_01","mode":"estimate"}})")
                    .at("ok")
                    .asBool());
    const std::uint64_t built =
        model::ProfileStore::instance().built();
    ASSERT_GT(built, 0u);

    const Json metrics = client.call(R"({"op":"metrics"})");
    const Json &m = metrics.at("result");
    EXPECT_EQ(m.at("process").at("profiles_built").asUint(), built);
    for (const Json &shard : m.at("shards").elements())
        EXPECT_EQ(shard.at("service").find("profiles_built"), nullptr);
}

TEST_F(ServeTest, NewRunsRejectedWhileShuttingDown)
{
    startServer(baseConfig());
    TestClient client(server->port());
    ASSERT_TRUE(client.call(R"({"op":"shutdown"})")
                    .at("ok")
                    .asBool());
    // The run may race the poll loop's exit: either an explicit
    // shutting_down rejection or a closed connection is acceptable,
    // but never a hang or a success.
    if (client.send(kMixLine)) {
        Json doc;
        if (client.recv(doc)) {
            EXPECT_FALSE(doc.at("ok").asBool());
            EXPECT_EQ(doc.at("error").at("code").asString(),
                      "shutting_down");
        }
    }
    server->join();
}

/** A fresh directory under the system temp dir, removed on scope exit. */
struct TempDir
{
    TempDir()
    {
        std::string tmpl =
            (std::filesystem::temp_directory_path() / "nucache-XXXXXX")
                .string();
        EXPECT_NE(::mkdtemp(tmpl.data()), nullptr);
        path = tmpl;
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    std::string file(const std::string &name) const
    {
        return (path / name).string();
    }

    std::filesystem::path path;
};

/** @return the service's answer to run_trace over @p paths. */
Json
runTrace(serve::SimulationService &svc,
         const std::vector<std::string> &paths)
{
    Json traces = Json::array();
    for (const std::string &p : paths)
        traces.push(p);
    Json params = Json::object();
    params["traces"] = std::move(traces);
    Json line = Json::object();
    line["op"] = "run_trace";
    line["params"] = std::move(params);
    serve::Request req;
    std::string err;
    EXPECT_TRUE(serve::parseRequest(line.str(0), req, err)) << err;
    Json response;
    svc.executeBatch({req}, [&](std::size_t, Json r) {
        response = std::move(r);
    });
    return response;
}

TEST(ServiceRunTrace, BinaryAndTextFilesAnswerLikeADirectRun)
{
    const std::vector<std::vector<TraceRecord>> recs = {
        workloadRecords("echo_near", 3'000),
        workloadRecords("loop_medium", 2'500)};
    TempDir dir;
    std::vector<std::string> bin, text;
    for (std::size_t c = 0; c < recs.size(); ++c) {
        bin.push_back(dir.file("core" + std::to_string(c) + ".nutrace"));
        text.push_back(dir.file("core" + std::to_string(c) + ".txt"));
        std::ofstream b(bin.back(), std::ios::binary);
        writeBinaryTrace(b, recs[c]);
        std::ofstream t(text.back());
        writeTextTrace(t, recs[c]);
    }

    serve::SimulationService svc(serve::ServiceConfig{});
    const Json fromBin = runTrace(svc, bin);
    const Json fromText = runTrace(svc, text);
    ASSERT_TRUE(fromBin.at("ok").asBool()) << fromBin.str(0);
    ASSERT_TRUE(fromText.at("ok").asBool()) << fromText.str(0);

    // The default window is the shorter trace.
    std::vector<TraceSourcePtr> traces;
    for (const auto &r : recs)
        traces.push_back(std::make_unique<TraceSource>("direct", r));
    System sys(defaultHierarchy(2), makePolicy("nucache"),
               std::move(traces), 2'500);
    const SystemResult direct = sys.run();
    const std::string directStats = sys.statsJson().str(0);

    for (const Json *doc : {&fromBin, &fromText}) {
        const Json &result = doc->at("result");
        EXPECT_EQ(result.at("records_per_core").asUint(), 2'500u);
        EXPECT_EQ(result.at("stats").str(0), directStats);
        EXPECT_EQ(result.at("llc_writebacks").asUint(),
                  direct.llcWritebacks);
        EXPECT_EQ(result.at("dram_reads").asUint(), direct.dramReads);
        const Json &cores = result.at("cores");
        ASSERT_EQ(cores.size(), 2u);
        for (std::size_t c = 0; c < 2; ++c) {
            EXPECT_EQ(cores.at(c).at("ipc").asDouble(),
                      direct.cores[c].ipc);
            EXPECT_EQ(cores.at(c).at("llc_misses").asUint(),
                      direct.cores[c].llc.misses);
        }
    }
}

TEST(ServiceRunTrace, MissingAndEmptyFilesAreBadRequests)
{
    TempDir dir;
    const std::string empty = dir.file("empty.nutrace");
    std::ofstream(empty).close();

    serve::SimulationService svc(serve::ServiceConfig{});
    for (const std::string &path : {dir.file("missing.nutrace"), empty}) {
        const Json doc = runTrace(svc, {path});
        ASSERT_FALSE(doc.at("ok").asBool()) << path;
        EXPECT_EQ(doc.at("error").at("code").asString(), "bad_request");
        EXPECT_NE(doc.at("error").at("message").asString().find(path),
                  std::string::npos)
            << doc.str(0);
    }
}

} // anonymous namespace
} // namespace nucache
