/**
 * @file
 * Unit tests for the nucache-rpc/v1 protocol layer: strict request
 * parsing and validation, caching keys, and the response
 * envelopes.  Everything here must reject bad input with an error
 * string — never fatal() — because these paths face untrusted bytes.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "serve/protocol.hh"
#include "sim/policies.hh"

namespace nucache
{
namespace
{

using serve::Request;

/** Parse @p line expecting success. */
Request
mustParse(const std::string &line)
{
    Request req;
    std::string err;
    EXPECT_TRUE(serve::parseRequest(line, req, err)) << err;
    return req;
}

/** Parse @p line expecting failure; @return the error string. */
std::string
mustReject(const std::string &line)
{
    Request req;
    std::string err;
    EXPECT_FALSE(serve::parseRequest(line, req, err)) << line;
    EXPECT_FALSE(err.empty());
    return err;
}

TEST(Protocol, ParsesNamedMix)
{
    const Request req = mustParse(
        R"({"v":"nucache-rpc/v1","id":7,"op":"run_mix",)"
        R"("params":{"mix":"mix2_01"}})");
    EXPECT_EQ(req.op, serve::Op::RunMix);
    EXPECT_TRUE(req.hasId);
    EXPECT_EQ(req.id, 7u);
    EXPECT_EQ(req.mix.name, "mix2_01");
    EXPECT_EQ(req.mix.workloads.size(), 2u);
    EXPECT_EQ(req.policy, "nucache");
    EXPECT_FALSE(req.noCache);
    EXPECT_EQ(req.telemetry, 0u);
}

TEST(Protocol, ParsesAdhocWorkloadList)
{
    const Request req = mustParse(
        R"({"op":"run_mix","params":{)"
        R"("workloads":["loop_medium","stream_pure"],)"
        R"("policy":"lru","records":5000,"llc_kib":2048,)"
        R"("llc_ways":8,"no_cache":true}})");
    EXPECT_FALSE(req.hasId);
    EXPECT_EQ(req.mix.workloads.size(), 2u);
    EXPECT_EQ(req.policy, "lru");
    EXPECT_EQ(req.records, 5000u);
    EXPECT_EQ(req.llcKib, 2048u);
    EXPECT_EQ(req.llcWays, 8u);
    EXPECT_TRUE(req.noCache);

    const HierarchyConfig hier = serve::requestHierarchy(req);
    EXPECT_EQ(hier.numCores, 2u);
    EXPECT_EQ(hier.llc.sizeBytes, 2048u << 10);
    EXPECT_EQ(hier.llc.ways, 8u);
}

TEST(Protocol, ControlOpsNeedNoParams)
{
    EXPECT_EQ(mustParse(R"({"op":"health"})").op, serve::Op::Health);
    EXPECT_EQ(mustParse(R"({"op":"shutdown"})").op,
              serve::Op::Shutdown);
}

TEST(Protocol, ParsesMetricsOp)
{
    const Request plain = mustParse(R"({"op":"metrics"})");
    EXPECT_EQ(plain.op, serve::Op::Metrics);
    EXPECT_FALSE(plain.promFormat);

    const Request json = mustParse(
        R"({"op":"metrics","params":{"format":"json"}})");
    EXPECT_FALSE(json.promFormat);

    const Request prom = mustParse(
        R"({"op":"metrics","params":{"format":"prometheus"}})");
    EXPECT_TRUE(prom.promFormat);
}

TEST(Protocol, RejectsBadMetricsParams)
{
    mustReject(R"({"op":"metrics","params":{"format":"xml"}})");
    mustReject(R"({"op":"metrics","params":{"format":7}})");
    // run_mix params are not metrics params.
    mustReject(R"({"op":"metrics","params":{"mix":"mix2_01"}})");
}

TEST(Protocol, RejectsMalformedLines)
{
    mustReject("");
    mustReject("garbage");
    mustReject("[1,2,3]");
    mustReject(R"("just a string")");
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01"})");
}

TEST(Protocol, RejectsVersionMismatch)
{
    mustReject(R"({"v":"nucache-rpc/v2","op":"health"})");
    mustReject(R"({"v":7,"op":"health"})");
}

TEST(Protocol, RejectsUnknownMembers)
{
    mustReject(R"({"op":"health","bogus":1})");
    mustReject(
        R"({"op":"run_mix","params":{"mix":"mix2_01","bogus":1}})");
}

TEST(Protocol, RejectsUnknownOp)
{
    mustReject(R"({"op":"explode"})");
    // `stats` is not an op: its counters are in `metrics`.
    EXPECT_NE(mustReject(R"({"op":"stats"})").find("unknown op"),
              std::string::npos);
    mustReject(R"({"op":7})");
    mustReject(R"({"params":{}})");
}

TEST(Protocol, MixAndWorkloadsAreExclusive)
{
    mustReject(R"({"op":"run_mix","params":{}})");
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
               R"("workloads":["loop_medium"]}})");
}

TEST(Protocol, RejectsUnknownNames)
{
    mustReject(R"({"op":"run_mix","params":{"mix":"mix99_01"}})");
    mustReject(
        R"({"op":"run_mix","params":{"workloads":["nope"]}})");
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
               R"("policy":"nope"}})");
}

TEST(Protocol, RejectsOutOfRangeNumbers)
{
    // Below/above the records caps, and a negative number (which the
    // JSON layer would otherwise panic on via asUint).
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
               R"("records":999}})");
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
               R"("records":64000001}})");
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
               R"("records":-5}})");
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
               R"("llc_ways":65}})");
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
               R"("telemetry":-5}})");
    mustReject(R"({"op":"health","deadline_ms":600001})");
}

TEST(Protocol, RejectsImpossibleGeometry)
{
    // 48 KiB over 16 ways of 64 B blocks -> 48 sets: not a power of
    // two, so the Cache constructor would fatal(); the parser must
    // catch it first.
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
               R"("llc_kib":48}})");
}

TEST(Protocol, RejectsRemovedSlicedExecutionKnobs)
{
    // Params of no longer supported features must answer bad_request
    // naming the key under both simulation ops, not be ignored.
    const std::pair<const char *, const char *> ops[] = {
        {"run_mix", R"("mix":"mix2_01")"},
        {"run_trace", R"("traces":["/x"])"},
    };
    for (const auto &[op, base] : ops) {
        for (const char *key : {"slices", "shard_jobs"}) {
            const std::string err = mustReject(
                std::string(R"({"op":")") + op + R"(","params":{)" +
                base + ",\"" + key + "\":2}}");
            EXPECT_EQ(err, std::string("unknown parameter '") + key +
                               "' for op '" + op + "'");
        }
    }
}

TEST(Protocol, ParsesEstimateMode)
{
    const Request dflt = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01"}})");
    EXPECT_EQ(dflt.mode, serve::Mode::Exact);

    const Request exact = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("mode":"exact"}})");
    EXPECT_EQ(exact.mode, serve::Mode::Exact);

    const Request est = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("mode":"estimate","policy":"ucp"}})");
    EXPECT_EQ(est.mode, serve::Mode::Estimate);
    EXPECT_EQ(est.policy, "ucp");
}

TEST(Protocol, RejectsUnsupportableEstimates)
{
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
               R"("mode":"guess"}})");
    // The model cannot attach observers or stream frames.
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
               R"("mode":"estimate","telemetry":1000}})");
    mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
               R"("mode":"estimate","telemetry":1000,)"
               R"("stream":true}})");
    // Policy families outside the model are a parse-time error, not
    // a wrong answer.
    const std::string err =
        mustReject(R"({"op":"run_mix","params":{"mix":"mix2_01",)"
                   R"("mode":"estimate","policy":"ship"}})");
    EXPECT_NE(err.find("estimate"), std::string::npos) << err;
    // Server-side estimates apply to run_mix only.
    mustReject(R"({"op":"run_trace","params":{"traces":["/x"],)"
               R"("mode":"estimate"}})");
}

TEST(Protocol, RunTraceRejectsTelemetryAndStream)
{
    // run_trace records no telemetry document, so neither knob may be
    // accepted and then silently dropped.
    for (const char *extra : {R"("telemetry":500)", R"("telemetry":true)",
                              R"("telemetry":500,"stream":true)"}) {
        const std::string err = mustReject(
            std::string(R"({"op":"run_trace","params":{"traces":["/x"],)") +
            extra + "}}");
        EXPECT_NE(err.find("run_trace cannot attach telemetry"),
                  std::string::npos)
            << extra << ": " << err;
    }
    // Turning telemetry off is not a request for it.
    const Request off = mustParse(
        R"({"op":"run_trace","params":{"traces":["/x"],)"
        R"("telemetry":false}})");
    EXPECT_EQ(off.telemetry, 0u);
    EXPECT_FALSE(off.stream);
}

TEST(Protocol, CacheKeyIsCanonicalAndOptOutable)
{
    const std::string line =
        R"({"op":"run_mix","params":{"mix":"mix2_01"}})";
    const Request a = mustParse(line);
    const Request b = mustParse(line);
    EXPECT_EQ(serve::cacheKey(a, 250'000), serve::cacheKey(b, 250'000));
    EXPECT_FALSE(serve::cacheKey(a, 250'000).empty());

    const Request other = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("policy":"lru"}})");
    EXPECT_NE(serve::cacheKey(a, 250'000),
              serve::cacheKey(other, 250'000));

    const Request uncached = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("no_cache":true}})");
    EXPECT_TRUE(serve::cacheKey(uncached, 250'000).empty());

    const Request telemetry = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("telemetry":1000}})");
    EXPECT_TRUE(serve::cacheKey(telemetry, 250'000).empty());

    const Request health = mustParse(R"({"op":"health"})");
    EXPECT_TRUE(serve::cacheKey(health, 250'000).empty());
}

TEST(Protocol, CacheKeyAuditsEveryResultAffectingField)
{
    const Request base = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01"}})");
    const std::string key = serve::cacheKey(base, 250'000);

    // Everything that changes the response bytes must change the key:
    // geometry, window, policy, mix, and the execution tier.
    const Request geometry = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("llc_kib":512,"llc_ways":8}})");
    EXPECT_NE(serve::cacheKey(geometry, 250'000), key);

    const Request window = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("records":10000}})");
    EXPECT_NE(serve::cacheKey(window, 250'000), key);

    const Request estimate = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("mode":"estimate"}})");
    EXPECT_NE(serve::cacheKey(estimate, 250'000), key);
    // ... and an estimate at different geometry is again distinct.
    const Request estGeom = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("mode":"estimate","llc_kib":512}})");
    EXPECT_NE(serve::cacheKey(estGeom, 250'000),
              serve::cacheKey(estimate, 250'000));

    // An explicit exact mode is byte-identical to the default tier.
    const Request exact = mustParse(
        R"({"op":"run_mix","params":{"mix":"mix2_01",)"
        R"("mode":"exact"}})");
    EXPECT_EQ(serve::cacheKey(exact, 250'000), key);
}

TEST(Protocol, ResponseEnvelopesRoundTrip)
{
    Request req;
    req.hasId = true;
    req.id = 42;
    Json result = Json::object();
    result["answer"] = 1;
    const Json ok = serve::okResponse(req, std::move(result));

    Json back;
    std::string err;
    ASSERT_TRUE(Json::parse(ok.str(0), back, err)) << err;
    EXPECT_EQ(back.at("v").asString(), serve::kProtocolVersion);
    EXPECT_EQ(back.at("id").asUint(), 42u);
    EXPECT_TRUE(back.at("ok").asBool());
    EXPECT_EQ(back.at("result").at("answer").asUint(), 1u);

    const Json fail =
        serve::errorResponse(serve::error::kOverload, "queue full");
    ASSERT_TRUE(Json::parse(fail.str(0), back, err)) << err;
    EXPECT_FALSE(back.at("ok").asBool());
    EXPECT_EQ(back.at("error").at("code").asString(), "overload");
    // A line that never parsed has no id to echo.
    EXPECT_EQ(back.find("id"), nullptr);
}

TEST(Protocol, ValidatePolicySpecMatchesFactoryGrammar)
{
    std::string err;
    EXPECT_TRUE(validatePolicySpec("nucache", err));
    EXPECT_TRUE(validatePolicySpec("lru", err));
    EXPECT_TRUE(validatePolicySpec("nucache:dlimit=4", err));
    EXPECT_TRUE(validatePolicySpec("nucache:dlimit=4,k=2", err));

    EXPECT_FALSE(validatePolicySpec("nope", err));
    EXPECT_FALSE(validatePolicySpec("nucache:dlimit", err));
    EXPECT_FALSE(validatePolicySpec("nucache:dlimit=", err));
    EXPECT_FALSE(validatePolicySpec("nucache:=4", err));
    EXPECT_FALSE(validatePolicySpec("nucache:dlimit=abc", err));
    EXPECT_FALSE(
        validatePolicySpec("nucache:dlimit=12345678901234567", err));
}

} // anonymous namespace
} // namespace nucache
