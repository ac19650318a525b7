/**
 * @file
 * perfbench: one run of one benchmark workload.
 *
 *   perfbench --workload grid8|serve_exact|serve_estimate --seed N
 *             --seconds S --trace 0|1 [--spans FILE]
 *
 * Prints progress on stderr and, as the last line of stdout, the full
 * report as one JSON object (perfbench/run.py turns it into the
 * benchmark's result line).  --trace 0 measures the end-to-end
 * metrics.  --trace 1 measures them once untraced and once traced
 * (their difference is the tracing overhead), then runs every layer
 * driver and writes the spans to FILE.
 */

#include <cmath>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "check/check_mode.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_ID
#define PERFBENCH_CXX_ID "unknown"
#endif
#ifndef PERFBENCH_CXX_VERSION
#define PERFBENCH_CXX_VERSION "unknown"
#endif

using namespace perfbench;

namespace
{

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload") {
            opt.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            opt.seed = std::stoull(v);
        } else if (a == "--seconds") {
            opt.seconds = std::stod(v);
        } else if (a == "--trace") {
            opt.trace = v == "1";
        } else if (a == "--spans") {
            opt.spansPath = v;
        } else {
            throw std::invalid_argument("unknown option " + a);
        }
    }
    if (!have_workload)
        throw std::invalid_argument("--workload is required");
    if (!(opt.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    return opt;
}

Json
machine(const Draw &draw)
{
    Json m = Json::object();
    m["hardware_threads"] = std::thread::hardware_concurrency();
    m["compiler"] = std::string(PERFBENCH_CXX_ID) + " " +
                    PERFBENCH_CXX_VERSION;
    m["build_type"] = PERFBENCH_BUILD_TYPE;
#ifdef NUCACHE_CHECK_DEFAULT
    m["NUCACHE_CHECK"] = "ON";
#else
    m["NUCACHE_CHECK"] = "OFF";
#endif
    // The benchmark's own build never adds -march=native.
    m["NUCACHE_NATIVE"] = "OFF";
    m["invariant_checker"] = nucache::check::enabled();
    m["jobs"] = draw.jobs;
    m["connections"] = draw.connections;
    m["records_per_core"] = draw.records;
    return m;
}

Json
metricsJson(const Metrics &metrics)
{
    Json out = Json::object();
    for (const auto &[name, m] : metrics) {
        Json j = Json::object();
        j["value"] = m.value;
        j["unit"] = m.unit;
        out[name] = std::move(j);
    }
    return out;
}

Json
errorsJson(const std::vector<std::string> &errors)
{
    Json out = Json::array();
    for (const auto &e : errors)
        out.push(e);
    return out;
}

/** The time metrics whose traced/untraced difference is the overhead. */
const char *const kTimed[] = {"p50_ms", "tail_ms", "ops_per_s",
                              "sim_maccess_per_s"};

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        const Options opt = parseArgs(argc, argv);
        const Draw draw = makeDraw(opt.workload, opt.seed);

        Json report = Json::object();
        report["schema"] = "perfbench/v1";
        report["workload"] = opt.workload;
        report["seed"] = opt.seed;
        report["seconds"] = opt.seconds;
        report["trace"] = opt.trace;
        report["machine"] = machine(draw);
        report["draw"] = draw.toJson();
        Json notes = Json::array();
        notes.push("simulated caches start empty: statistics use the "
                   "first-wrap methodology of src/sim/system.hh, with no "
                   "warm-up phase");
        notes.push("simulated metrics are unvalidated: the repository "
                   "holds no hardware reference, so they carry no error "
                   "figure; the paper's +33% eight-core gain is on SPEC, "
                   "not on this synthetic catalog");
        report["notes"] = std::move(notes);

        std::cerr << "perfbench: " << opt.workload << " seed " << opt.seed
                  << (opt.trace ? " (traced run)" : "") << "\n";
        const Outcome e2e = runEndToEnd(draw, opt, false);
        Outcome result = e2e;
        report["end_to_end"] = metricsJson(e2e.metrics);
        report["digest"] = e2e.digest;
        report["detail"] = e2e.detail;

        if (opt.trace) {
            Spans::instance().enable(true);
            const Outcome traced = runEndToEnd(draw, opt, true);
            const Outcome layers = runLayers(draw);
            Json overhead = Json::object();
            for (const char *name : kTimed) {
                const double u = e2e.metrics.at(name).value;
                const double t = traced.metrics.at(name).value;
                Json o = Json::object();
                o["untraced"] = u;
                o["traced"] = t;
                o["difference"] = t - u;
                overhead[name] = std::move(o);
            }
            report["tracing_overhead"] = std::move(overhead);
            report["traced_end_to_end"] = metricsJson(traced.metrics);
            if (traced.digest != e2e.digest)
                result.errors.push_back("traced run simulated different "
                                        "statistics");

            result.metrics = layers.metrics;
            const double u = e2e.metrics.at("p50_ms").value;
            result.metrics["bench.trace_overhead_frac"] = {
                (traced.metrics.at("p50_ms").value - u) / u, "fraction"};
            result.attempted += traced.attempted + layers.attempted;
            result.failed += traced.failed + layers.failed;
            for (const auto *src : {&traced.errors, &layers.errors})
                result.errors.insert(result.errors.end(), src->begin(),
                                     src->end());
            report["layer_spans"] = Spans::instance().layerSummary();
            if (!opt.spansPath.empty() &&
                !Spans::instance().write(opt.spansPath))
                result.errors.push_back("cannot write " + opt.spansPath);
        }

        bool finite = true;
        for (const auto &[name, m] : result.metrics)
            if (!std::isfinite(m.value)) {
                finite = false;
                result.errors.push_back("metric " + name + " is not finite");
            }
        report["metrics"] = metricsJson(result.metrics);
        report["attempted"] = result.attempted;
        report["failed"] = result.failed;
        report["errors"] = errorsJson(result.errors);
        report["correct"] =
            finite && result.errors.empty() && result.failed == 0;
        std::cout << report.str(0) << std::endl;
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
