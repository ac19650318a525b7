/**
 * @file
 * run_trace: replay one or more trace files (binary NUTRACE1 or the
 * "pc addr gap r|w" text form) through the multicore
 * hierarchy under any policy and report per-core statistics — the
 * entry point for evaluating NUcache on real captured traces instead
 * of the synthetic catalog.
 *
 * Usage:
 *   run_trace [--policy=nucache] [--records=N] [--llc-kib=1024]
 *             [--llc-ways=16] [--check] [--json=FILE]
 *             [--telemetry[=N]] [--trace-out=FILE]
 *             [--mode=exact|estimate]
 *             a.nutrace [b.nutrace ...]
 *
 * One trace per core; the LLC defaults to the canonical configuration
 * for that core count unless overridden.  --telemetry samples the
 * observability probes every N LLC accesses and writes the
 * `nucache-telemetry/v1` document next to --json (or telemetry.json);
 * --trace-out captures a Chrome trace_event timeline of the run.
 *
 * --mode=estimate skips the multicore simulation: each trace gets one
 * single-core profiling pass (src/model/), then the analytical
 * reuse-distance model predicts per-core IPC and LLC miss rates for
 * the requested geometry and policy.  The report and the JSON
 * document carry "estimated": true plus the model version;
 * --telemetry / --check / --trace-out do not apply (the model does
 * not simulate the mix).
 */

#include <algorithm>
#include <fstream>
#include <iostream>

#include "check/check_mode.hh"
#include "common/cli.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "model/predictor.hh"
#include "model/profile.hh"
#include "obs/obs_mode.hh"
#include "obs/telemetry.hh"
#include "obs/tracer.hh"
#include "sim/experiment.hh"
#include "sim/policies.hh"
#include "sim/system.hh"
#include "trace/trace_io.hh"

using namespace nucache;

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv, {"check", "telemetry"});
    if (args.positional().empty()) {
        std::cerr << "usage: run_trace [--policy=P] [--records=N] "
                     "[--llc-kib=K] [--llc-ways=W] [--check] "
                     "[--json=FILE] [--telemetry[=N]] "
                     "[--trace-out=FILE] [--mode=exact|estimate] "
                     "TRACE...\n";
        return 1;
    }

    const std::string policy = args.get("policy", "nucache");
    const unsigned cores =
        static_cast<unsigned>(args.positional().size());

    std::vector<TraceSourcePtr> traces;
    std::uint64_t shortest = ~std::uint64_t{0};
    for (const auto &path : args.positional()) {
        traces.push_back(loadTraceFile(path));
        // The shortest trace is the default measurement window.
        shortest = std::min<std::uint64_t>(shortest,
                                           traces.back()->records().size());
    }
    const std::uint64_t records = args.getInt("records", shortest);

    HierarchyConfig hier = defaultHierarchy(cores);
    if (args.has("llc-kib") || args.has("llc-ways")) {
        hier.llc = CacheConfig{
            "llc", args.getInt("llc-kib", hier.llc.sizeBytes >> 10) << 10,
            static_cast<std::uint32_t>(
                args.getInt("llc-ways", hier.llc.ways)),
            64};
    }

    const std::string mode = args.get("mode", "exact");
    if (mode != "exact" && mode != "estimate")
        fatal("--mode must be 'exact' or 'estimate', got '", mode,
              "'");
    if (mode == "estimate") {
        std::string err;
        if (!model::estimateSupported(policy, err))
            fatal("--mode=estimate: ", err);
        if (args.has("telemetry") || args.has("check") ||
            args.has("trace-out"))
            fatal("--mode=estimate does not simulate: --telemetry, "
                  "--check and --trace-out do not apply");

        std::vector<model::ProfilePtr> profiles;
        for (std::size_t c = 0; c < traces.size(); ++c) {
            profiles.push_back(model::collectProfileFromTrace(
                args.positional()[c], std::move(traces[c]), records));
        }
        const model::MixEstimate est =
            model::estimateMix(profiles, hier, policy);

        std::cout << cores << " core(s), LLC "
                  << (hier.llc.sizeBytes >> 10) << " KiB "
                  << hier.llc.ways << "-way, policy " << policy
                  << ", " << records
                  << " records/core (estimated, " << model::kModelVersion
                  << ")\n\n";
        TextTable table;
        table.header({"core", "trace", "est IPC", "est LLC miss"});
        for (std::size_t c = 0; c < est.cores.size(); ++c) {
            table.row()
                .cell(std::uint64_t{c})
                .cell(profiles[c]->workload)
                .cell(est.cores[c].ipc)
                .cell(est.cores[c].missRate);
        }
        table.print(std::cout);
        std::cout << "\nestimated mix LLC hit rate: " << est.llcHitRate
                  << ", weighted speedup: " << est.weightedSpeedup
                  << "\n";

        const std::string json_path = args.get("json", "");
        if (!json_path.empty()) {
            Json doc = Json::object();
            doc["schema"] = "nucache-run/v1";
            doc["estimated"] = true;
            doc["model_version"] = model::kModelVersion;
            doc["policy"] = policy;
            doc["records_per_core"] = records;
            doc["cores"] = static_cast<std::uint64_t>(cores);
            Json stats = Json::array();
            for (std::size_t c = 0; c < est.cores.size(); ++c) {
                Json core = Json::object();
                core["trace"] = profiles[c]->workload;
                core["ipc"] = est.cores[c].ipc;
                core["llc_hit_rate"] = est.cores[c].hitRate;
                core["llc_miss_rate"] = est.cores[c].missRate;
                if (est.cores[c].deliHitRate > 0.0)
                    core["deli_hit_rate"] = est.cores[c].deliHitRate;
                stats.push(std::move(core));
            }
            doc["stats"] = std::move(stats);
            doc["llc_hit_rate"] = est.llcHitRate;
            doc["weighted_speedup"] = est.weightedSpeedup;
            std::ofstream os(json_path);
            if (!os)
                fatal("cannot write JSON results to '", json_path,
                      "'");
            doc.dump(os);
            os << "\n";
            std::fprintf(stderr, "wrote JSON results to %s\n",
                         json_path.c_str());
        }
        return 0;
    }

    if (args.has("check"))
        check::setEnabled(true);

    std::uint64_t telemetry = 0;
    if (args.has("telemetry")) {
        telemetry =
            args.getInt("telemetry", obs::kDefaultTelemetryInterval);
        if (telemetry == 0)
            fatal("--telemetry interval must be > 0");
        obs::setTelemetryInterval(telemetry);
    }
    const std::string trace_out = args.get("trace-out", "");
    if (!trace_out.empty())
        obs::Tracer::instance().start(trace_out);

    System sys(hier, makePolicy(policy), std::move(traces), records,
               check::enabled());
    const SystemResult res = sys.run();

    std::cout << cores << " core(s), LLC "
              << (hier.llc.sizeBytes >> 10) << " KiB "
              << hier.llc.ways << "-way, policy " << policy << ", "
              << records << " records/core\n\n";
    TextTable table;
    table.header({"core", "trace", "IPC", "L1 miss", "LLC miss"});
    for (std::size_t c = 0; c < res.cores.size(); ++c) {
        table.row()
            .cell(std::uint64_t{c})
            .cell(res.cores[c].workload)
            .cell(res.cores[c].ipc)
            .cell(res.cores[c].l1.missRate())
            .cell(res.cores[c].llc.missRate());
    }
    table.print(std::cout);
    std::cout << "\nLLC writebacks: " << res.llcWritebacks
              << ", DRAM reads: " << res.dramReads
              << ", DRAM queueing cycles: " << res.dramQueueCycles
              << "\n";

    const std::string json_path = args.get("json", "");
    if (!json_path.empty()) {
        Json doc = Json::object();
        doc["schema"] = "nucache-run/v1";
        doc["policy"] = policy;
        doc["records_per_core"] = records;
        doc["cores"] = static_cast<std::uint64_t>(cores);
        doc["stats"] = sys.statsJson();
        std::ofstream os(json_path);
        if (!os)
            fatal("cannot write JSON results to '", json_path, "'");
        doc.dump(os);
        os << "\n";
        std::fprintf(stderr, "wrote JSON results to %s\n",
                     json_path.c_str());
    }

    if (telemetry != 0) {
        std::string tpath = json_path;
        const std::string ext = ".json";
        if (tpath.size() > ext.size() &&
            tpath.compare(tpath.size() - ext.size(), ext.size(), ext) ==
                0) {
            tpath.resize(tpath.size() - ext.size());
        }
        tpath = tpath.empty() ? "telemetry.json"
                              : tpath + "_telemetry.json";
        Json tdoc = obs::TelemetryHub::instance().drainJson();
        std::ofstream os(tpath);
        if (!os)
            fatal("cannot write telemetry to '", tpath, "'");
        tdoc.dump(os);
        os << "\n";
        std::fprintf(stderr, "wrote telemetry to %s\n", tpath.c_str());
    }
    obs::Tracer::instance().stop();
    return 0;
}
