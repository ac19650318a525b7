/**
 * @file
 * gen_trace: materialize a catalog workload (or a custom pattern mix)
 * into a NUTRACE1 binary file, so external tooling can consume the
 * synthetic workloads and so users have a reference for producing
 * traces of their own programs (e.g.\ from a pintool).
 *
 * Usage:
 *   gen_trace --workload=echo_near --records=2000000 out.nutrace
 *   gen_trace --list
 */

#include <fstream>
#include <iostream>

#include "common/cli.hh"
#include "common/logging.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"

using namespace nucache;

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);

    if (args.has("list")) {
        for (const auto &name : workloadNames())
            std::cout << name << "\n";
        return 0;
    }

    if (args.positional().size() != 1) {
        std::cerr << "usage: gen_trace [--workload=NAME] "
                     "[--records=N] OUT.nutrace\n"
                     "       gen_trace --list\n";
        return 1;
    }
    const std::string out_path = args.positional()[0];
    const std::string workload = args.get("workload", "echo_near");
    const std::uint64_t records = args.getInt("records", 1'000'000);

    if (!isWorkloadName(workload))
        fatal("unknown workload '", workload, "' (try --list)");

    const std::vector<TraceRecord> recs = workloadRecords(workload, records);

    std::ofstream os(out_path, std::ios::binary);
    if (!os)
        fatal("cannot open '", out_path, "' for writing");
    writeBinaryTrace(os, recs);
    inform("wrote ", recs.size(), " records of '", workload, "' to ",
           out_path);
    return 0;
}
