#include "trace/workloads.hh"

#include <map>

#include "attack/attack.hh"
#include "common/logging.hh"

namespace nucache
{

namespace
{

using Kind = PatternSpec::Kind;

/**
 * Build one pattern tersely.  Fields: kind, blocks, pcs, weight,
 * writeFrac, gapMean, zipfSkew, stride, phase.
 */
PatternSpec
pat(Kind kind, std::uint64_t blocks, unsigned pcs, double weight,
    double write_frac = 0.1, double gap_mean = 4.0, double zipf_skew = 1.0,
    std::uint64_t stride = 1, unsigned phase = 0)
{
    PatternSpec p;
    p.kind = kind;
    p.blocks = blocks;
    p.numPcs = pcs;
    p.weight = weight;
    p.writeFrac = write_frac;
    p.gapMean = gap_mean;
    p.zipfSkew = zipf_skew;
    p.strideBlocks = stride;
    p.phase = phase;
    return p;
}

/**
 * Build one echo pattern: every block touched twice, 2*distance steps
 * apart (see PatternSpec::Kind::Echo).
 */
PatternSpec
echo(std::uint64_t distance, unsigned pcs, double weight,
     double write_frac = 0.3, double gap_mean = 4.0)
{
    PatternSpec p;
    p.kind = Kind::Echo;
    p.blocks = 1 << 17;  // 8 MiB region: wrap reuse is far beyond reach
    p.echoDistance = distance;
    p.numPcs = pcs;
    p.weight = weight;
    p.writeFrac = write_frac;
    p.gapMean = gap_mean;
    return p;
}

/** The full catalog, built once. */
std::map<std::string, WorkloadSpec>
buildCatalog()
{
    std::map<std::string, WorkloadSpec> cat;
    std::uint64_t seed = 1000;
    const auto put = [&](WorkloadSpec spec) {
        spec.seed = ++seed;
        cat[spec.name] = std::move(spec);
    };

    // loop_heavy — art/swim class: a regular loop whose working set
    // (1.5 MiB) exceeds the per-core LLC, plus light streaming
    // pollution.  LRU thrashes; retaining the blocks of a subset of the
    // loop PCs converts part of each iteration into hits.
    {
        WorkloadSpec w;
        w.name = "loop_heavy";
        w.patterns = {
            pat(Kind::Loop, 24576, 24, 1.0, 0.10, 3.0),
            pat(Kind::Stream, 1 << 20, 4, 0.15, 0.05, 6.0),
        };
        put(w);
    }

    // loop_medium — twolf/vpr class: working set (0.75 MiB) fits a
    // private 1 MiB LLC but loses capacity to co-runners when shared.
    {
        WorkloadSpec w;
        w.name = "loop_medium";
        w.patterns = {
            pat(Kind::Loop, 12288, 16, 1.0, 0.12, 4.0),
            pat(Kind::Stream, 1 << 20, 4, 0.25, 0.05, 6.0),
        };
        put(w);
    }

    // chase_big — mcf class: pointer chasing over 2 MiB with a skewed
    // hot set on the side.
    {
        WorkloadSpec w;
        w.name = "chase_big";
        w.patterns = {
            pat(Kind::Chase, 32768, 8, 0.5, 0.05, 5.0),
            pat(Kind::Zipf, 8192, 16, 0.5, 0.10, 4.0, 1.1),
        };
        put(w);
    }

    // stream_pure — libquantum class: pure streaming, zero reuse.
    // Cache-averse; any capacity given to it is wasted.
    {
        WorkloadSpec w;
        w.name = "stream_pure";
        w.patterns = {
            pat(Kind::Stream, 1 << 21, 4, 1.0, 0.30, 2.0),
        };
        put(w);
    }

    // stream_reuse — milc/leslie3d class: dominant streaming with a
    // small reusable kernel.
    {
        WorkloadSpec w;
        w.name = "stream_reuse";
        w.patterns = {
            pat(Kind::Stream, 1 << 21, 6, 0.7, 0.15, 3.0),
            pat(Kind::Loop, 2048, 8, 0.3, 0.10, 4.0),
        };
        put(w);
    }

    // zipf_hot — gcc/perlbench class: skewed random reuse over a
    // capacity-sized footprint, many PCs.
    {
        WorkloadSpec w;
        w.name = "zipf_hot";
        w.patterns = {
            pat(Kind::Zipf, 16384, 32, 1.0, 0.15, 4.0, 1.0),
        };
        put(w);
    }

    // small_ws — hmmer/gamess class: small hot working set, compute
    // heavy.  Cache friendly; a policy should leave it alone.
    {
        WorkloadSpec w;
        w.name = "small_ws";
        w.patterns = {
            pat(Kind::Loop, 1024, 8, 1.0, 0.10, 8.0),
        };
        put(w);
    }

    // scan_loop — sphinx3 class: alternating scan and loop phases over
    // a barely-too-big working set; tests epoch adaptivity.
    {
        WorkloadSpec w;
        w.name = "scan_loop";
        w.phasePeriod = 150'000;
        w.patterns = {
            pat(Kind::Stream, 1 << 20, 4, 1.0, 0.05, 3.0, 1.0, 1, 1),
            pat(Kind::Loop, 10240, 12, 1.0, 0.10, 4.0, 1.0, 1, 2),
            pat(Kind::Zipf, 1024, 4, 0.1, 0.10, 5.0, 1.2),
        };
        put(w);
    }

    // chase_small — omnetpp class: pointer chasing within 0.4 MiB plus
    // streaming pollution.
    {
        WorkloadSpec w;
        w.name = "chase_small";
        w.patterns = {
            pat(Kind::Chase, 4096, 12, 0.8, 0.08, 5.0),
            pat(Kind::Stream, 1 << 20, 4, 0.2, 0.05, 4.0),
        };
        put(w);
    }

    // mix_rw — bzip2 class: moderate loop with heavy store traffic and
    // a streaming component.
    {
        WorkloadSpec w;
        w.name = "mix_rw";
        w.patterns = {
            pat(Kind::Loop, 4096, 8, 0.6, 0.40, 4.0),
            pat(Kind::Stream, 1 << 20, 4, 0.4, 0.35, 4.0),
        };
        put(w);
    }

    // loop_xl — swim class: a 2.5 MiB loop; even NUcache can only
    // retain a fraction, LRU retains none.
    {
        WorkloadSpec w;
        w.name = "loop_xl";
        w.patterns = {
            pat(Kind::Loop, 40960, 32, 1.0, 0.10, 3.0),
        };
        put(w);
    }

    // tiny_hot — gamess class: nearly everything hits upstream.
    {
        WorkloadSpec w;
        w.name = "tiny_hot";
        w.patterns = {
            pat(Kind::Loop, 256, 4, 1.0, 0.10, 10.0),
        };
        put(w);
    }

    // zipf_cold — astar class: weakly skewed reuse over 1.5 MiB;
    // moderate benefit from extra retention.
    {
        WorkloadSpec w;
        w.name = "zipf_cold";
        w.patterns = {
            pat(Kind::Zipf, 24576, 24, 1.0, 0.12, 4.0, 0.6),
        };
        put(w);
    }

    // echo_near — sphinx3/soplex class: produce-consume reuse at a
    // sharp distance just beyond what LRU retains under pollution.
    // The canonical NUcache victory case (see DESIGN.md).
    {
        WorkloadSpec w;
        w.name = "echo_near";
        w.patterns = {
            echo(6144, 16, 1.0, 0.30, 3.0),
            pat(Kind::Stream, 1 << 20, 4, 0.25, 0.05, 5.0),
        };
        put(w);
    }

    // echo_far — lbm/bwaves class: produce-consume at a distance only
    // a subset of PCs can be retained for; exercises the cost-benefit
    // trade-off directly.
    {
        WorkloadSpec w;
        w.name = "echo_far";
        w.patterns = {
            echo(16384, 16, 1.0, 0.30, 3.0),
            pat(Kind::Stream, 1 << 20, 4, 0.15, 0.05, 5.0),
        };
        put(w);
    }

    // echo_bands — gems/zeusmp class: three producer-consumer
    // structures with different lifetimes under one program; the
    // selection must admit the near bands and reject the far one.
    {
        WorkloadSpec w;
        w.name = "echo_bands";
        w.patterns = {
            echo(3072, 8, 0.4, 0.30, 3.0),
            echo(8192, 8, 0.4, 0.30, 3.0),
            echo(20480, 8, 0.3, 0.30, 3.0),
            pat(Kind::Stream, 1 << 20, 4, 0.2, 0.05, 5.0),
        };
        put(w);
    }

    // phase_shift — xalancbmk class: working set alternates between
    // 0.5 MiB and 1 MiB loops; exercises epoch-based re-selection.
    {
        WorkloadSpec w;
        w.name = "phase_shift";
        w.phasePeriod = 200'000;
        w.patterns = {
            pat(Kind::Loop, 8192, 8, 1.0, 0.10, 4.0, 1.0, 1, 1),
            pat(Kind::Loop, 16384, 16, 1.0, 0.10, 4.0, 1.0, 1, 2),
            pat(Kind::Stream, 1 << 20, 4, 0.1, 0.05, 5.0),
        };
        put(w);
    }

    return cat;
}

const std::map<std::string, WorkloadSpec> &
catalog()
{
    static const std::map<std::string, WorkloadSpec> cat = buildCatalog();
    return cat;
}

} // anonymous namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto &kv : catalog())
            v.push_back(kv.first);
        return v;
    }();
    return names;
}

bool
isWorkloadName(const std::string &name)
{
    // The attack:* family is synthesized on demand, not cataloged;
    // a malformed attack name is simply not a workload (the server's
    // never-fatal validation relies on this answering false, not
    // dying).
    if (isAttackName(name)) {
        AttackSpec spec;
        std::string err;
        return tryParseAttackSpec(name, spec, err);
    }
    return catalog().count(name) != 0;
}

WorkloadSpec
workloadSpec(const std::string &name, std::uint64_t length_override)
{
    const auto it = catalog().find(name);
    if (it == catalog().end())
        fatal("unknown workload '", name, "'");
    WorkloadSpec spec = it->second;
    if (length_override != 0)
        spec.length = length_override;
    return spec;
}

std::vector<TraceRecord>
workloadRecords(const std::string &name, std::uint64_t length_override)
{
    if (isAttackName(name))
        return makeAttackTrace(name, length_override);
    return generateTrace(workloadSpec(name, length_override));
}

TraceSourcePtr
makeWorkload(const std::string &name, std::uint64_t length_override)
{
    return std::make_unique<TraceSource>(
        name, workloadRecords(name, length_override));
}

} // namespace nucache
