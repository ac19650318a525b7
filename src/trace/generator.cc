#include "trace/generator.hh"

#include <algorithm>
#include <numeric>
#include <optional>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace nucache
{

std::vector<std::uint32_t>
buildChaseCycle(std::size_t n, std::uint64_t seed)
{
    // Sattolo's algorithm: a uniformly random single-cycle permutation,
    // so a pointer chase visits every block before repeating (reuse
    // distance == working-set size, like a linked-list traversal).
    std::vector<std::uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0u);
    Rng rng(seed);
    for (std::size_t i = n - 1; i > 0; --i) {
        const std::size_t j = rng.below(i);
        std::swap(perm[i], perm[j]);
    }
    return perm;
}

namespace
{

/** Per-pattern state while a trace is generated. */
struct PatternState
{
    std::uint64_t cursor = 0;
    std::uint64_t regionBase = 0;
    PC pcBase = 0;
    std::vector<std::uint32_t> perm;    // Chase only
    std::optional<ZipfSampler> zipf;    // Zipf only
};

/** Pick the pattern for the next burst (weighted, phase-aware). */
std::size_t
pickPattern(const WorkloadSpec &spec, std::uint64_t emitted, Rng &rng)
{
    // Phase gating: group 0 is always eligible, groups 1/2 alternate.
    unsigned live_phase = 0;
    if (spec.phasePeriod != 0)
        live_phase = 1 + static_cast<unsigned>(
            (emitted / spec.phasePeriod) % 2);

    double total = 0.0;
    for (const auto &p : spec.patterns) {
        if (p.phase == 0 || p.phase == live_phase)
            total += p.weight;
    }
    if (total <= 0.0)
        panic("workload '", spec.name, "': no eligible pattern in phase");

    double draw = rng.uniform() * total;
    for (std::size_t i = 0; i < spec.patterns.size(); ++i) {
        const auto &p = spec.patterns[i];
        if (!(p.phase == 0 || p.phase == live_phase))
            continue;
        draw -= p.weight;
        if (draw <= 0.0)
            return i;
    }
    // Floating-point slack: fall back to the last eligible pattern.
    for (std::size_t i = spec.patterns.size(); i-- > 0;) {
        const auto &p = spec.patterns[i];
        if (p.phase == 0 || p.phase == live_phase)
            return i;
    }
    panic("workload '", spec.name, "': pattern pick fell through");
}

/** @return one record of pattern @p p, advancing its state @p st. */
TraceRecord
emitFrom(const PatternSpec &p, PatternState &st, Rng &rng)
{
    TraceRecord rec;
    std::uint64_t block = 0;
    bool echo_touch = false;
    switch (p.kind) {
      case PatternSpec::Kind::Stream:
        block = (st.cursor * p.strideBlocks) % (std::uint64_t{1} << 21);
        st.cursor++;
        break;
      case PatternSpec::Kind::Loop:
        block = (st.cursor * p.strideBlocks) % p.blocks;
        st.cursor++;
        break;
      case PatternSpec::Kind::Chase:
        st.cursor = st.perm[static_cast<std::size_t>(st.cursor)];
        block = st.cursor;
        break;
      case PatternSpec::Kind::Zipf:
        block = st.zipf->sample(rng);
        break;
      case PatternSpec::Kind::Echo:
        // Alternate a fresh touch of block c with the echo touch of
        // the block from echoDistance steps ago, then advance.  Every
        // block is referenced exactly twice, 2*echoDistance accesses
        // apart (early echoes land on untouched blocks: cold misses).
        if (st.cursor % 2 == 0) {
            block = (st.cursor / 2) % p.blocks;
        } else {
            block = (st.cursor / 2 + p.blocks - p.echoDistance) %
                    p.blocks;
            echo_touch = true;
        }
        st.cursor++;
        break;
    }

    rec.addr = st.regionBase + block * genBlockSize;
    // Fixed block->PC assignment so each PC's blocks share reuse
    // behaviour (this is what makes per-PC Next-Use prediction work).
    // The assignment is hashed, not strided: real data structures are
    // not PC-striped, and a strided mapping aliases with any
    // power-of-two set sampling a monitor might use.
    if (p.kind == PatternSpec::Kind::Zipf) {
        // Zipf block indices are popularity ranks; assign PCs by rank
        // band so each PC models one data structure with a coherent
        // hotness level (hot bands reuse at short distances, cold
        // bands stream) — the delinquent-PC structure the paper
        // observes in SPEC.
        const std::uint64_t band = (block * p.numPcs) / p.blocks;
        rec.pc = st.pcBase + static_cast<unsigned>(band) * 4;
        rec.isWrite = rng.chance(p.writeFrac);
    } else if (p.kind == PatternSpec::Kind::Echo) {
        // Producer/consumer code uses distinct instructions: the lower
        // half of the PC range produces (fresh touches, whose fills
        // have a predictable next use), the upper half consumes (echo
        // touches, whose refills on a miss are dead on arrival).
        const unsigned half = std::max(1u, p.numPcs / 2);
        const unsigned idx =
            echo_touch
                ? half + static_cast<unsigned>(
                             mix64(block) % std::max(1u, p.numPcs - half))
                : static_cast<unsigned>(mix64(block) % half);
        rec.pc = st.pcBase + idx * 4;
        rec.isWrite = echo_touch ? false : rng.chance(p.writeFrac);
    } else {
        rec.pc = st.pcBase + (mix64(block) % p.numPcs) * 4;
        rec.isWrite = rng.chance(p.writeFrac);
    }
    const double gap_p = 1.0 / (1.0 + p.gapMean);
    rec.nonMemGap = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(rng.geometric(gap_p), 1000));
    return rec;
}

} // anonymous namespace

std::vector<TraceRecord>
generateTrace(const WorkloadSpec &spec)
{
    if (spec.patterns.empty())
        fatal("workload '", spec.name, "' has no patterns");
    if (spec.burstLen == 0)
        fatal("workload '", spec.name, "' has zero burst length");
    for (const auto &p : spec.patterns) {
        if (p.blocks == 0)
            fatal("workload '", spec.name, "': pattern with 0 blocks");
        if (p.numPcs == 0)
            fatal("workload '", spec.name, "': pattern with 0 PCs");
        if (p.strideBlocks == 0)
            fatal("workload '", spec.name, "': pattern with 0 stride");
        if (p.kind == PatternSpec::Kind::Echo &&
            p.echoDistance >= p.blocks) {
            fatal("workload '", spec.name,
                  "': echo distance must be below the region size");
        }
    }

    std::vector<PatternState> states;
    PC pc_cursor = 0x400000;  // typical text-segment base
    for (std::size_t i = 0; i < spec.patterns.size(); ++i) {
        const auto &p = spec.patterns[i];
        PatternState st;
        // Disjoint 256 MiB region per pattern.
        st.regionBase = static_cast<std::uint64_t>(i + 1) << 28;
        st.pcBase = pc_cursor;
        pc_cursor += p.numPcs * 4;  // 4-byte instruction slots
        if (p.kind == PatternSpec::Kind::Chase) {
            st.perm = buildChaseCycle(static_cast<std::size_t>(p.blocks),
                                      spec.seed ^ (i * 0x9e37u));
        }
        if (p.kind == PatternSpec::Kind::Zipf)
            st.zipf.emplace(static_cast<std::size_t>(p.blocks), p.zipfSkew);
        states.push_back(std::move(st));
    }

    Rng rng(spec.seed);
    std::vector<TraceRecord> out;
    out.reserve(spec.length);
    std::size_t active = 0;
    unsigned burst_left = 0;
    for (std::uint64_t emitted = 0; emitted < spec.length; ++emitted) {
        if (burst_left == 0) {
            active = pickPattern(spec, emitted, rng);
            burst_left = spec.burstLen;
        }
        out.push_back(emitFrom(spec.patterns[active], states[active], rng));
        --burst_left;
    }
    return out;
}

} // namespace nucache