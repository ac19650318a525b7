/**
 * @file
 * Synthetic workload generation.
 *
 * The paper evaluates on SPEC CPU binaries; those traces are not
 * redistributable, so this module provides parameterized generators
 * whose traces expose the two properties NUcache exploits:
 *
 *  1. miss concentration in a small number of static PCs
 *     ("delinquent PCs"), and
 *  2. predictable per-PC Next-Use distances, with substantial mass just
 *     beyond what LRU can retain.
 *
 * A workload is a weighted mix of *patterns*.  Each pattern owns a
 * disjoint address region and a contiguous PC range, and assigns each
 * block to a fixed PC so that a PC's blocks share reuse behaviour — the
 * structure the Next-Use monitor learns.
 *
 * Pattern kinds:
 *  - Stream:  sequential walk with no reuse (cache-averse pollution).
 *  - Loop:    cyclic walk over a fixed working set; thrashes LRU when
 *             the working set exceeds capacity.  The canonical NUcache
 *             victory case: retaining the blocks of a *subset* of the
 *             loop's PCs converts part of the loop into hits.
 *  - Chase:   pseudo-random permutation walk (pointer chasing).
 *  - Zipf:    independent draws with Zipf popularity (skewed reuse).
 *  - Echo:    produce-then-consume: every block is touched exactly
 *             twice, `echoDistance` pattern steps apart, then never
 *             again.  This is the signature DelinquentPC/Next-Use
 *             structure of the paper: the next use sits at a sharp,
 *             per-PC-predictable distance just beyond LRU's reach, and
 *             blocks are dead afterwards — ideal for a FIFO retention
 *             annex, poison for recency- and frequency-based policies
 *             (whose retained samples fill with dead blocks).
 */

#ifndef NUCACHE_TRACE_GENERATOR_HH
#define NUCACHE_TRACE_GENERATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace nucache
{

/** Cache block size assumed by the generators (bytes). */
constexpr std::uint64_t genBlockSize = 64;

/** One access pattern inside a synthetic workload. */
struct PatternSpec
{
    enum class Kind { Stream, Loop, Chase, Zipf, Echo };

    Kind kind = Kind::Loop;
    /** Working-set size in cache blocks (Stream: wrap length). */
    std::uint64_t blocks = 1024;
    /** Number of distinct PCs the pattern issues from. */
    unsigned numPcs = 4;
    /** Scheduling weight relative to sibling patterns. */
    double weight = 1.0;
    /** Fraction of accesses that are stores. */
    double writeFrac = 0.1;
    /** Mean non-memory instruction gap between accesses (geometric). */
    double gapMean = 4.0;
    /** Zipf skew exponent (Kind::Zipf only). */
    double zipfSkew = 1.0;
    /** Stride in blocks for Loop/Stream walks. */
    std::uint64_t strideBlocks = 1;
    /**
     * Kind::Echo: steps between a block's two touches.  The observed
     * reuse distance is 2x this (fresh and echo touches alternate).
     */
    std::uint64_t echoDistance = 8192;
    /**
     * Phase group: 0 = active always, 1/2 = active only during the odd /
     * even phase of a phase-alternating workload.
     */
    unsigned phase = 0;
};

/** Full description of a synthetic workload. */
struct WorkloadSpec
{
    std::string name;
    std::uint64_t seed = 1;
    /** Number of records in one pass of the trace. */
    std::uint64_t length = 2'000'000;
    /** Records emitted per scheduling decision. */
    unsigned burstLen = 32;
    /** If non-zero, phase groups 1/2 alternate every this many records. */
    std::uint64_t phasePeriod = 0;
    std::vector<PatternSpec> patterns;
};

/**
 * @return one pass of the workload described by @p spec: spec.length
 * records, deterministic for a given spec.  Calls fatal() on a
 * malformed spec (no patterns, zero burst, blocks, PCs or stride, or an
 * echo distance not below its region).
 */
std::vector<TraceRecord> generateTrace(const WorkloadSpec &spec);

/** Build the Chase permutation: a single cycle over [0, n). */
std::vector<std::uint32_t> buildChaseCycle(std::size_t n,
                                           std::uint64_t seed);

} // namespace nucache

#endif // NUCACHE_TRACE_GENERATOR_HH
