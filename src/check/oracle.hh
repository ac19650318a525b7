/**
 * @file
 * The differential oracle: a small, obviously-correct reference
 * set-associative simulator replayed in lockstep against the
 * production Cache, asserting that their hit/miss streams agree.
 *
 * The reference model is deliberately naive — per-set recency kept as
 * an explicit MRU->LRU list of way indices, NRU reference bits stored
 * per way and cleared by a literal transcription of the textbook rule
 * — and shares no code with src/mem/.  Any disagreement therefore
 * localises a bug to one side, and the production side's extra
 * machinery (policy hooks, statistics, write-back plumbing) is what
 * usually turns out to be wrong.
 *
 * The NUcache reference is the paper's organization written out with
 * containers and nothing else: an MRU->LRU list for the MainWays, a
 * FIFO deque for the DeliWays, and the admission list as a plain PC
 * set.  It shares no code with src/core/ either.  Only the selection
 * itself is not re-derived: the cost-benefit model is a separate
 * algorithm with its own tests, so the replay injects the production
 * policy's selected PCs at each epoch (see SelectionFeed) and checks
 * everything the selection drives.
 */

#ifndef NUCACHE_CHECK_ORACLE_HH
#define NUCACHE_CHECK_ORACLE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/types.hh"
#include "mem/cache.hh"
#include "trace/trace.hh"

namespace nucache
{

/** Reference replacement schemes with production counterparts. */
enum class ReferencePolicy
{
    Lru,
    Nru,
    /**
     * NUcache with a fixed Main/Deli split.  Every block enters the
     * MainWays (true LRU over W - D ways).  Each fill or promotion
     * that overflows the MainWays moves their LRU block to the tail of
     * the DeliWays FIFO.  Victims of a full set, in order: the oldest
     * DeliWays block whose allocating PC is not admitted; else the
     * oldest DeliWays block, if the MainWays LRU block is admitted;
     * else the MainWays LRU block.  A DeliWays hit promotes the block
     * to the MainWays MRU, unless the block is admitted, the MainWays
     * are full and their LRU block is not admitted: then the block
     * renews its lease by moving to the FIFO tail instead.
     */
    NUcache,
};

/**
 * The reference simulator: tag array + recency/reference metadata and
 * nothing else.  Hits and misses are its only outputs.
 */
class ReferenceCache
{
  public:
    /**
     * @param sets number of sets (power of two).
     * @param ways associativity.
     * @param block_size line size in bytes (power of two).
     * @param policy replacement scheme.
     * @param deli_ways DeliWays per set (NUcache only; < @p ways).
     */
    ReferenceCache(std::uint32_t sets, std::uint32_t ways,
                   std::uint32_t block_size, ReferencePolicy policy,
                   std::uint32_t deli_ways = 0);

    /**
     * Simulate one demand access; @return true on a hit.
     * @param pc the issuing PC (NUcache keys admission on the PC that
     *        allocated each block).
     */
    bool access(Addr addr, PC pc = invalidPC);

    /** Replace the NUcache admission list. */
    void setSelected(const std::vector<PC> &pcs);

    /** @return demand hits so far. */
    std::uint64_t hits() const { return hitCount; }

    /** @return demand misses so far. */
    std::uint64_t misses() const { return missCount; }

  private:
    struct Entry
    {
        Addr tag = 0;
        PC pc = invalidPC;
        bool valid = false;
        bool referenced = false;
    };

    struct Set
    {
        std::vector<Entry> ways;
        /**
         * Way indices, most recently used first: every valid line in
         * LRU mode, the MainWays lines in NUcache mode.
         */
        std::vector<std::uint32_t> recency;
        /** NUcache DeliWays lines, oldest first. */
        std::deque<std::uint32_t> fifo;
    };

    /** Move @p way to the MRU position of @p set. */
    void touchLru(Set &set, std::uint32_t way);

    /** Set @p way's bit; clear the others if the set saturated. */
    void markNru(Set &set, std::uint32_t way);

    /** @return the way to fill on a miss. */
    std::uint32_t pickVictim(Set &set) const;

    /** @return whether the line in @p way was allocated by an admitted PC. */
    bool admitted(const Set &set, std::uint32_t way) const;

    /** NUcache hit on @p way: MainWays touch, promotion or lease renewal. */
    void nucacheHit(Set &set, std::uint32_t way);

    /** Move MainWays LRU lines to the FIFO tail until W - D remain. */
    void demoteOverflow(Set &set);

    ReferencePolicy policy;
    std::uint32_t numWays;
    std::uint32_t mainWays;
    std::uint32_t setMask;
    unsigned blockBits;
    std::vector<Set> sets;
    std::unordered_set<PC> selected;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
};

/** Outcome of one lockstep replay. */
struct DifferentialReport
{
    /** Records replayed. */
    std::uint64_t accesses = 0;
    /** Hits on each side (equal when divergences == 0). */
    std::uint64_t referenceHits = 0;
    std::uint64_t productionHits = 0;
    /** Accesses where the two sides disagreed. */
    std::uint64_t divergences = 0;
    /** Record index of the first disagreement (undefined when 0). */
    std::uint64_t firstDivergence = 0;

    /** @return whether the replay agreed on every access. */
    bool agreed() const { return divergences == 0; }

    /** Count one access with each side's outcome. */
    void tally(bool production_hit, bool reference_hit);
};

/**
 * Source of the admission list a NUcache reference replays with.
 * Polled after each production access, before the reference performs
 * it: when the production policy has run a selection epoch since the
 * last poll, it fills @p pcs with the new selection and returns true.
 * An epoch runs on a miss, ahead of that miss's victim choice, and
 * the two sides agree the access misses, so the reference sees the new
 * list at the same point of the stream.
 */
using SelectionFeed = std::function<bool(std::vector<PC> &pcs)>;

/**
 * Replay @p trace through @p production and a matching ReferenceCache
 * in lockstep, comparing the hit/miss outcome of every access.
 *
 * @param production a Cache whose policy the reference mirrors (LRU
 *        or NRU); driven as a single-core demand stream.
 * @param reference_policy which reference scheme to instantiate.
 * @param trace record source; consumed (up to @p max_records).
 * @param max_records replay budget; 0 = until the trace ends.
 */
DifferentialReport runDifferential(Cache &production,
                                   ReferencePolicy reference_policy,
                                   TraceSource &trace,
                                   std::uint64_t max_records = 0);

/**
 * As above, against a caller-built @p reference (whose geometry must
 * match @p production), injecting each selection @p feed reports.
 * Every record runs as core 0, with the trace's PC and write flag.
 */
DifferentialReport runDifferential(Cache &production,
                                   ReferenceCache &reference,
                                   TraceSource &trace,
                                   std::uint64_t max_records = 0,
                                   const SelectionFeed &feed = {});

} // namespace nucache

#endif // NUCACHE_CHECK_ORACLE_HH
