#include "check/oracle.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace nucache
{

ReferenceCache::ReferenceCache(std::uint32_t set_count,
                               std::uint32_t ways,
                               std::uint32_t block_size,
                               ReferencePolicy repl,
                               std::uint32_t deli_ways)
    : policy(repl), numWays(ways), mainWays(ways - deli_ways),
      setMask(set_count - 1), blockBits(floorLog2(block_size))
{
    if (!isPowerOf2(set_count) || !isPowerOf2(block_size) || ways == 0)
        fatal("reference cache: bad geometry (", set_count, " sets, ",
              ways, " ways, ", block_size, " B blocks)");
    if (deli_ways >= ways || (deli_ways != 0 &&
                              repl != ReferencePolicy::NUcache))
        fatal("reference cache: ", deli_ways, " DeliWays invalid for ",
              ways, " ways under this policy");
    sets.resize(set_count);
    for (auto &s : sets)
        s.ways.resize(numWays);
}

void
ReferenceCache::touchLru(Set &set, std::uint32_t way)
{
    const auto it =
        std::find(set.recency.begin(), set.recency.end(), way);
    if (it != set.recency.end())
        set.recency.erase(it);
    set.recency.insert(set.recency.begin(), way);
}

void
ReferenceCache::markNru(Set &set, std::uint32_t way)
{
    set.ways[way].referenced = true;
    for (std::uint32_t w = 0; w < numWays; ++w) {
        if (!set.ways[w].referenced)
            return;
    }
    for (std::uint32_t w = 0; w < numWays; ++w)
        set.ways[w].referenced = (w == way);
}

void
ReferenceCache::setSelected(const std::vector<PC> &pcs)
{
    selected.clear();
    selected.insert(pcs.begin(), pcs.end());
}

bool
ReferenceCache::admitted(const Set &set, std::uint32_t way) const
{
    return selected.count(set.ways[way].pc) != 0;
}

void
ReferenceCache::demoteOverflow(Set &set)
{
    while (set.recency.size() > mainWays) {
        set.fifo.push_back(set.recency.back());
        set.recency.pop_back();
    }
}

void
ReferenceCache::nucacheHit(Set &set, std::uint32_t way)
{
    const auto in_fifo = std::find(set.fifo.begin(), set.fifo.end(), way);
    if (in_fifo == set.fifo.end()) {
        touchLru(set, way);
        return;
    }
    set.fifo.erase(in_fifo);
    const bool lru_admitted =
        !set.recency.empty() && admitted(set, set.recency.back());
    if (set.recency.size() < mainWays || lru_admitted ||
        !admitted(set, way)) {
        set.recency.insert(set.recency.begin(), way);
        demoteOverflow(set);
    } else {
        set.fifo.push_back(way);
    }
}

std::uint32_t
ReferenceCache::pickVictim(Set &set) const
{
    if (policy == ReferencePolicy::Lru)
        return set.recency.back();
    if (policy == ReferencePolicy::NUcache) {
        for (const std::uint32_t w : set.fifo) {
            if (!admitted(set, w))
                return w;
        }
        if (admitted(set, set.recency.back()) && !set.fifo.empty())
            return set.fifo.front();
        return set.recency.back();
    }
    // NRU: the first way, in way order, whose bit is clear; the mark
    // rule keeps one clear except in the ways == 1 corner, where the
    // single way is the only choice.
    for (std::uint32_t w = 0; w < numWays; ++w) {
        if (!set.ways[w].referenced)
            return w;
    }
    return 0;
}

bool
ReferenceCache::access(Addr addr, PC pc)
{
    const Addr tag = addr >> blockBits;
    Set &set = sets[static_cast<std::uint32_t>(tag) & setMask];

    for (std::uint32_t w = 0; w < numWays; ++w) {
        if (set.ways[w].valid && set.ways[w].tag == tag) {
            ++hitCount;
            if (policy == ReferencePolicy::Lru)
                touchLru(set, w);
            else if (policy == ReferencePolicy::NUcache)
                nucacheHit(set, w);
            else
                markNru(set, w);
            return true;
        }
    }

    ++missCount;
    // Like the production cache: the lowest-indexed invalid way is
    // preferred; the policy chooses only among full sets.
    std::uint32_t victim = numWays;
    for (std::uint32_t w = 0; w < numWays; ++w) {
        if (!set.ways[w].valid) {
            victim = w;
            break;
        }
    }
    if (victim == numWays) {
        victim = pickVictim(set);
        // The evicted line leaves whichever list holds it (the
        // MainWays list or the DeliWays FIFO under NUcache).
        std::erase(set.recency, victim);
        std::erase(set.fifo, victim);
    }

    set.ways[victim].valid = true;
    set.ways[victim].tag = tag;
    set.ways[victim].pc = pc;
    if (policy == ReferencePolicy::Lru) {
        touchLru(set, victim);
    } else if (policy == ReferencePolicy::NUcache) {
        set.recency.insert(set.recency.begin(), victim);
        demoteOverflow(set);
    } else {
        markNru(set, victim);
    }
    return false;
}

void
DifferentialReport::tally(bool production_hit, bool reference_hit)
{
    productionHits += production_hit ? 1 : 0;
    referenceHits += reference_hit ? 1 : 0;
    if (production_hit != reference_hit) {
        if (divergences == 0)
            firstDivergence = accesses;
        ++divergences;
    }
    ++accesses;
}

DifferentialReport
runDifferential(Cache &production, ReferencePolicy reference_policy,
                TraceSource &trace, std::uint64_t max_records)
{
    const CacheConfig &cfg = production.config();
    ReferenceCache reference(production.numSets(), cfg.ways,
                             cfg.blockSize, reference_policy);
    return runDifferential(production, reference, trace, max_records);
}

DifferentialReport
runDifferential(Cache &production, ReferenceCache &reference,
                TraceSource &trace, std::uint64_t max_records,
                const SelectionFeed &feed)
{
    DifferentialReport report;
    std::vector<PC> pcs;
    TraceRecord rec;
    while (trace.next(rec)) {
        AccessInfo info;
        info.addr = rec.addr;
        info.pc = rec.pc;
        info.coreId = 0;
        info.isWrite = rec.isWrite;

        const bool prod_hit = production.access(info).hit;
        if (feed && feed(pcs))
            reference.setSelected(pcs);
        report.tally(prod_hit, reference.access(rec.addr, rec.pc));
        if (max_records != 0 && report.accesses >= max_records)
            break;
    }
    return report;
}

} // namespace nucache
