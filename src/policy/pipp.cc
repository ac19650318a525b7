#include "policy/pipp.hh"

#include <algorithm>

#include "common/logging.hh"
#include "policy/ucp.hh"

namespace nucache
{

PippPolicy::PippPolicy(const PippConfig &config)
    : cfg(config)
{
    if (cfg.epochAccesses == 0)
        fatal("PIPP: epoch length must be non-zero");
}

void
PippPolicy::init(const PolicyContext &ctx)
{
    ReplacementPolicy::init(ctx);
    if (ctx.numWays >= noRank)
        fatal("PIPP: associativity ", ctx.numWays, " exceeds rank range");
    monitors.clear();
    for (std::uint32_t c = 0; c < ctx.numCores; ++c)
        monitors.emplace_back(ctx.numSets, ctx.numWays, cfg.sampleShift);
    alloc.assign(ctx.numCores, ctx.numWays / ctx.numCores);
    for (std::uint32_t c = 0; c < ctx.numWays % ctx.numCores; ++c)
        ++alloc[c];
    if (ctx.numWays < ctx.numCores)
        fatal("PIPP needs at least one way per core");
    rank.assign(static_cast<std::size_t>(ctx.numSets) * ctx.numWays,
                noRank);
    accessCount = 0;
}

std::uint32_t
PippPolicy::rankOf(std::uint32_t set, std::uint32_t way) const
{
    return rank[slot(set, way)];
}

void
PippPolicy::observe(const SetView &set, const AccessInfo &info)
{
    monitors[info.coreId].observe(set.setIndex(),
                                  info.addr / context.blockSize);
    if (++accessCount % cfg.epochAccesses == 0)
        reallocate();
}

void
PippPolicy::reallocate()
{
    std::vector<std::vector<std::uint64_t>> curves;
    curves.reserve(monitors.size());
    for (auto &m : monitors) {
        std::vector<std::uint64_t> curve(context.numWays, 0);
        for (std::uint32_t w = 1; w <= context.numWays; ++w)
            curve[w - 1] = m.hitsWithWays(w);
        curves.push_back(std::move(curve));
        m.decay();
    }
    alloc = lookaheadPartition(curves, context.numWays, 1);
}

bool
PippPolicy::checkInvariants(const SetView &set, std::string &why) const
{
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < alloc.size(); ++c) {
        if (alloc[c] == 0) {
            why = "core " + std::to_string(c) + " has a zero allocation";
            return false;
        }
        total += alloc[c];
    }
    if (alloc.size() != context.numCores || total != context.numWays) {
        why = "allocations sum to " + std::to_string(total) + " of " +
              std::to_string(context.numWays) + " ways";
        return false;
    }

    // The valid lines' ranks must be exactly {0 .. n-1}: the victim
    // path picks the minimum rank and the promotion path swaps with
    // rank+1, so a duplicate or a hole silently pins lines in place.
    std::uint32_t valid_n = 0;
    std::vector<bool> seen(set.ways(), false);
    for (std::uint32_t w = 0; w < set.ways(); ++w) {
        const std::uint8_t r = rank[slot(set.setIndex(), w)];
        if (!set.line(w).valid) {
            if (r != noRank) {
                why = "invalid line in way " + std::to_string(w) +
                      " still ranked " + std::to_string(r);
                return false;
            }
            continue;
        }
        ++valid_n;
        if (r == noRank || r >= set.ways()) {
            why = "valid line in way " + std::to_string(w) +
                  " has rank " + std::to_string(r) + " outside [0, " +
                  std::to_string(set.ways()) + ")";
            return false;
        }
        if (seen[r]) {
            why = "rank " + std::to_string(r) + " held twice (way " +
                  std::to_string(w) + ")";
            return false;
        }
        seen[r] = true;
    }
    for (std::uint32_t r = 0; r < valid_n; ++r) {
        if (!seen[r]) {
            why = "rank " + std::to_string(r) + " missing from the " +
                  std::to_string(valid_n) + "-line permutation";
            return false;
        }
    }
    return true;
}

std::uint32_t
PippPolicy::firstWayRanked(const std::uint8_t *row, std::uint32_t n,
                           std::uint8_t r, std::uint32_t none)
{
    std::uint32_t first = noRank;
    for (std::uint32_t w = 0; w < n; ++w)
        first = std::min(first, row[w] == r ? w : noRank);
    return first == noRank ? none : first;
}

std::uint32_t
PippPolicy::victimWay(const SetView &set, const AccessInfo &info)
{
    (void)info;
    // The victim is the lowest-ranked valid line.  Invalid lines carry
    // noRank (checkInvariants), above every valid rank, so the row's
    // first minimum is the victim without a validity test per way.
    const std::uint8_t *row = &rank[slot(set.setIndex(), 0)];
    const std::uint32_t n = set.ways();
    std::uint8_t best = noRank;
    for (std::uint32_t w = 0; w < n; ++w)
        best = std::min(best, row[w]);
    return firstWayRanked(row, n, best, 0);
}

void
PippPolicy::onHit(const SetView &set, std::uint32_t way,
                  const AccessInfo &info)
{
    observe(set, info);
    if (!rng.chance(cfg.promoteProb))
        return;
    // Promote by one: swap ranks with the line directly above (none
    // when this line already tops the set or is unranked).
    std::uint8_t *row = &rank[slot(set.setIndex(), 0)];
    const std::uint8_t mine = row[way];
    if (mine == noRank)
        return;
    const std::uint8_t above = static_cast<std::uint8_t>(mine + 1);
    const std::uint32_t w =
        firstWayRanked(row, set.ways(), above, set.ways());
    if (w == set.ways())
        return;
    row[w] = mine;
    row[way] = above;
}

void
PippPolicy::onMiss(const SetView &set, const AccessInfo &info)
{
    observe(set, info);
}

void
PippPolicy::onEvict(const SetView &set, std::uint32_t way,
                    const CacheLine &victim, const AccessInfo &info)
{
    (void)victim;
    (void)info;
    // Close the rank gap left by the departing line.  The way count
    // is read once up front: the byte stores below may alias the
    // view, and a bound reloaded per way keeps the loop scalar.
    std::uint8_t *row = &rank[slot(set.setIndex(), 0)];
    const std::uint32_t n = set.ways();
    const std::uint8_t gone = row[way];
    row[way] = noRank;
    for (std::uint32_t w = 0; w < n; ++w)
        row[w] = static_cast<std::uint8_t>(
            row[w] - ((row[w] != noRank) & (row[w] > gone)));
}

void
PippPolicy::onFill(const SetView &set, std::uint32_t way,
                   const AccessInfo &info)
{
    // Unrank the way being filled, so the count and the shift below
    // skip it (onEvict has normally cleared its rank already), then
    // count the ranked lines.
    std::uint8_t *row = &rank[slot(set.setIndex(), 0)];
    const std::uint32_t n = set.ways();
    row[way] = noRank;
    std::uint32_t ranked = 0;
    for (std::uint32_t w = 0; w < n; ++w)
        ranked += row[w] != noRank;

    // Insert at this core's priority: pi - 1 positions above LRU,
    // clamped to the currently occupied range.
    const std::uint32_t pi = alloc[info.coreId];
    const std::uint8_t pos = static_cast<std::uint8_t>(
        std::min<std::uint32_t>(pi == 0 ? 0 : pi - 1, ranked));

    // Shift up everyone at or above the insertion position.
    for (std::uint32_t w = 0; w < n; ++w)
        row[w] = static_cast<std::uint8_t>(
            row[w] + ((row[w] != noRank) & (row[w] >= pos)));
    row[way] = pos;
}

} // namespace nucache
