#include "core/pc_selection.hh"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/logging.hh"

namespace nucache
{

namespace
{

/**
 * The candidate pool, prepared once per selection call: each
 * candidate's DeliWays insertion weight and the prefix-summed CDF of
 * its next-use histogram.  All histograms share one bucket layout, so
 * a retention window is located in that layout once per evaluation
 * and each member's covered count is then one lookup.
 */
class Pool
{
  public:
    Pool(const std::vector<PcProfile> &candidates, std::size_t size,
         std::uint64_t capacity, std::uint64_t total_misses)
        : capacity(capacity), totalMisses(total_misses)
    {
        // The DeliWays drain one block per *insertion*, and a selected
        // PC's insertion rate is its MainWays retirement rate (misses
        // plus re-demotions after promotions).  Fall back to the miss
        // count for PCs with no retirement history yet.
        inserts.reserve(size);
        cdfs.reserve(size);
        for (std::size_t i = 0; i < size; ++i) {
            const PcProfile &c = candidates[i];
            inserts.push_back(std::max(c.retires, c.misses));
            if (c.nextUse && !layout)
                layout = c.nextUse;
            if (c.nextUse && !c.nextUse->sameLayout(*layout))
                panic("selectDelinquentPcs: candidate histograms differ "
                      "in bucket layout");
            cdfs.emplace_back(c.nextUse ? LogHistogramCdf(*c.nextUse)
                                        : std::optional<LogHistogramCdf>());
        }
    }

    std::size_t size() const { return inserts.size(); }

    /** @return candidate @p i's DeliWays insertion weight. */
    std::uint64_t insertsOf(std::size_t i) const { return inserts[i]; }

    /**
     * Expected DeliWay hits if exactly the candidates in @p members
     * (ascending indices) are selected, with @p extra (an index not in
     * @p members, or size() for none) added and @p skipped (an index
     * in @p members, or size() for none) removed.  @p selected_inserts
     * is the insertion weight of that set.  Also reports the retention
     * window via @p window_out.
     */
    double
    benefit(const std::vector<std::size_t> &members, std::size_t extra,
            std::size_t skipped, std::uint64_t selected_inserts,
            double &window_out) const
    {
        if (selected_inserts == 0) {
            window_out = 0.0;
            return 0.0;
        }

        // Retention window in whole-cache miss units: the FIFO holds
        // `capacity` blocks and sees selected_inserts insertions per
        // total_misses misses.
        const double frac = static_cast<double>(selected_inserts) /
                            static_cast<double>(totalMisses);
        const double window = static_cast<double>(capacity) / frac;
        window_out = window;
        if (!layout)
            return 0.0;

        const std::uint64_t limit =
            window >= static_cast<double>(
                          std::numeric_limits<std::uint64_t>::max() / 2)
                ? std::numeric_limits<std::uint64_t>::max() / 2
                : static_cast<std::uint64_t>(window);
        const LogHistogram::Cut cut = layout->cut(limit);

        // Sum in ascending candidate order, placing @p extra among the
        // members: double addition is not associative, and a set must
        // score the same double whichever flip produced it.
        double hits = 0.0;
        for (const std::size_t i : members) {
            if (extra < i) {
                hits += covered(extra, cut);
                extra = size();
            }
            if (i != skipped)
                hits += covered(i, cut);
        }
        if (extra < size())
            hits += covered(extra, cut);
        return hits;
    }

  private:
    /** @return candidate @p i's next-uses within the cut. */
    double
    covered(std::size_t i, const LogHistogram::Cut &cut) const
    {
        return cdfs[i] ? cdfs[i]->at(cut) : 0.0;
    }

    std::uint64_t capacity;
    std::uint64_t totalMisses;
    /** The shared bucket layout; null if no candidate has one. */
    const LogHistogram *layout = nullptr;
    std::vector<std::uint64_t> inserts;
    std::vector<std::optional<LogHistogramCdf>> cdfs;
};

/**
 * The local search of selectDelinquentPcs from the warm start
 * @p previous (empty for a fresh run).
 */
SelectionResult
localSearch(const std::vector<PcProfile> &candidates, const Pool &pool,
            const PcSelectionConfig &cfg, const std::vector<PC> &previous)
{
    const std::size_t n = pool.size();

    // Warm-start from last epoch's selection: the DeliWays already
    // hold those PCs' blocks, so keeping a still-profitable selection
    // stable is worth more than an equal-benefit reshuffle (a dropped
    // PC's resident blocks turn stale and are reclaimed).
    std::vector<bool> member(n, false);
    std::vector<std::size_t> members;
    std::uint64_t inserts = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (members.size() < cfg.maxSelected &&
            std::find(previous.begin(), previous.end(),
                      candidates[i].pc) != previous.end()) {
            member[i] = true;
            members.push_back(i);
            inserts += pool.insertsOf(i);
        }
    }

    double best_window = 0.0;
    double best_benefit =
        pool.benefit(members, n, n, inserts, best_window);

    // Local search: alternate improving removals (prunes stale or
    // window-crowding members) and improving additions, to a bounded
    // fixpoint.  Plain greedy addition cannot escape an inherited set
    // whose members jointly shrink the window below everyone's
    // distances.
    for (unsigned round = 0; round < 2 * cfg.maxSelected + 4; ++round) {
        double round_best = best_benefit;
        double round_window = best_window;
        std::size_t round_flip = n;

        for (std::size_t i = 0; i < n; ++i) {
            if (!member[i] && members.size() >= cfg.maxSelected)
                continue;
            double window = 0.0;
            const double b = member[i]
                ? pool.benefit(members, n, i, inserts - pool.insertsOf(i),
                               window)
                : pool.benefit(members, i, n, inserts + pool.insertsOf(i),
                               window);
            if (b > round_best) {
                round_best = b;
                round_window = window;
                round_flip = i;
            }
        }

        if (round_flip == n)
            break;  // no strictly improving move
        member[round_flip] = !member[round_flip];
        if (member[round_flip]) {
            members.insert(std::lower_bound(members.begin(), members.end(),
                                            round_flip),
                           round_flip);
            inserts += pool.insertsOf(round_flip);
        } else {
            std::erase(members, round_flip);
            inserts -= pool.insertsOf(round_flip);
        }
        best_benefit = round_best;
        best_window = round_window;
    }

    SelectionResult result;
    for (const std::size_t i : members)
        result.selected.push_back(candidates[i].pc);
    result.expectedHits = best_benefit;
    result.window = best_window;
    return result;
}

} // anonymous namespace

SelectionResult
selectDelinquentPcs(const std::vector<PcProfile> &candidates,
                    std::uint64_t deli_capacity_blocks,
                    std::uint64_t total_misses,
                    const PcSelectionConfig &cfg,
                    const std::vector<PC> &previous)
{
    if (total_misses == 0 || deli_capacity_blocks == 0 ||
        candidates.empty()) {
        return SelectionResult{};
    }

    // Restrict to the candidate pool (callers pass profiles sorted by
    // delinquency; enforce the cap defensively).
    const Pool pool(candidates,
                    std::min<std::size_t>(candidates.size(),
                                          cfg.candidatePcs),
                    deli_capacity_blocks, total_misses);
    SelectionResult result = localSearch(candidates, pool, cfg, previous);

    // The local search can strand on a zero-gradient plateau when it
    // inherits a flooding selection (every single removal still leaves
    // the window too small, so no move improves).  A fresh greedy run
    // from the empty set escapes it; keep whichever scores higher.
    if (!previous.empty()) {
        SelectionResult fresh = localSearch(candidates, pool, cfg, {});
        if (fresh.expectedHits > result.expectedHits)
            return fresh;
    }
    return result;
}

SelectionResult
selectTopKByMisses(const std::vector<PcProfile> &candidates,
                   std::uint32_t k)
{
    // Candidates arrive sorted by misses (NextUseMonitor contract);
    // sort defensively anyway.
    std::vector<PcProfile> sorted = candidates;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto &a, const auto &b) {
                  if (a.misses != b.misses)
                      return a.misses > b.misses;
                  return a.pc < b.pc;
              });
    SelectionResult result;
    for (std::uint32_t i = 0; i < k && i < sorted.size(); ++i)
        result.selected.push_back(sorted[i].pc);
    return result;
}

} // namespace nucache
