/**
 * @file
 * NUcache: the PC-centric shared-LLC organization of the paper.
 *
 * Each set's ways are logically split into MainWays (true LRU, every
 * block enters here) and DeliWays (a FIFO-ordered annex).  When the
 * MainWays' LRU block is displaced, it is *retained* in the DeliWays —
 * instead of being evicted — iff its allocating PC is in the currently
 * selected set of delinquent PCs.  A DeliWay hit promotes the block
 * back to the MainWays' MRU position.  Selection is refreshed every
 * epoch by the cost-benefit algorithm over the Next-Use monitor's
 * profiles (see pc_selection.hh).
 *
 * Implementation notes (metadata-only moves):
 *  - Lines never change ways; "MainWays"/"DeliWays" are per-line
 *    region labels.  The invariant |Main| <= W - D is restored after
 *    every fill/promotion by demoting the Main-LRU line to the
 *    DeliWays with a fresh FIFO stamp.
 *  - A demotion caused by a DeliWay-hit promotion is unconditional
 *    (it is a swap; evicting mid-hit would leave a hole).  Demotions
 *    of non-selected blocks on the miss path never occur when the set
 *    is full: the Main-LRU itself is evicted instead, exactly as the
 *    paper describes.
 *  - While a set still has invalid ways, demotions fill the DeliWays
 *    regardless of selection (free space costs nothing).
 *
 * Per-line state is laid out like the cache's own tag store: per set,
 * a `deli` bitmask word (bit w: way w is in the DeliWays) and an
 * `admitted` word (bit w: way w was allocated by a selected PC), plus
 * one row of W stamps.  A line's stamp is its recency tick while it
 * is in the MainWays and its FIFO sequence number while it is in the
 * DeliWays: every move between regions writes a fresh stamp, so one
 * row serves both orders.  Every region query is a mask over the
 * valid word: |Main| is popcount(valid & ~deli), and the Main-LRU, the
 * FIFO-oldest and the oldest stale DeliWays line are first-minimum
 * scans of the row over the set bits of a mask (the lowest way wins
 * ties).  The hardware analogue is the paper's region bit and FIFO
 * stamp per line.
 *
 * The admitted word replaces a selected-PC lookup per way on every
 * victim search.  A fill sets its way's bit from the current
 * selection.  A selection epoch that changes the admission list only
 * bumps a generation counter; each set re-derives its word from its
 * lines' allocating PCs on the first hook that needs it after the
 * change (the set's word carries the generation it reflects).  The
 * word may hold stale bits for invalid ways; every use masks them
 * with the valid word.
 */

#ifndef NUCACHE_CORE_NUCACHE_HH
#define NUCACHE_CORE_NUCACHE_HH

#include <bit>
#include <unordered_set>
#include <vector>

#include "core/next_use_monitor.hh"
#include "core/pc_selection.hh"
#include "mem/replacement.hh"

namespace nucache
{

/** Tunables of the NUcache organization. */
struct NUcacheConfig
{
    /**
     * DeliWays per set; 0 selects the default of 3/8 of the
     * associativity (6 of 16), the paper's sweet spot region.
     */
    std::uint32_t deliWays = 0;
    /** LLC misses between selection epochs. */
    std::uint64_t epochMisses = 100'000;
    /** How admission is decided (CostBenefit is the paper's scheme). */
    enum class Selection { CostBenefit, TopK, All, None };
    Selection selection = Selection::CostBenefit;
    /**
     * Extension (future-work direction of the paper): re-balance the
     * Main/Deli split each epoch by comparing the selection model's
     * expected DeliWay hits against the measured MainWays hit-position
     * histogram (the main hits that a smaller MainWays would lose).
     */
    bool adaptiveDeli = false;
    /** K for Selection::TopK. */
    std::uint32_t topK = 8;
    NextUseMonitorConfig monitor;
    PcSelectionConfig selector;
};

/** The NUcache LLC management policy. */
class NUcachePolicy : public ReplacementPolicy
{
  public:
    explicit NUcachePolicy(const NUcacheConfig &config = NUcacheConfig{});

    void init(const PolicyContext &ctx) override;

    std::uint32_t victimWay(const SetView &set,
                            const AccessInfo &info) override;
    void onHit(const SetView &set, std::uint32_t way,
               const AccessInfo &info) override;
    void onMiss(const SetView &set, const AccessInfo &info) override;
    void onEvict(const SetView &set, std::uint32_t way,
                 const CacheLine &victim, const AccessInfo &info) override;
    void onFill(const SetView &set, std::uint32_t way,
                const AccessInfo &info) override;

    std::string name() const override;

    /** @return the number of MainWays per set. */
    std::uint32_t mainWays() const { return context.numWays - deliWays; }

    /** @return the number of DeliWays per set. */
    std::uint32_t numDeliWays() const { return deliWays; }

    /** @return the currently selected delinquent PCs. */
    const std::unordered_set<PC> &selectedPcs() const { return selected; }

    /** @return hits served from DeliWays-resident lines. */
    std::uint64_t deliHits() const { return deliHitCount; }

    /** @return in-place DeliWays FIFO lease refreshes performed. */
    std::uint64_t leaseRefreshes() const { return leaseRefreshCount; }

    /** @return selection epochs completed. */
    std::uint64_t epochsRun() const { return epochCount; }

    /**
     * @return cumulative PC-pool membership churn: PCs added plus PCs
     * dropped across all selection epochs (telemetry probe; a stable
     * selection contributes 0 per epoch).
     */
    std::uint64_t selectionChurn() const { return churnCount; }

    /** @return the Next-Use monitor (reports / tests). */
    const NextUseMonitor &monitor() const { return numon; }

    /** @return region label of (set, way): true if DeliWays (tests). */
    bool inDeliWays(std::uint32_t set, std::uint32_t way) const;

    /**
     * The runtime verifier behind the CacheChecker: |Main| <= W - D
     * and |Deli| <= D occupancy bounds, all-MainWays-used-when-full,
     * distinct MainWays recency stamps, and strictly ordered (unique)
     * DeliWays FIFO stamps.  In adaptive mode the occupancy bounds are
     * not asserted: the split moves at epoch boundaries and sets
     * re-converge lazily on their next fill or promotion.
     */
    bool checkInvariants(const SetView &set,
                         std::string &why) const override;

    /** Verify the Main/Deli occupancy invariants of @p set (tests). */
    bool checkSetInvariants(const SetView &set) const;

    /** Force a selection epoch now (tests). */
    void runSelection();

  private:
    /** Per-set region and admission words (see the file comment). */
    struct SetWords
    {
        /** Bit w: way w is in the DeliWays. */
        std::uint64_t deli = 0;
        /** Bit w: way w's allocating PC is selected (valid ways). */
        std::uint64_t admitted = 0;
        /** selectionGen that `admitted` reflects. */
        std::uint64_t admittedGen = 0;
        /** The Next-Use monitor samples this set (cached). */
        bool sampled = false;
    };

    /** @return index of way 0 of @p set in `stamps`. */
    std::size_t
    rowOf(std::uint32_t set) const
    {
        return static_cast<std::size_t>(set) * context.numWays;
    }

    /** @return valid MainWays lines of @p set, as a way bitmask. */
    std::uint64_t
    mainMask(const SetView &set) const
    {
        return set.validMask() & ~setWords[set.setIndex()].deli;
    }

    /** @return |Main|, the number of valid MainWays lines of @p set. */
    std::uint32_t
    mainCount(const SetView &set) const
    {
        return static_cast<std::uint32_t>(std::popcount(mainMask(set)));
    }

    /** @return valid DeliWays lines of @p set, as a way bitmask. */
    std::uint64_t
    deliMask(const SetView &set) const
    {
        return set.validMask() & setWords[set.setIndex()].deli;
    }

    /** @return way of the LRU valid MainWays line; ways() if none. */
    std::uint32_t mainLruWay(const SetView &set) const;

    /**
     * @return @p set's admitted word, first re-deriving it from the
     * lines' allocating PCs if the selection changed since it was set.
     */
    std::uint64_t
    admittedMask(const SetView &set)
    {
        const SetWords &words = setWords[set.setIndex()];
        return words.admittedGen == selectionGen ? words.admitted
                                                 : refreshAdmitted(set);
    }

    /** Re-derive @p set's admitted word; @return it. */
    std::uint64_t refreshAdmitted(const SetView &set);

    /**
     * Demote Main-LRU lines until |Main| <= mainWays().  @p lru, unless
     * it is ways(), is the way already known to be the Main-LRU.
     */
    void enforceMainBound(const SetView &set, std::uint32_t lru);

    /** @return whether @p pc is admitted to the DeliWays. */
    bool isSelected(PC pc) const;

    NUcacheConfig cfg;
    /** Per-core-scaled copies of the monitoring/selection tunables. */
    PcSelectionConfig effSelector;
    NextUseMonitorConfig effMonitor;
    std::uint64_t effEpochMisses = 100'000;
    std::uint32_t deliWays = 0;
    std::vector<SetWords> setWords;
    /**
     * One row of W stamps per set: a MainWays line's recency tick, or
     * a DeliWays line's FIFO sequence number (the deli bit says which).
     */
    std::vector<std::uint64_t> stamps;
    NextUseMonitor numon;
    std::unordered_set<PC> selected;
    /** Bumped whenever `selected` changes (admitted-word refresh). */
    std::uint64_t selectionGen = 0;
    /**
     * Sampled MainWays hits by recency rank (0 = MRU): the opportunity
     * cost of shrinking the MainWays (adaptive mode).
     */
    std::vector<std::uint64_t> mainHitPos;
    std::uint64_t fifoCounter = 0;
    /** Misses left until the next selection epoch. */
    std::uint64_t missesToEpoch = 0;
    std::uint64_t deliHitCount = 0;
    std::uint64_t leaseRefreshCount = 0;
    std::uint64_t epochCount = 0;
    std::uint64_t churnCount = 0;
};

} // namespace nucache

#endif // NUCACHE_CORE_NUCACHE_HH
