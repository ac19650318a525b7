#include "core/nucache.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/tracer.hh"

namespace nucache
{

NUcachePolicy::NUcachePolicy(const NUcacheConfig &config)
    : cfg(config), numon(config.monitor)
{
    if (cfg.epochMisses == 0)
        fatal("NUcache: epoch length must be non-zero");
}

void
NUcachePolicy::init(const PolicyContext &ctx)
{
    ReplacementPolicy::init(ctx);
    // Default split: 5/8 of the ways are DeliWays.  The MainWays only
    // need to absorb short-distance reuse and filter demand churn; the
    // protected region is where NUcache earns its hits (the DeliWays
    // sweep, Figure 7, shows a broad optimum here).
    deliWays = cfg.deliWays != 0 ? cfg.deliWays : ctx.numWays * 5 / 8;

    // Monitoring structures are provisioned per core (the paper's
    // monitors are replicated per core): the candidate pool and the
    // admission list must cover every co-running program's delinquent
    // PCs, and the victim board must ride out the multiplied miss
    // traffic or next-use matches get displaced before they land.
    effSelector = cfg.selector;
    effMonitor = cfg.monitor;
    effEpochMisses = cfg.epochMisses;
    if (ctx.numCores > 1) {
        effSelector.candidatePcs *= ctx.numCores;
        effSelector.maxSelected *= ctx.numCores;
        effMonitor.boardEntries *= ctx.numCores;
        effMonitor.maxPcs *= ctx.numCores;
    }
    if (deliWays >= ctx.numWays)
        fatal("NUcache: ", deliWays, " DeliWays leaves no MainWays in a ",
              ctx.numWays, "-way cache");
    const std::size_t lines =
        static_cast<std::size_t>(ctx.numSets) * ctx.numWays;
    setWords.assign(ctx.numSets, SetWords{});
    stamps.assign(lines, 0);
    mainHitPos.assign(ctx.numWays, 0);
    numon = NextUseMonitor(effMonitor);
    for (std::uint32_t s = 0; s < ctx.numSets; ++s)
        setWords[s].sampled = numon.sampled(s);
    selected.clear();
    selectionGen = 0;
    fifoCounter = 0;
    missesToEpoch = effEpochMisses;
    deliHitCount = 0;
    leaseRefreshCount = 0;
    epochCount = 0;
    churnCount = 0;
}

std::string
NUcachePolicy::name() const
{
    switch (cfg.selection) {
      case NUcacheConfig::Selection::CostBenefit:
        return cfg.adaptiveDeli ? "nucache-adaptive" : "nucache";
      case NUcacheConfig::Selection::TopK:
        return "nucache-topk";
      case NUcacheConfig::Selection::All:
        return "nucache-all";
      case NUcacheConfig::Selection::None:
        return "nucache-none";
    }
    return "nucache";
}

bool
NUcachePolicy::isSelected(PC pc) const
{
    switch (cfg.selection) {
      case NUcacheConfig::Selection::All:
        return true;
      case NUcacheConfig::Selection::None:
        return false;
      default:
        return selected.count(pc) != 0;
    }
}

namespace
{

/**
 * @return the first way among the set bits of @p ways holding the
 * smallest stamp of @p row (lowest way on ties); @p none if @p ways
 * is empty.
 */
std::uint32_t
oldestOf(const std::uint64_t *row, std::uint64_t ways, std::uint32_t none)
{
    std::uint32_t best = none;
    std::uint64_t lowest = ~std::uint64_t{0};
    for (; ways != 0; ways &= ways - 1) {
        const auto w = static_cast<std::uint32_t>(std::countr_zero(ways));
        const bool older = row[w] < lowest;
        lowest = older ? row[w] : lowest;
        best = older ? w : best;
    }
    return best;
}

} // anonymous namespace

std::uint32_t
NUcachePolicy::mainLruWay(const SetView &set) const
{
    return oldestOf(&stamps[rowOf(set.setIndex())], mainMask(set),
                    set.ways());
}

std::uint64_t
NUcachePolicy::refreshAdmitted(const SetView &set)
{
    std::uint64_t admitted = 0;
    for (std::uint64_t v = set.validMask(); v != 0; v &= v - 1) {
        const auto w = static_cast<std::uint32_t>(std::countr_zero(v));
        if (isSelected(set.line(w).pc))
            admitted |= std::uint64_t{1} << w;
    }
    SetWords &words = setWords[set.setIndex()];
    words.admitted = admitted;
    words.admittedGen = selectionGen;
    return admitted;
}

void
NUcachePolicy::enforceMainBound(const SetView &set, std::uint32_t lru)
{
    const std::uint32_t s = set.setIndex();
    for (std::uint32_t n = mainCount(set); n > mainWays();
         --n, lru = set.ways()) {
        if (lru == set.ways())
            lru = mainLruWay(set);
        if (lru == set.ways())
            panic("NUcache: main bound violated with no Main lines");
        setWords[s].deli |= std::uint64_t{1} << lru;
        stamps[rowOf(s) + lru] = ++fifoCounter;
        // The block retires from the MainWays here: this is the moment
        // the Next-Use clock starts for it.  (The sampling test comes
        // first so unsampled sets never load the line's cold origin.)
        if (setWords[s].sampled)
            numon.onRetire(s, set.line(lru).tag, set.line(lru).pc);
    }
}

std::uint32_t
NUcachePolicy::victimWay(const SetView &set, const AccessInfo &info)
{
    (void)info;
    // Stale DeliWays lines — those whose allocating PC is no longer
    // selected (selection changed, or they arrived via demotion churn)
    // — are reclaimed first.  This keeps the DeliWays from rotting
    // into dead capacity and makes NUcache degenerate gracefully to
    // (W-D)-way LRU plus a FIFO annex when nothing is selected.
    const std::uint64_t admitted = admittedMask(set);
    const std::uint64_t *fifo = &stamps[rowOf(set.setIndex())];
    const std::uint32_t stale =
        oldestOf(fifo, deliMask(set) & ~admitted, set.ways());
    if (stale != set.ways())
        return stale;

    const std::uint32_t main_lru = mainLruWay(set);
    if (main_lru == set.ways())
        panic("NUcache: full set with no MainWays lines");

    // If the Main-LRU block deserves retention, sacrifice the oldest
    // DeliWays block instead; the displaced Main-LRU will be demoted
    // into the freed slot by the fill-path invariant enforcement.
    if (((admitted >> main_lru) & 1) != 0) {
        const std::uint32_t deli_oldest =
            oldestOf(fifo, deliMask(set), set.ways());
        if (deli_oldest != set.ways())
            return deli_oldest;
    }
    return main_lru;
}

void
NUcachePolicy::onHit(const SetView &set, std::uint32_t way,
                     const AccessInfo &info)
{
    const std::uint32_t s = set.setIndex();
    const std::uint64_t bit = std::uint64_t{1} << way;
    std::uint64_t *row = &stamps[rowOf(s)];
    if ((setWords[s].deli & bit) != 0) {
        ++deliHitCount;
        // A DeliWays hit is a successful next-use: record its distance
        // so the selection keeps seeing the PCs it is saving.
        if (setWords[s].sampled)
            numon.onUse(s, set.line(way).tag);

        // Promote to the MainWays MRU unless doing so would push a
        // non-selected Main-LRU into the FIFO *and* the hit block is
        // itself selected — in that one case renewing the hit block's
        // FIFO lease in place protects the selected blocks' retention
        // window from demotion churn.  (Stale demoted blocks are
        // reclaimed first by the victim path, so promotion is
        // otherwise safe.)
        const std::uint64_t admitted = admittedMask(set);
        const std::uint32_t main_lru = mainLruWay(set);
        const bool can_promote =
            mainCount(set) < mainWays() ||
            (main_lru != set.ways() && ((admitted >> main_lru) & 1) != 0) ||
            (admitted & bit) == 0;
        if (can_promote) {
            // The promoted line is now the Main MRU, so the Main-LRU
            // found above is the one to demote if the bound overflows.
            setWords[s].deli &= ~bit;
            row[way] = info.tick;
            enforceMainBound(set, main_lru);
        } else {
            // A lease refresh re-enters the FIFO tail: it consumes
            // DeliWays lifetime exactly like an insertion, so it must
            // be accounted in the insertion-rate estimate or the
            // selection drifts low at high hit rates and overshoots.
            row[way] = ++fifoCounter;
            ++leaseRefreshCount;
            if (setWords[s].sampled)
                numon.onLease(s, set.line(way).pc);
        }
        return;
    }
    // MainWays hit: in adaptive mode, record its recency rank on
    // sampled sets (the hits a smaller MainWays would forfeit).
    if (cfg.adaptiveDeli && setWords[s].sampled) {
        std::uint32_t rank = 0;
        for (std::uint64_t m = mainMask(set) & ~bit; m != 0; m &= m - 1) {
            if (row[std::countr_zero(m)] > row[way])
                ++rank;
        }
        ++mainHitPos[rank];
    }
    row[way] = info.tick;
}

void
NUcachePolicy::onMiss(const SetView &set, const AccessInfo &info)
{
    if (setWords[set.setIndex()].sampled)
        numon.onMiss(set.setIndex(), info.addr / context.blockSize, info.pc);
    if (--missesToEpoch == 0) {
        missesToEpoch = effEpochMisses;
        runSelection();
    }
}

void
NUcachePolicy::onEvict(const SetView &set, std::uint32_t way,
                       const CacheLine &victim, const AccessInfo &info)
{
    (void)info;
    // A MainWays line evicted outright retires here.  A DeliWays line
    // already retired when it was demoted; re-boarding it would reset
    // its Next-Use clock and understate the distance.
    const SetWords &words = setWords[set.setIndex()];
    if (words.sampled && ((words.deli >> way) & 1) == 0)
        numon.onRetire(set.setIndex(), victim.tag, victim.pc);
}

void
NUcachePolicy::onFill(const SetView &set, std::uint32_t way,
                      const AccessInfo &info)
{
    const std::uint32_t s = set.setIndex();
    const std::uint64_t bit = std::uint64_t{1} << way;
    // On a stale word this bit is moot: the refresh rewrites it all.
    SetWords &words = setWords[s];
    words.deli &= ~bit;
    if (isSelected(info.pc))
        words.admitted |= bit;
    else
        words.admitted &= ~bit;
    stamps[rowOf(s) + way] = info.tick;
    enforceMainBound(set, set.ways());
}

void
NUcachePolicy::runSelection()
{
    ++epochCount;
    const std::unordered_set<PC> before = selected;
    if (cfg.selection == NUcacheConfig::Selection::CostBenefit) {
        const auto candidates =
            numon.topDelinquent(effSelector.candidatePcs);
        const std::vector<PC> previous(selected.begin(), selected.end());

        if (cfg.adaptiveDeli) {
            // Re-balance the split: for each candidate D, expected
            // DeliWay hits (selection model) + retained MainWays hits
            // (measured position histogram; positions beyond the
            // current MainWays are unobservable, so growth beyond the
            // measured range is justified by the deli side only).
            double best_score = -1.0;
            std::uint32_t best_d = deliWays;
            SelectionResult best_sel;
            const std::uint32_t step =
                std::max(1u, context.numWays / 8);
            for (std::uint32_t d = step; d + 1 < context.numWays;
                 d += step) {
                const auto sel = selectDelinquentPcs(
                    candidates,
                    static_cast<std::uint64_t>(d) * context.numSets,
                    numon.totalMisses(), effSelector, previous);
                double main_hits = 0.0;
                for (std::uint32_t p = 0;
                     p + d < context.numWays && p < mainHitPos.size();
                     ++p) {
                    main_hits += static_cast<double>(mainHitPos[p]);
                }
                const double score = sel.expectedHits + main_hits;
                if (score > best_score) {
                    best_score = score;
                    best_d = d;
                    best_sel = sel;
                }
            }
            deliWays = best_d;
            selected.clear();
            selected.insert(best_sel.selected.begin(),
                            best_sel.selected.end());
        } else {
            const std::uint64_t capacity =
                static_cast<std::uint64_t>(deliWays) * context.numSets;
            const auto result = selectDelinquentPcs(
                candidates, capacity, numon.totalMisses(), effSelector,
                previous);
            selected.clear();
            selected.insert(result.selected.begin(),
                            result.selected.end());
        }
        for (auto &h : mainHitPos)
            h >>= 1;
    } else if (cfg.selection == NUcacheConfig::Selection::TopK) {
        const auto candidates =
            numon.topDelinquent(effSelector.candidatePcs);
        const auto result = selectTopKByMisses(candidates, cfg.topK);
        selected.clear();
        selected.insert(result.selected.begin(), result.selected.end());
    }
    numon.epochDecay();

    // Membership churn: symmetric difference of the admission list
    // across the epoch boundary (0 when the selection is stable).
    std::uint64_t churn = 0;
    for (const PC pc : selected)
        churn += before.count(pc) == 0 ? 1 : 0;
    for (const PC pc : before)
        churn += selected.count(pc) == 0 ? 1 : 0;
    churnCount += churn;
    // Sets re-derive their admitted words lazily on next use.
    if (churn != 0)
        ++selectionGen;

    if (obs::Tracer::active()) {
        obs::Tracer &tracer = obs::Tracer::instance();
        tracer.instant("nucache.epoch #" + std::to_string(epochCount),
                       "policy");
        if (churn != 0) {
            tracer.instant("nucache.reselect (+/-" +
                               std::to_string(churn) + " PCs, " +
                               std::to_string(selected.size()) +
                               " selected)",
                           "policy");
        }
    }
}

bool
NUcachePolicy::inDeliWays(std::uint32_t set, std::uint32_t way) const
{
    return ((setWords[set].deli >> way) & 1) != 0;
}

bool
NUcachePolicy::checkInvariants(const SetView &set, std::string &why) const
{
    const std::uint32_t s = set.setIndex();
    const std::uint64_t *row = &stamps[rowOf(s)];
    const std::uint64_t main = mainMask(set);
    const std::uint64_t deli = deliMask(set);
    for (std::uint64_t m = main; m != 0; m &= m - 1) {
        const auto w = static_cast<std::uint32_t>(std::countr_zero(m));
        if (row[w] == 0) {
            why = "Main line in way " + std::to_string(w) +
                  " has no recency stamp";
            return false;
        }
    }
    for (std::uint64_t d = deli; d != 0; d &= d - 1) {
        const auto w = static_cast<std::uint32_t>(std::countr_zero(d));
        if (row[w] == 0 || row[w] > fifoCounter) {
            why = "Deli line in way " + std::to_string(w) +
                  " has FIFO stamp " + std::to_string(row[w]) +
                  " outside (0, " + std::to_string(fifoCounter) + "]";
            return false;
        }
    }
    // Stamps must be distinct within their region, or the LRU stack /
    // FIFO order is ambiguous and victim choice diverges.
    for (const bool in_main : {true, false}) {
        const std::uint64_t region = in_main ? main : deli;
        for (std::uint64_t a = region; a != 0; a &= a - 1) {
            const auto w = static_cast<std::uint32_t>(std::countr_zero(a));
            for (std::uint64_t b = a & (a - 1); b != 0; b &= b - 1) {
                const auto v =
                    static_cast<std::uint32_t>(std::countr_zero(b));
                if (row[v] == row[w]) {
                    why = std::string(in_main ? "Main recency"
                                              : "Deli FIFO") +
                          " stamp shared by ways " + std::to_string(w) +
                          " and " + std::to_string(v);
                    return false;
                }
            }
        }
    }
    // A current admitted word must match the selection line by line;
    // a stale one is re-derived before its next use.
    const SetWords &words = setWords[s];
    if (words.admittedGen == selectionGen) {
        for (std::uint64_t v = set.validMask(); v != 0; v &= v - 1) {
            const auto w = static_cast<std::uint32_t>(std::countr_zero(v));
            if ((((words.admitted >> w) & 1) != 0) !=
                isSelected(set.line(w).pc)) {
                why = "admitted bit of way " + std::to_string(w) +
                      " disagrees with the selection";
                return false;
            }
        }
    }
    // The occupancy bounds are meaningful only while the split is
    // fixed; the adaptive extension moves it between epochs and lets
    // sets re-converge lazily.
    if (cfg.adaptiveDeli)
        return true;
    const std::uint32_t main_n = mainCount(set);
    const auto deli_n = static_cast<std::uint32_t>(std::popcount(deli));
    if (main_n > mainWays()) {
        why = std::to_string(main_n) + " MainWays lines exceed the " +
              std::to_string(mainWays()) + "-way bound (W - D)";
        return false;
    }
    if (deli_n > deliWays) {
        why = std::to_string(deli_n) + " DeliWays lines exceed the " +
              std::to_string(deliWays) + "-way annex";
        return false;
    }
    // A full set must use all MainWays (fills always land there).
    if (main_n + deli_n == set.ways() && main_n != mainWays()) {
        why = "full set holds " + std::to_string(main_n) +
              " MainWays lines, expected " + std::to_string(mainWays());
        return false;
    }
    return true;
}

bool
NUcachePolicy::checkSetInvariants(const SetView &set) const
{
    std::string why;
    return checkInvariants(set, why);
}

} // namespace nucache
