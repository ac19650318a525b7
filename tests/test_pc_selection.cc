/**
 * @file
 * Tests for the cost-benefit PC-selection algorithm on crafted
 * profiles: the window shrinkage trade-off, flood avoidance, and
 * warm-start stability; and, on randomized pools, exact agreement
 * with a naive transcription of the algorithm.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>

#include "common/rng.hh"
#include "core/pc_selection.hh"

namespace nucache
{
namespace
{

/** Profile whose next-uses all sit at one distance. */
struct MadeProfile
{
    PC pc;
    std::uint64_t misses;
    std::uint64_t retires;
    LogHistogram hist{32, 2};

    MadeProfile(PC pc, std::uint64_t misses, std::uint64_t distance,
                std::uint64_t uses)
        : pc(pc), misses(misses), retires(misses)
    {
        hist.add(distance, uses);
    }
};

std::vector<PcProfile>
views(const std::vector<MadeProfile> &made)
{
    std::vector<PcProfile> out;
    for (const auto &m : made) {
        PcProfile p;
        p.pc = m.pc;
        p.misses = m.misses;
        p.retires = m.retires;
        p.nextUse = &m.hist;
        out.push_back(p);
    }
    return out;
}

TEST(PcSelection, EmptyInputsSelectNothing)
{
    EXPECT_TRUE(selectDelinquentPcs({}, 100, 100).selected.empty());
    std::vector<MadeProfile> made;
    made.emplace_back(1, 10, 5, 10);
    EXPECT_TRUE(
        selectDelinquentPcs(views(made), 0, 100).selected.empty());
    EXPECT_TRUE(
        selectDelinquentPcs(views(made), 100, 0).selected.empty());
}

TEST(PcSelection, SelectsReusersSkipsStreams)
{
    std::vector<MadeProfile> made;
    // PC 1: reuse at distance 50.  PC 2: a stream, no reuse mass.
    made.emplace_back(1, 100, 50, 90);
    made.emplace_back(2, 400, 1, 0);
    const auto res = selectDelinquentPcs(views(made), 100, 1000);
    ASSERT_EQ(res.selected.size(), 1u);
    EXPECT_EQ(res.selected[0], 1u);
    EXPECT_GT(res.expectedHits, 80.0);
}

TEST(PcSelection, StopsBeforeFloodingTheWindow)
{
    // Homogeneous loop: 16 PCs, each with 100 misses/epoch, all reuse
    // at distance 600 (in misses).  Capacity 100 blocks; total misses
    // 1600/epoch.  Window(k) = 100 * 1600 / (100k) = 1600/k; benefit
    // requires window >= 600 => k* = 2.
    std::vector<MadeProfile> made;
    for (PC pc = 1; pc <= 16; ++pc)
        made.emplace_back(pc, 100, 600, 95);
    const auto res = selectDelinquentPcs(views(made), 100, 1600);
    EXPECT_GE(res.selected.size(), 1u);
    EXPECT_LE(res.selected.size(), 3u);
    EXPECT_GT(res.expectedHits, 90.0);
}

TEST(PcSelection, SelectsAllWhenEverythingFits)
{
    std::vector<MadeProfile> made;
    for (PC pc = 1; pc <= 8; ++pc)
        made.emplace_back(pc, 10, 20, 9);
    // Capacity ample: window(all) = 1000*80/80 = 1000 >= 20.
    const auto res = selectDelinquentPcs(views(made), 1000, 80);
    EXPECT_EQ(res.selected.size(), 8u);
}

TEST(PcSelection, AdmitsNearBandRejectsFarBand)
{
    // Two bands: near reuse (distance 50) and far reuse (distance
    // 5000).  Capacity only supports the near band.
    std::vector<MadeProfile> made;
    for (PC pc = 1; pc <= 4; ++pc)
        made.emplace_back(pc, 100, 50, 95);
    for (PC pc = 11; pc <= 14; ++pc)
        made.emplace_back(pc, 100, 5000, 95);
    const auto res = selectDelinquentPcs(views(made), 100, 800);
    for (const PC pc : res.selected)
        EXPECT_LE(pc, 4u) << "far-band PC selected";
    EXPECT_GE(res.selected.size(), 2u);
}

TEST(PcSelection, UsesRetiresAsInsertionRate)
{
    // Same misses, but PC 2 has huge retires (lease churn): admitting
    // it crushes the window and must be avoided.
    std::vector<MadeProfile> near_only;
    near_only.emplace_back(1, 100, 400, 95);
    near_only.emplace_back(2, 100, 400, 95);
    near_only[1].retires = 3000;
    const auto res = selectDelinquentPcs(views(near_only), 100, 1000);
    ASSERT_EQ(res.selected.size(), 1u);
    EXPECT_EQ(res.selected[0], 1u);
}

TEST(PcSelection, HonorsMaxSelected)
{
    std::vector<MadeProfile> made;
    for (PC pc = 1; pc <= 12; ++pc)
        made.emplace_back(pc, 10, 5, 9);
    PcSelectionConfig cfg;
    cfg.maxSelected = 3;
    const auto res = selectDelinquentPcs(views(made), 10000, 120, cfg);
    EXPECT_LE(res.selected.size(), 3u);
}

TEST(PcSelection, HonorsCandidatePool)
{
    std::vector<MadeProfile> made;
    for (PC pc = 1; pc <= 12; ++pc)
        made.emplace_back(pc, 10, 5, 9);
    PcSelectionConfig cfg;
    cfg.candidatePcs = 4;
    const auto res = selectDelinquentPcs(views(made), 10000, 120, cfg);
    for (const PC pc : res.selected)
        EXPECT_LE(pc, 4u);
}

TEST(PcSelection, WarmStartKeepsEquivalentSelection)
{
    std::vector<MadeProfile> made;
    for (PC pc = 1; pc <= 8; ++pc)
        made.emplace_back(pc, 100, 600, 95);
    // From scratch the algorithm picks some subset of size ~2.
    const auto fresh = selectDelinquentPcs(views(made), 100, 800);
    ASSERT_FALSE(fresh.selected.empty());
    // Warm-started with that subset it must keep it (same benefit,
    // no reshuffle).
    const auto warm = selectDelinquentPcs(views(made), 100, 800,
                                          PcSelectionConfig{},
                                          fresh.selected);
    EXPECT_EQ(warm.selected, fresh.selected);
}

TEST(PcSelection, WarmStartPrunesHarmfulInheritance)
{
    // Inherit a flooding selection; removal passes must trim it.
    std::vector<MadeProfile> made;
    for (PC pc = 1; pc <= 16; ++pc)
        made.emplace_back(pc, 100, 600, 95);
    std::vector<PC> all;
    for (PC pc = 1; pc <= 16; ++pc)
        all.push_back(pc);
    const auto res = selectDelinquentPcs(views(made), 100, 1600,
                                         PcSelectionConfig{}, all);
    EXPECT_LE(res.selected.size(), 3u);
    EXPECT_GT(res.expectedHits, 90.0);
}

TEST(PcSelection, ReportsWindow)
{
    std::vector<MadeProfile> made;
    made.emplace_back(1, 100, 50, 90);
    const auto res = selectDelinquentPcs(views(made), 200, 1000);
    // frac = 100/1000 -> window = 200/0.1 = 2000.
    EXPECT_NEAR(res.window, 2000.0, 1.0);
}

/**
 * Naive reference selection: the local search written directly, with
 * every candidate set's benefit recomputed from scratch by walking
 * each member's histogram buckets (LogHistogram::countAtOrBelow).
 */
double
naiveBenefit(const std::vector<PcProfile> &candidates,
             const std::vector<bool> &member, std::uint64_t capacity,
             std::uint64_t total_misses, double &window_out)
{
    std::uint64_t inserts = 0;
    for (std::size_t i = 0; i < member.size(); ++i) {
        if (member[i])
            inserts += std::max(candidates[i].retires, candidates[i].misses);
    }
    if (inserts == 0) {
        window_out = 0.0;
        return 0.0;
    }
    const double frac =
        static_cast<double>(inserts) / static_cast<double>(total_misses);
    const double window = static_cast<double>(capacity) / frac;
    window_out = window;
    constexpr std::uint64_t kCap =
        std::numeric_limits<std::uint64_t>::max() / 2;
    const std::uint64_t limit = window >= static_cast<double>(kCap)
        ? kCap
        : static_cast<std::uint64_t>(window);
    double hits = 0.0;
    for (std::size_t i = 0; i < member.size(); ++i) {
        if (member[i] && candidates[i].nextUse)
            hits += candidates[i].nextUse->countAtOrBelow(limit);
    }
    return hits;
}

SelectionResult
naiveSelect(const std::vector<PcProfile> &candidates,
            std::uint64_t capacity, std::uint64_t total_misses,
            const PcSelectionConfig &cfg, const std::vector<PC> &previous)
{
    const std::size_t pool =
        std::min<std::size_t>(candidates.size(), cfg.candidatePcs);
    std::vector<bool> member(pool, false);
    std::uint32_t chosen = 0;
    for (std::size_t i = 0; i < pool; ++i) {
        if (chosen < cfg.maxSelected &&
            std::count(previous.begin(), previous.end(), candidates[i].pc)) {
            member[i] = true;
            ++chosen;
        }
    }
    double window = 0.0;
    double benefit =
        naiveBenefit(candidates, member, capacity, total_misses, window);
    for (unsigned round = 0; round < 2 * cfg.maxSelected + 4; ++round) {
        double best = benefit;
        double best_window = window;
        std::size_t flip = pool;
        for (std::size_t i = 0; i < pool; ++i) {
            if (!member[i] && chosen >= cfg.maxSelected)
                continue;
            member[i] = !member[i];
            double w = 0.0;
            const double b =
                naiveBenefit(candidates, member, capacity, total_misses, w);
            member[i] = !member[i];
            if (b > best) {
                best = b;
                best_window = w;
                flip = i;
            }
        }
        if (flip == pool)
            break;
        member[flip] = !member[flip];
        chosen = member[flip] ? chosen + 1 : chosen - 1;
        benefit = best;
        window = best_window;
    }
    if (!previous.empty()) {
        const SelectionResult fresh =
            naiveSelect(candidates, capacity, total_misses, cfg, {});
        if (fresh.expectedHits > benefit)
            return fresh;
    }
    SelectionResult result;
    for (std::size_t i = 0; i < pool; ++i) {
        if (member[i])
            result.selected.push_back(candidates[i].pc);
    }
    result.expectedHits = benefit;
    result.window = window;
    return result;
}

/**
 * The prefix-CDF selection returns the naive reference's selection,
 * expected hits and window exactly, on random pools of 16-256
 * candidates, fresh and warm-started.
 */
TEST(PcSelection, MatchesNaiveReferenceOnRandomPools)
{
    Rng rng(2011);
    std::size_t nonempty = 0;
    for (int trial = 0; trial < 16; ++trial) {
        const std::size_t n = rng.between(16, 256);
        std::deque<LogHistogram> hists;
        std::vector<PcProfile> candidates;
        std::uint64_t total_misses = 0;
        for (std::size_t i = 0; i < n; ++i) {
            hists.emplace_back(32, 2);
            // A few reuse bands per PC, log-uniform in distance.  Some
            // counts are large enough that partial buckets round, so
            // the order the hits are summed in shows in the total.
            for (std::uint64_t b = rng.between(0, 4); b > 0; --b) {
                const std::uint64_t d = rng.below(std::uint64_t{1}
                                                  << rng.between(1, 22));
                hists.back().add(d, rng.between(1, std::uint64_t{1}
                                                       << rng.between(9, 40)));
            }
            PcProfile p;
            p.pc = 0x400000 + 4 * i;
            p.misses = rng.between(1, 2000);
            p.retires = rng.between(0, 3000);
            p.nextUse = rng.chance(0.05) ? nullptr : &hists.back();
            total_misses += p.misses;
            candidates.push_back(p);
        }
        const std::uint64_t capacity = rng.between(64, 65536);
        PcSelectionConfig cfg;
        cfg.candidatePcs = static_cast<std::uint32_t>(n);
        cfg.maxSelected = static_cast<std::uint32_t>(rng.between(4, n));
        const bool warm = trial % 2 == 1;
        std::vector<PC> previous;
        if (warm) {
            for (const PcProfile &p : candidates) {
                if (rng.chance(0.2))
                    previous.push_back(p.pc);
            }
            previous.push_back(0x1);  // not in the pool
        }

        const SelectionResult fast = selectDelinquentPcs(
            candidates, capacity, total_misses, cfg, previous);
        const SelectionResult naive =
            naiveSelect(candidates, capacity, total_misses, cfg, previous);
        EXPECT_EQ(fast.selected, naive.selected) << "trial " << trial;
        EXPECT_EQ(fast.expectedHits, naive.expectedHits)
            << "trial " << trial;
        EXPECT_EQ(fast.window, naive.window) << "trial " << trial;
        nonempty += naive.selected.empty() ? 0 : 1;
    }
    // The pools must exercise the search, not just return nothing.
    EXPECT_GT(nonempty, 12u);
}

TEST(PcSelection, TopKBaselinePicksByMisses)
{
    std::vector<MadeProfile> made;
    made.emplace_back(3, 50, 5, 10);
    made.emplace_back(1, 300, 5, 10);
    made.emplace_back(2, 100, 5, 10);
    const auto res = selectTopKByMisses(views(made), 2);
    ASSERT_EQ(res.selected.size(), 2u);
    EXPECT_EQ(res.selected[0], 1u);
    EXPECT_EQ(res.selected[1], 2u);
}

} // anonymous namespace
} // namespace nucache
