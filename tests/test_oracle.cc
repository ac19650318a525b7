/**
 * @file
 * Tests for the differential oracle: the naive reference simulator's
 * own semantics, and lockstep agreement between the reference and the
 * production Cache for LRU, NRU and NUcache across the entire workload
 * catalog, plus NUcache on the shared-LLC streams of the canonical
 * multicore mixes.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "check/oracle.hh"
#include "core/nucache.hh"
#include "mem/cache.hh"
#include "sim/experiment.hh"
#include "sim/mixes.hh"
#include "sim/policies.hh"
#include "sim/system.hh"
#include "trace/workloads.hh"

namespace nucache
{
namespace
{

/** Replay window per workload (small cache => plenty of evictions). */
constexpr std::uint64_t kRecords = 60'000;

/** 64 sets x 8 ways x 64 B = 32 KiB: heavy eviction traffic. */
CacheConfig
oracleConfig()
{
    return CacheConfig{"oracle", 64ull * 8 * 64, 8, 64};
}

TEST(ReferenceCache, LruEvictsLeastRecentlyUsed)
{
    ReferenceCache ref(1, 2, 64, ReferencePolicy::Lru);
    EXPECT_FALSE(ref.access(0));    // miss, fill way 0
    EXPECT_FALSE(ref.access(64));   // miss, fill way 1
    EXPECT_TRUE(ref.access(0));     // hit, way 0 becomes MRU
    EXPECT_FALSE(ref.access(128));  // miss, evicts LRU (64)
    EXPECT_FALSE(ref.access(64));   // miss again, evicts 0
    EXPECT_FALSE(ref.access(0));    // and 0 is gone too
    EXPECT_EQ(ref.hits(), 1u);
    EXPECT_EQ(ref.misses(), 5u);
}

TEST(ReferenceCache, NruMarksAndClearsOnSaturation)
{
    ReferenceCache ref(1, 2, 64, ReferencePolicy::Nru);
    EXPECT_FALSE(ref.access(0));    // fill way 0, ref bit set
    EXPECT_FALSE(ref.access(64));   // fill way 1, saturate, clear others
    EXPECT_FALSE(ref.access(128));  // victim = way 0 (bit clear)
    EXPECT_TRUE(ref.access(64));    // way 1 survived
    EXPECT_EQ(ref.hits(), 1u);
    EXPECT_EQ(ref.misses(), 3u);
}

/** LRU lockstep agreement on every cataloged workload. */
TEST(DifferentialOracle, LruAgreesOnAllWorkloads)
{
    for (const auto &name : workloadNames()) {
        Cache production(oracleConfig(), makePolicy("lru"), 1);
        const TraceSourcePtr trace = makeWorkload(name);
        const DifferentialReport report = runDifferential(
            production, ReferencePolicy::Lru, *trace, kRecords);
        EXPECT_GT(report.accesses, 0u) << name;
        EXPECT_TRUE(report.agreed())
            << name << ": " << report.divergences
            << " divergences, first at record " << report.firstDivergence;
        EXPECT_EQ(report.referenceHits, report.productionHits) << name;
        // Aggregate misses agree by construction when the hit streams
        // do; assert it anyway so the report stays self-consistent.
        EXPECT_EQ(report.accesses - report.referenceHits,
                  production.totalStats().misses)
            << name;
    }
}

/** NRU lockstep agreement on every cataloged workload. */
TEST(DifferentialOracle, NruAgreesOnAllWorkloads)
{
    for (const auto &name : workloadNames()) {
        Cache production(oracleConfig(), makePolicy("nru"), 1);
        const TraceSourcePtr trace = makeWorkload(name);
        const DifferentialReport report = runDifferential(
            production, ReferencePolicy::Nru, *trace, kRecords);
        EXPECT_GT(report.accesses, 0u) << name;
        EXPECT_TRUE(report.agreed())
            << name << ": " << report.divergences
            << " divergences, first at record " << report.firstDivergence;
        EXPECT_EQ(report.referenceHits, report.productionHits) << name;
    }
}

/**
 * Sensitivity: the oracle is only trustworthy if it actually notices
 * when the two sides run different algorithms.  SRRIP against the LRU
 * reference must diverge on at least one workload.
 */
TEST(DifferentialOracle, DetectsMismatchedPolicies)
{
    std::uint64_t total_divergences = 0;
    for (const auto &name : workloadNames()) {
        Cache production(oracleConfig(), makePolicy("srrip"), 1);
        const TraceSourcePtr trace = makeWorkload(name);
        const DifferentialReport report = runDifferential(
            production, ReferencePolicy::Lru, *trace, kRecords);
        total_divergences += report.divergences;
    }
    EXPECT_GT(total_divergences, 0u)
        << "oracle failed to distinguish srrip from lru on any workload";
}

/**
 * NUcache tuned for the 32 KiB oracle cache: epochs short enough that
 * several run within kRecords, and half the sets sampled so the
 * monitor sees enough next-uses to select PCs.
 */
NUcacheConfig
oracleNUcacheConfig()
{
    NUcacheConfig cfg;
    cfg.epochMisses = 4'000;
    cfg.monitor.sampleShift = 1;
    return cfg;
}

/** Feed the reference @p policy's selection after each epoch. */
SelectionFeed
selectionOf(const NUcachePolicy &policy)
{
    return [&policy, seen = std::uint64_t{0}](std::vector<PC> &pcs) mutable {
        if (policy.epochsRun() == seen)
            return false;
        seen = policy.epochsRun();
        pcs.assign(policy.selectedPcs().begin(),
                   policy.selectedPcs().end());
        return true;
    };
}

TEST(ReferenceCache, NUcacheReclaimsStaleDeliWaysFirst)
{
    // One set, 2 MainWays + 2 DeliWays; PC 0xA admitted, 0xB not.
    ReferenceCache ref(1, 4, 64, ReferencePolicy::NUcache, 2);
    ref.setSelected({0xA});
    EXPECT_FALSE(ref.access(0 * 64, 0xA));
    EXPECT_FALSE(ref.access(1 * 64, 0xB));
    EXPECT_FALSE(ref.access(2 * 64, 0xA));  // block 0 demoted
    EXPECT_FALSE(ref.access(3 * 64, 0xB));  // block 1 demoted; full
    // Block 1 is stale (0xB is not admitted): it goes before the
    // FIFO-older block 0, and block 2 is demoted in its place.
    EXPECT_FALSE(ref.access(4 * 64, 0xB));
    // Block 0 survived in the DeliWays.  The MainWays are full and
    // their LRU (block 3) is not admitted, so it renews its lease.
    EXPECT_TRUE(ref.access(0 * 64, 0xA));
    EXPECT_FALSE(ref.access(1 * 64, 0xB));
    EXPECT_EQ(ref.hits(), 1u);
}

TEST(ReferenceCache, NUcacheDeliWaysHitPromotes)
{
    // Nothing admitted: the DeliWays are a plain FIFO victim annex.
    ReferenceCache ref(1, 4, 64, ReferencePolicy::NUcache, 2);
    EXPECT_FALSE(ref.access(0 * 64, 0xB));
    EXPECT_FALSE(ref.access(1 * 64, 0xB));
    EXPECT_FALSE(ref.access(2 * 64, 0xB));  // block 0 demoted
    EXPECT_TRUE(ref.access(0 * 64, 0xB));   // promoted; block 1 demoted
    EXPECT_FALSE(ref.access(3 * 64, 0xB));  // block 2 demoted; full
    EXPECT_FALSE(ref.access(4 * 64, 0xB));  // evicts FIFO-oldest block 1
    EXPECT_TRUE(ref.access(0 * 64, 0xB));   // block 0 is in the MainWays
    EXPECT_FALSE(ref.access(1 * 64, 0xB));
    EXPECT_EQ(ref.hits(), 2u);
}

/**
 * NUcache lockstep agreement on every cataloged workload, with the
 * production selection injected at each epoch.  The sums guard the
 * test's reach: the DeliWays must serve hits and PCs must be admitted
 * somewhere, or the replay would check only the LRU MainWays.
 */
TEST(DifferentialOracle, NUcacheAgreesOnAllWorkloads)
{
    std::uint64_t deli_hits = 0;
    std::uint64_t lease_refreshes = 0;
    std::uint64_t admitting_workloads = 0;
    for (const auto &name : workloadNames()) {
        auto owned = std::make_unique<NUcachePolicy>(oracleNUcacheConfig());
        const NUcachePolicy &policy = *owned;
        Cache production(oracleConfig(), std::move(owned), 1);
        ReferenceCache reference(production.numSets(), production.numWays(),
                                 production.config().blockSize,
                                 ReferencePolicy::NUcache,
                                 policy.numDeliWays());
        const TraceSourcePtr trace = makeWorkload(name);
        const DifferentialReport report =
            runDifferential(production, reference, *trace, kRecords,
                            selectionOf(policy));
        EXPECT_TRUE(report.agreed())
            << name << ": " << report.divergences
            << " divergences, first at record " << report.firstDivergence;
        EXPECT_EQ(report.referenceHits, report.productionHits) << name;
        deli_hits += policy.deliHits();
        lease_refreshes += policy.leaseRefreshes();
        admitting_workloads += policy.selectedPcs().empty() ? 0 : 1;
    }
    EXPECT_GT(deli_hits, 0u);
    EXPECT_GT(lease_refreshes, 0u);
    EXPECT_GT(admitting_workloads, 0u);
}

/**
 * The replay must notice a wrong admission list: a reference that is
 * never told the selection diverges once production admits PCs.
 */
TEST(DifferentialOracle, NUcacheDetectsMissingSelection)
{
    std::uint64_t total_divergences = 0;
    for (const auto &name : workloadNames()) {
        auto owned = std::make_unique<NUcachePolicy>(oracleNUcacheConfig());
        const std::uint32_t deli_ways = owned->numDeliWays();
        Cache production(oracleConfig(), std::move(owned), 1);
        ReferenceCache reference(production.numSets(), production.numWays(),
                                 production.config().blockSize,
                                 ReferencePolicy::NUcache, deli_ways);
        const TraceSourcePtr trace = makeWorkload(name);
        total_divergences +=
            runDifferential(production, reference, *trace, kRecords)
                .divergences;
    }
    EXPECT_GT(total_divergences, 0u);
}

/** @return the canonical mix named @p name (2, 4 or 8 cores). */
const WorkloadMix &
canonicalMix(const std::string &name)
{
    for (const unsigned cores : {2u, 4u, 8u}) {
        for (const WorkloadMix &mix : mixesForCores(cores)) {
            if (mix.name == name)
                return mix;
        }
    }
    throw std::invalid_argument("no canonical mix " + name);
}

/** Every eight-core mix plus the first dual- and quad-core mix. */
std::vector<std::string>
oracleMixNames()
{
    std::vector<std::string> names = {dualCoreMixes().front().name,
                                      quadCoreMixes().front().name};
    for (const WorkloadMix &mix : eightCoreMixes())
        names.push_back(mix.name);
    return names;
}

class DifferentialOracleMix : public ::testing::TestWithParam<std::string>
{
};

/**
 * NUcache lockstep agreement on the shared-LLC stream of a canonical
 * mix: the LLC demand stream of a real System run, with the
 * per-core-scaled candidate pool of the paper's Figures 4-6.
 */
TEST_P(DifferentialOracleMix, NUcacheAgreesOnLlcStream)
{
    constexpr std::uint64_t kMixRecords = 100'000;
    const WorkloadMix &mix = canonicalMix(GetParam());
    const auto cores = static_cast<unsigned>(mix.workloads.size());
    std::vector<TraceSourcePtr> traces;
    for (const auto &w : mix.workloads)
        traces.push_back(makeWorkload(w));
    System sys(defaultHierarchy(cores), makePolicy("nucache"),
               std::move(traces), kMixRecords,
               /*check_invariants=*/false);
    Cache &llc = sys.hierarchy().llc();
    const auto &policy = dynamic_cast<const NUcachePolicy &>(llc.policy());
    ReferenceCache reference(llc.numSets(), llc.numWays(),
                             llc.config().blockSize,
                             ReferencePolicy::NUcache, policy.numDeliWays());
    const SelectionFeed feed = selectionOf(policy);

    DifferentialReport report;
    std::uint64_t prefetches = 0;
    std::vector<PC> pcs;
    llc.setAccessObserver([&](std::uint32_t, const AccessInfo &info,
                              const Cache::Result &res) {
        // The reference models demand traffic only; the default
        // hierarchy has no prefetcher.
        prefetches += info.isPrefetch ? 1 : 0;
        if (feed(pcs))
            reference.setSelected(pcs);
        report.tally(res.hit, reference.access(info.addr, info.pc));
    });
    sys.run();
    llc.setAccessObserver({});

    EXPECT_EQ(prefetches, 0u);
    EXPECT_GT(report.accesses, 0u);
    EXPECT_GT(policy.epochsRun(), 0u);
    EXPECT_GT(policy.deliHits(), 0u);
    EXPECT_TRUE(report.agreed())
        << report.divergences << " divergences, first at LLC access "
        << report.firstDivergence;
    EXPECT_EQ(report.referenceHits, report.productionHits);
}

INSTANTIATE_TEST_SUITE_P(CanonicalMixes, DifferentialOracleMix,
                         ::testing::ValuesIn(oracleMixNames()));

TEST(DifferentialOracle, HonorsRecordBudget)
{
    Cache production(oracleConfig(), makePolicy("lru"), 1);
    const TraceSourcePtr trace = makeWorkload(workloadNames().front());
    const DifferentialReport report =
        runDifferential(production, ReferencePolicy::Lru, *trace, 1000);
    EXPECT_EQ(report.accesses, 1000u);
}

} // anonymous namespace
} // namespace nucache
