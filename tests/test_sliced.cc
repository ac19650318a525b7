/**
 * @file
 * Tests for the sliced LLC tag store and the sharded run engine.
 *
 * The two contracts under test are both exactness contracts:
 *  - slicing is a layout-only bijection: any slice count and slice
 *    hash produces bit-identical statistics;
 *  - the sharded engine reassembles the serial interleave: any
 *    --shard-jobs width produces bit-identical statistics.
 * So every test here is a golden A/B comparison against the serial,
 * single-slice configuration, via the full statsJson() tree.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "mem/lru.hh"
#include "mem/slice.hh"
#include "sim/experiment.hh"
#include "sim/policies.hh"
#include "sim/system.hh"
#include "trace/workloads.hh"

namespace nucache
{
namespace
{

TEST(SliceMap, ModuloIsABijection)
{
    for (const std::uint32_t slices : {1u, 2u, 4u, 8u}) {
        SliceMap map(256, slices, SliceHashKind::Modulo);
        EXPECT_EQ(map.slices(), slices);
        EXPECT_EQ(map.rowsPerSlice(), 256u / slices);
        std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
        for (std::uint32_t s = 0; s < 256; ++s) {
            const std::uint32_t sl = map.sliceOf(s);
            const std::uint32_t row = map.rowOf(s);
            ASSERT_LT(sl, slices);
            ASSERT_LT(row, map.rowsPerSlice());
            EXPECT_EQ(map.setOf(sl, row), s);
            seen.insert({sl, row});
        }
        EXPECT_EQ(seen.size(), 256u);
    }
}

TEST(SliceMap, XorFoldIsABijection)
{
    for (const std::uint32_t slices : {1u, 2u, 4u, 8u}) {
        SliceMap map(512, slices, SliceHashKind::XorFold);
        std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
        for (std::uint32_t s = 0; s < 512; ++s) {
            const std::uint32_t sl = map.sliceOf(s);
            const std::uint32_t row = map.rowOf(s);
            ASSERT_LT(sl, slices);
            EXPECT_EQ(map.setOf(sl, row), s);
            seen.insert({sl, row});
        }
        EXPECT_EQ(seen.size(), 512u);
    }
}

TEST(SliceMap, HashNamesParse)
{
    EXPECT_EQ(parseSliceHash(""), SliceHashKind::Modulo);
    EXPECT_EQ(parseSliceHash("mod"), SliceHashKind::Modulo);
    EXPECT_EQ(parseSliceHash("modulo"), SliceHashKind::Modulo);
    EXPECT_EQ(parseSliceHash("xor"), SliceHashKind::XorFold);
    EXPECT_EQ(parseSliceHash("xorfold"), SliceHashKind::XorFold);
    EXPECT_EQ(parseSliceHash("xor-fold"), SliceHashKind::XorFold);
}

using SlicedDeathTest = ::testing::Test;

TEST(SlicedDeathTest, RejectsUnknownSliceHash)
{
    EXPECT_EXIT(parseSliceHash("crc"),
                ::testing::ExitedWithCode(1), "unknown slice hash");
}

TEST(SlicedDeathTest, RejectsMoreSlicesThanSets)
{
    CacheConfig cfg{"llc", 4096, 4, 64}; // 16 sets
    cfg.slices = 32;
    EXPECT_EXIT(Cache(cfg, std::make_unique<LruPolicy>()),
                ::testing::ExitedWithCode(1), "slices exceed");
}

/** Drive one access stream through a cache; return a stats digest. */
std::string
cacheDigest(std::uint32_t slices, const std::string &hash)
{
    CacheConfig cfg{"llc", 64 << 10, 8, 64};
    cfg.slices = slices;
    cfg.sliceHash = hash;
    Cache cache(cfg, std::make_unique<LruPolicy>(), 2);
    cache.enableSetHeat();

    std::ostringstream os;
    std::uint64_t rng = 0x2545F4914F6CDD1Dull;
    for (int i = 0; i < 50000; ++i) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        AccessInfo info;
        info.addr = (rng % 100000) * 64;
        info.pc = 0x400000 + (rng % 37) * 4;
        info.coreId = static_cast<CoreId>(rng % 2);
        info.isWrite = (rng & 0x100) != 0;
        const Cache::Result res = cache.access(info);
        os << res.hit << res.writeback << res.writebackAddr
           << res.evicted << res.evictedAddr << '\n';
    }
    for (CoreId c = 0; c < 2; ++c) {
        const CacheCoreStats &s = cache.coreStats(c);
        os << s.accesses << ' ' << s.hits << ' ' << s.misses << ' '
           << s.evictions << '\n';
    }
    os << cache.writebacks() << '\n';
    for (const std::uint64_t h : cache.setHeat())
        os << h << ' ';
    return os.str();
}

TEST(SlicedCache, LayoutIsInvisibleAtEverySliceCountAndHash)
{
    const std::string baseline = cacheDigest(1, "mod");
    for (const std::uint32_t slices : {2u, 4u, 8u}) {
        EXPECT_EQ(cacheDigest(slices, "mod"), baseline)
            << slices << " slices, mod";
        EXPECT_EQ(cacheDigest(slices, "xor"), baseline)
            << slices << " slices, xor";
    }
    EXPECT_EQ(cacheDigest(1, "xor"), baseline);
}

/** Run a 4-core mix and return the full stats tree as a string. */
std::string
runDigest(const std::string &policy, std::uint32_t slices,
          const std::string &hash, unsigned shard_jobs,
          bool enable_l2 = false, bool prefetch = false,
          bool check = false)
{
    HierarchyConfig hier = defaultHierarchy(4);
    hier.llc = CacheConfig{"llc", 256 << 10, 16, 64};
    hier.llc.slices = slices;
    hier.llc.sliceHash = hash;
    hier.shardJobs = shard_jobs;
    hier.enableL2 = enable_l2;
    if (enable_l2)
        hier.l2 = CacheConfig{"l2", 32 << 10, 8, 64};
    hier.prefetch.enabled = prefetch;

    std::vector<TraceSourcePtr> traces;
    traces.push_back(makeWorkload("small_ws", 12000));
    traces.push_back(makeWorkload("stream_pure", 12000));
    traces.push_back(makeWorkload("zipf_hot", 12000));
    traces.push_back(makeWorkload("echo_near", 12000));
    System sys(hier, makePolicy(policy), std::move(traces), 12000,
               check);
    sys.run();
    if (check) {
        EXPECT_GT(sys.invariantChecksRun(), 0u);
    }

    std::ostringstream os;
    sys.statsJson().dump(os);
    return os.str();
}

/**
 * The satellite-3 golden matrix: every policy family the paper
 * compares, bit-identical across slice counts.
 */
class SlicedGolden : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SlicedGolden, StatsIdenticalAcrossSliceCounts)
{
    const std::string policy = GetParam();
    const std::string baseline = runDigest(policy, 1, "mod", 1);
    EXPECT_EQ(runDigest(policy, 2, "mod", 1), baseline) << policy;
    EXPECT_EQ(runDigest(policy, 4, "mod", 1), baseline) << policy;
    EXPECT_EQ(runDigest(policy, 4, "xor", 1), baseline) << policy;
}

TEST_P(SlicedGolden, StatsIdenticalAcrossShardJobWidths)
{
    const std::string policy = GetParam();
    const std::string baseline = runDigest(policy, 1, "mod", 1);
    EXPECT_EQ(runDigest(policy, 1, "mod", 2), baseline) << policy;
    EXPECT_EQ(runDigest(policy, 2, "mod", 2), baseline) << policy;
    EXPECT_EQ(runDigest(policy, 4, "mod", 8), baseline) << policy;
}

INSTANTIATE_TEST_SUITE_P(Policies, SlicedGolden,
                         ::testing::Values("lru", "nru", "nucache",
                                           "ucp", "pipp"));

TEST(ShardedRun, MatchesSerialWithPrivateL2)
{
    const std::string baseline =
        runDigest("nucache", 1, "mod", 1, /*l2=*/true);
    EXPECT_EQ(runDigest("nucache", 4, "mod", 4, /*l2=*/true), baseline);
}

TEST(ShardedRun, MatchesSerialWithPrefetcher)
{
    const std::string baseline =
        runDigest("lru", 1, "mod", 1, false, /*prefetch=*/true);
    EXPECT_EQ(runDigest("lru", 4, "mod", 4, false, /*prefetch=*/true),
              baseline);
}

TEST(ShardedRun, CheckerStaysGreenSliced)
{
    const std::string baseline =
        runDigest("nucache", 1, "mod", 1, false, false, /*check=*/true);
    EXPECT_EQ(runDigest("nucache", 4, "mod", 4, false, false, true),
              baseline);
}

TEST(ShardedRun, SingleCorePipelinesCorrectly)
{
    HierarchyConfig hier = defaultHierarchy(1);
    hier.llc = CacheConfig{"llc", 64 << 10, 8, 64};

    const auto digest = [&hier](unsigned jobs) {
        HierarchyConfig h = hier;
        h.shardJobs = jobs;
        std::vector<TraceSourcePtr> traces;
        traces.push_back(makeWorkload("chase_small", 15000));
        System sys(h, makePolicy("lru"), std::move(traces), 15000);
        sys.run();
        std::ostringstream os;
        sys.statsJson().dump(os);
        return os.str();
    };
    EXPECT_EQ(digest(2), digest(1));
}

TEST(ShardedRun, InclusiveFallsBackToSerialEngine)
{
    const auto digest = [](unsigned jobs) {
        HierarchyConfig hier = defaultHierarchy(2);
        hier.llc = CacheConfig{"llc", 64 << 10, 8, 64};
        hier.inclusive = true;
        hier.shardJobs = jobs;
        std::vector<TraceSourcePtr> traces;
        traces.push_back(makeWorkload("small_ws", 8000));
        traces.push_back(makeWorkload("stream_pure", 8000));
        System sys(hier, makePolicy("lru"), std::move(traces), 8000);
        sys.run();
        std::ostringstream os;
        sys.statsJson().dump(os);
        return os.str();
    };
    // The sharded engine cannot honor back-invalidation; the run must
    // still complete with serial-identical results.
    EXPECT_EQ(digest(4), digest(1));
}

} // anonymous namespace
} // namespace nucache
