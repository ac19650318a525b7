/**
 * @file
 * Tests for the offline Belady/MIN simulator.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/cache.hh"
#include "mem/lru.hh"
#include "policy/belady.hh"
#include "trace/trace_io.hh"

namespace nucache
{
namespace
{

TEST(Belady, ColdMissesOnly)
{
    // Every block distinct: all cold misses, nothing MIN can do.
    std::vector<std::uint64_t> stream;
    for (std::uint64_t b = 0; b < 100; ++b)
        stream.push_back(b);
    const auto res = simulateBelady(stream, 4, 2);
    EXPECT_EQ(res.accesses, 100u);
    EXPECT_EQ(res.misses, 100u);
    EXPECT_EQ(res.hits, 0u);
}

TEST(Belady, PerfectOnFittingWorkingSet)
{
    std::vector<std::uint64_t> stream;
    for (int iter = 0; iter < 10; ++iter) {
        for (std::uint64_t b = 0; b < 8; ++b)
            stream.push_back(b);
    }
    // 4 sets x 2 ways = 8 blocks: only cold misses.
    const auto res = simulateBelady(stream, 4, 2);
    EXPECT_EQ(res.misses, 8u);
}

TEST(Belady, ClassicCounterexampleToLru)
{
    // Cyclic a b c over a 2-entry fully-associative cache: LRU gets 0
    // hits, MIN gets one hit per cycle after warmup (keep one of the
    // two, alternate the other).
    std::vector<std::uint64_t> stream;
    for (int iter = 0; iter < 30; ++iter) {
        stream.push_back(0);
        stream.push_back(1);
        stream.push_back(2);
    }
    const auto res = simulateBelady(stream, 1, 2);
    EXPECT_GE(res.hits, 29u);  // one hit per iteration after warmup
}

TEST(Belady, NeverWorseThanLruProperty)
{
    // Random streams: MIN's miss count must never exceed LRU's.
    Rng rng(31337);
    for (int trial = 0; trial < 5; ++trial) {
        std::vector<std::uint64_t> stream;
        for (int i = 0; i < 20000; ++i)
            stream.push_back(rng.below(256));

        const std::uint32_t sets = 8, ways = 4;
        const auto opt = simulateBelady(stream, sets, ways);

        CacheConfig cfg{"lru", 64ull * sets * ways, ways, 64};
        Cache lru(cfg, std::make_unique<LruPolicy>());
        for (const auto b : stream) {
            AccessInfo info;
            info.addr = b * 64;
            info.pc = 1;
            lru.access(info);
        }
        EXPECT_LE(opt.misses, lru.totalStats().misses)
            << "trial " << trial;
    }
}

TEST(Belady, MissRateHelper)
{
    std::vector<std::uint64_t> stream = {1, 2, 1, 2};
    const auto res = simulateBelady(stream, 1, 2);
    EXPECT_DOUBLE_EQ(res.missRate(), 0.5);
}

TEST(Belady, CollectLlcStreamFiltersThroughL1)
{
    // Two records to the same block: the second hits the L1 and never
    // reaches the LLC stream.
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 2; ++i) {
        TraceRecord r;
        r.addr = 0x1000;
        r.pc = 1;
        recs.push_back(r);
    }
    TraceSource src("t", recs);
    const CacheConfig l1{"l1", 512, 2, 64};
    const auto stream = collectLlcBlockStream(src, l1, 64, 2);
    ASSERT_EQ(stream.size(), 1u);
    EXPECT_EQ(stream[0], 0x1000u / 64);
}

TEST(Belady, CollectWrapsTrace)
{
    std::vector<TraceRecord> recs(1);
    recs[0].addr = 0x40;
    TraceSource src("t", recs);
    const CacheConfig l1{"l1", 512, 2, 64};
    // 5 records from a 1-record trace: wraps; all L1 hits after first.
    const auto stream = collectLlcBlockStream(src, l1, 64, 5);
    EXPECT_EQ(stream.size(), 1u);
}

TEST(BeladyDeathTest, RejectsBadGeometry)
{
    EXPECT_EXIT(simulateBelady({1}, 3, 2), ::testing::ExitedWithCode(1),
                "power of two");
    EXPECT_EXIT(simulateBelady({1}, 4, 0), ::testing::ExitedWithCode(1),
                "zero associativity");
}

} // anonymous namespace
} // namespace nucache
