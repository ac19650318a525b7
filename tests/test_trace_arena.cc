/**
 * @file
 * Tests for the shared trace arena: cursor streams must be
 * record-for-record identical to an uncached makeWorkload() of the
 * same name, synthetic or attack:* (including after reset()), and materialization must happen exactly
 * once per (workload, length) key no matter how many threads — or
 * RunEngine grid jobs — ask for it concurrently.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "sim/run_engine.hh"
#include "trace/arena.hh"
#include "trace/workloads.hh"

namespace nucache
{
namespace
{

/** Compare two sources record-for-record until both are exhausted. */
void
expectSameStream(TraceSource &a, TraceSource &b,
                 const std::string &label)
{
    TraceRecord ra, rb;
    std::uint64_t i = 0;
    for (;;) {
        const bool more_a = a.next(ra);
        const bool more_b = b.next(rb);
        ASSERT_EQ(more_a, more_b) << label << " length @" << i;
        if (!more_a)
            return;
        ASSERT_EQ(ra.addr, rb.addr) << label << " @" << i;
        ASSERT_EQ(ra.pc, rb.pc) << label << " @" << i;
        ASSERT_EQ(ra.nonMemGap, rb.nonMemGap) << label << " @" << i;
        ASSERT_EQ(ra.isWrite, rb.isWrite) << label << " @" << i;
        ++i;
    }
}

/**
 * An arena cursor replays exactly the stream of an uncached
 * makeWorkload(), and reset() rewinds it to the identical stream again
 * (the wrap-around methodology relies on both).
 */
TEST(TraceArena, CursorMatchesGeneratorIncludingReset)
{
    constexpr std::uint64_t kLen = 30000;
    const std::vector<std::string> names = {
        "zipf_hot", "stream_pure", "chase_big", "mix_rw",
        "attack:evset", "attack:storm:def=rand"};
    for (const std::string &name : names) {
        const TraceSourcePtr gen = makeWorkload(name, kLen);
        const TraceSourcePtr cur =
            TraceArena::instance().open(name, kLen);
        EXPECT_EQ(cur->name(), gen->name());
        expectSameStream(*gen, *cur, name + "/pass1");
        gen->reset();
        cur->reset();
        expectSameStream(*gen, *cur, name + "/pass2");
    }
}

/** Concurrent first requests for one key materialize exactly once. */
TEST(TraceArena, ConcurrentGetMaterializesOnce)
{
    TraceArena &arena = TraceArena::instance();
    arena.clear();
    const std::uint64_t before = arena.materializations();

    // A length override no other test uses, so every worker races on
    // a genuinely cold key.
    constexpr std::uint64_t kLen = 12347;
    std::vector<TraceArena::Buffer> bufs(32);
    ThreadPool pool(8);
    pool.parallelFor(bufs.size(), [&](std::size_t i) {
        bufs[i] = arena.get("zipf_hot", kLen);
    });

    EXPECT_EQ(arena.materializations() - before, 1u);
    for (const TraceArena::Buffer &b : bufs) {
        ASSERT_TRUE(b);
        // Every caller got the same shared buffer, not a copy.
        EXPECT_EQ(b.get(), bufs.front().get());
        EXPECT_EQ(b->size(), kLen);
    }
}

/**
 * End-to-end once-semantics: a parallel RunEngine grid touches each
 * distinct workload in many cells (every policy column plus the
 * run-alone baselines), yet the arena materializes each exactly once.
 */
TEST(TraceArena, EngineGridMaterializesOncePerWorkload)
{
    TraceArena &arena = TraceArena::instance();
    arena.clear();
    const std::uint64_t before = arena.materializations();

    const std::vector<WorkloadMix> mixes = {
        {"hot+ws", {"tiny_hot", "small_ws"}},
        {"ws+hot", {"small_ws", "tiny_hot"}},
    };
    RunEngine engine(2000, 4);
    const GridRun run = engine.runGrid(defaultHierarchy(2), mixes,
                                       {"lru", "nucache", "ucp"});
    ASSERT_EQ(run.cells.size(), mixes.size());

    // Two distinct workloads across all 6 cells + 4 baseline runs.
    EXPECT_EQ(arena.materializations() - before, 2u);
}

} // anonymous namespace
} // namespace nucache
