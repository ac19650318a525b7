/**
 * @file
 * Tests for the trace CPU and the multicore system driver.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/lru.hh"
#include "sim/system.hh"
#include "trace/trace_io.hh"

namespace nucache
{
namespace
{

HierarchyConfig
tinyHierarchy(std::uint32_t cores)
{
    HierarchyConfig cfg;
    cfg.numCores = cores;
    cfg.l1 = CacheConfig{"l1", 512, 2, 64};
    cfg.llc = CacheConfig{"llc", 4096, 4, 64};
    cfg.l1Latency = 1;
    cfg.llcLatency = 10;
    cfg.dram = DramConfig{100, 0, 1};
    return cfg;
}

std::vector<TraceRecord>
simpleTrace(std::size_t n, Addr stride = 64, std::uint32_t gap = 2)
{
    std::vector<TraceRecord> recs;
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord r;
        r.pc = 0x400000;
        r.addr = i * stride;
        r.nonMemGap = gap;
        recs.push_back(r);
    }
    return recs;
}

TEST(TraceCpu, IpcAccounting)
{
    MemoryHierarchy mh(tinyHierarchy(1), std::make_unique<LruPolicy>());
    // One record, gap 2, cold access (1 + 10 + 100 = 111 cycles).
    auto src = std::make_unique<VectorTraceSource>(
        "t", simpleTrace(1, 64, 2));
    TraceCpu cpu(0, std::move(src), &mh, 1);
    EXPECT_FALSE(cpu.done());
    cpu.step();
    EXPECT_TRUE(cpu.done());
    EXPECT_EQ(cpu.instructionsAtTarget(), 3u);  // 2 gap + 1 memop
    EXPECT_EQ(cpu.cyclesAtTarget(), 2u + 111u);
    EXPECT_NEAR(cpu.ipc(), 3.0 / 113.0, 1e-12);
}

TEST(TraceCpu, WrapsTraceAndCounts)
{
    MemoryHierarchy mh(tinyHierarchy(1), std::make_unique<LruPolicy>());
    auto src = std::make_unique<VectorTraceSource>("t", simpleTrace(5));
    TraceCpu cpu(0, std::move(src), &mh, 12);
    for (int i = 0; i < 12; ++i)
        cpu.step();
    EXPECT_TRUE(cpu.done());
    EXPECT_EQ(cpu.wraps(), 2u);
    EXPECT_EQ(cpu.recordsReplayed(), 12u);
}

TEST(TraceCpu, CoresLiveInDisjointAddressAndPcSpaces)
{
    MemoryHierarchy mh(tinyHierarchy(2), std::make_unique<LruPolicy>());
    auto s0 = std::make_unique<VectorTraceSource>("a", simpleTrace(4));
    auto s1 = std::make_unique<VectorTraceSource>("b", simpleTrace(4));
    TraceCpu c0(0, std::move(s0), &mh, 4);
    TraceCpu c1(1, std::move(s1), &mh, 4);
    for (int i = 0; i < 4; ++i) {
        c0.step();
        c1.step();
    }
    // Same trace addresses, but no sharing: every LLC access misses.
    EXPECT_EQ(mh.llc().totalStats().hits, 0u);
    EXPECT_EQ(mh.llc().totalStats().accesses, 8u);
}

TEST(System, RunsToCompletionAndReports)
{
    std::vector<TraceSourcePtr> traces;
    traces.push_back(
        std::make_unique<VectorTraceSource>("a", simpleTrace(100)));
    traces.push_back(
        std::make_unique<VectorTraceSource>("b", simpleTrace(50)));
    System sys(tinyHierarchy(2), std::make_unique<LruPolicy>(),
               std::move(traces), 200);
    const SystemResult res = sys.run();
    ASSERT_EQ(res.cores.size(), 2u);
    EXPECT_EQ(res.cores[0].workload, "a");
    EXPECT_EQ(res.cores[1].workload, "b");
    for (const auto &core : res.cores) {
        EXPECT_GT(core.ipc, 0.0);
        EXPECT_GT(core.instructions, 0u);
        EXPECT_GT(core.cycles, 0u);
        EXPECT_EQ(core.l1.hits + core.l1.misses, core.l1.accesses);
    }
    EXPECT_GT(res.dramReads, 0u);
}

TEST(System, DeterministicAcrossRuns)
{
    const auto run = [] {
        std::vector<TraceSourcePtr> traces;
        traces.push_back(
            std::make_unique<VectorTraceSource>("a", simpleTrace(64)));
        traces.push_back(
            std::make_unique<VectorTraceSource>("b",
                                                simpleTrace(64, 128)));
        System sys(tinyHierarchy(2), std::make_unique<LruPolicy>(),
                   std::move(traces), 150);
        return sys.run();
    };
    const SystemResult a = run();
    const SystemResult b = run();
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.cores[i].ipc, b.cores[i].ipc);
        EXPECT_EQ(a.cores[i].cycles, b.cores[i].cycles);
    }
    EXPECT_EQ(a.dramReads, b.dramReads);
}

/** @return the member names of @p group, in document order. */
std::vector<std::string>
memberNames(const Json &group)
{
    std::vector<std::string> names;
    for (const auto &[key, value] : group.members()) {
        (void)value;
        names.push_back(key);
    }
    return names;
}

TEST(System, StatsJsonPinsTreeShape)
{
    const auto stats = [](bool prefetch) {
        HierarchyConfig cfg = tinyHierarchy(2);
        cfg.prefetch.enabled = prefetch;
        std::vector<TraceSourcePtr> traces;
        traces.push_back(
            std::make_unique<VectorTraceSource>("a", simpleTrace(64)));
        traces.push_back(std::make_unique<VectorTraceSource>(
            "b", simpleTrace(64, 128)));
        System sys(cfg, std::make_unique<LruPolicy>(), std::move(traces),
                   150);
        sys.run();
        return sys.statsJson();
    };
    using Names = std::vector<std::string>;
    const Names cache = {"accesses", "hits", "miss_rate", "misses"};
    const Names cache_pf = {"accesses", "hits",           "miss_rate",
                            "misses",   "prefetch_fills", "prefetches"};

    // Groups are flat members of one object, per core then shared.
    const Json plain = stats(false);
    EXPECT_EQ(memberNames(plain),
              (Names{"cpu0", "cpu0.l1", "cpu0.llc", "cpu1", "cpu1.l1",
                     "cpu1.llc", "llc", "dram"}));
    EXPECT_EQ(memberNames(plain.at("cpu0")),
              (Names{"cycles", "instructions", "ipc", "records",
                     "trace_wraps"}));
    EXPECT_EQ(memberNames(plain.at("cpu0.l1")), cache);
    EXPECT_EQ(memberNames(plain.at("cpu0.llc")), cache);
    EXPECT_EQ(memberNames(plain.at("llc")),
              (Names{"accesses", "hits", "miss_rate", "misses",
                     "writebacks"}));
    EXPECT_EQ(memberNames(plain.at("dram")),
              (Names{"queueing_cycles", "reads", "writes"}));
    EXPECT_GT(plain.at("cpu0").at("instructions").asUint(), 0u);
    EXPECT_GT(plain.at("dram").at("reads").asUint(), 0u);

    // The prefetch counters appear only where prefetches were issued:
    // the stride prefetcher fills the LLC, never the L1.
    const Json pf = stats(true);
    EXPECT_EQ(memberNames(pf.at("cpu0.l1")), cache);
    EXPECT_EQ(memberNames(pf.at("cpu0.llc")), cache_pf);
    EXPECT_EQ(memberNames(pf.at("llc")),
              (Names{"accesses", "hits", "miss_rate", "misses",
                     "prefetch_fills", "prefetches", "writebacks"}));
    EXPECT_GT(pf.at("cpu0.llc").at("prefetches").asUint(), 0u);
}

TEST(SystemDeathTest, TraceCountMustMatchCores)
{
    std::vector<TraceSourcePtr> traces;
    traces.push_back(
        std::make_unique<VectorTraceSource>("a", simpleTrace(10)));
    EXPECT_EXIT(System(tinyHierarchy(2), std::make_unique<LruPolicy>(),
                       std::move(traces), 10),
                ::testing::ExitedWithCode(1), "1 traces for 2 cores");
}

TEST(TraceCpuDeathTest, EmptyWorkloadIsFatal)
{
    MemoryHierarchy mh(tinyHierarchy(1), std::make_unique<LruPolicy>());
    auto src = std::make_unique<VectorTraceSource>("e",
                                                   simpleTrace(0));
    TraceCpu cpu(0, std::move(src), &mh, 1);
    EXPECT_EXIT(cpu.step(), ::testing::ExitedWithCode(1), "is empty");
}

} // anonymous namespace
} // namespace nucache
