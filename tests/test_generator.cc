/**
 * @file
 * Behavioural tests for the synthetic workload generator: determinism,
 * and the structural properties each pattern kind promises (the
 * properties the NUcache evaluation depends on).
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <unordered_map>

#include "trace/generator.hh"

namespace nucache
{
namespace
{

WorkloadSpec
singlePattern(PatternSpec p, std::uint64_t length = 50000)
{
    WorkloadSpec w;
    w.name = "test";
    w.seed = 42;
    w.length = length;
    w.patterns = {p};
    return w;
}

TEST(Generator, DeterministicAcrossCalls)
{
    PatternSpec p;
    p.kind = PatternSpec::Kind::Zipf;
    p.blocks = 1024;
    p.numPcs = 8;
    const WorkloadSpec spec = singlePattern(p, 5000);
    const auto first = generateTrace(spec);
    const auto second = generateTrace(spec);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        ASSERT_EQ(first[i].addr, second[i].addr) << "record " << i;
        ASSERT_EQ(first[i].pc, second[i].pc);
        ASSERT_EQ(first[i].nonMemGap, second[i].nonMemGap);
        ASSERT_EQ(first[i].isWrite, second[i].isWrite);
    }
}

TEST(Generator, HonorsLength)
{
    PatternSpec p;
    p.kind = PatternSpec::Kind::Loop;
    p.blocks = 16;
    EXPECT_EQ(generateTrace(singlePattern(p, 1234)).size(), 1234u);
}

TEST(Generator, LoopIsCyclic)
{
    PatternSpec p;
    p.kind = PatternSpec::Kind::Loop;
    p.blocks = 64;
    p.numPcs = 4;
    const auto recs = generateTrace(singlePattern(p, 256));
    // One pattern only: addresses repeat with period = blocks.
    for (std::size_t i = 0; i + 64 < recs.size(); ++i)
        ASSERT_EQ(recs[i].addr, recs[i + 64].addr) << "at " << i;
}

TEST(Generator, LoopBlockToPcMappingIsStable)
{
    PatternSpec p;
    p.kind = PatternSpec::Kind::Loop;
    p.blocks = 64;
    p.numPcs = 8;
    std::unordered_map<Addr, PC> block_pc;
    for (const TraceRecord &r : generateTrace(singlePattern(p, 1000))) {
        const auto it = block_pc.find(r.addr);
        if (it == block_pc.end())
            block_pc[r.addr] = r.pc;
        else
            ASSERT_EQ(it->second, r.pc) << "addr " << r.addr;
    }
}

TEST(Generator, StreamNeverReusesWithinWindow)
{
    PatternSpec p;
    p.kind = PatternSpec::Kind::Stream;
    p.blocks = 1 << 20;
    std::set<Addr> seen;
    for (const TraceRecord &r : generateTrace(singlePattern(p, 20000)))
        ASSERT_TRUE(seen.insert(r.addr).second) << "reused " << r.addr;
}

TEST(Generator, ChaseVisitsEveryBlockBeforeRepeating)
{
    PatternSpec p;
    p.kind = PatternSpec::Kind::Chase;
    p.blocks = 128;
    p.numPcs = 4;
    std::set<Addr> seen;
    for (const TraceRecord &r : generateTrace(singlePattern(p, 128)))
        seen.insert(r.addr);
    // A Sattolo cycle covers all blocks in exactly `blocks` steps.
    EXPECT_EQ(seen.size(), 128u);
}

TEST(Generator, BuildChaseCycleIsSingleCycle)
{
    const auto perm = buildChaseCycle(1000, 7);
    std::size_t cursor = 0, steps = 0;
    do {
        cursor = perm[cursor];
        ++steps;
    } while (cursor != 0 && steps <= 1000);
    EXPECT_EQ(steps, 1000u);
}

TEST(Generator, EchoTouchesEveryBlockExactlyTwice)
{
    PatternSpec p;
    p.kind = PatternSpec::Kind::Echo;
    p.blocks = 4096;
    p.echoDistance = 64;
    p.numPcs = 8;
    // 2000 steps = 1000 fresh + 1000 echoes of blocks 1000-64 back.
    std::map<Addr, int> touches;
    std::map<Addr, std::vector<std::size_t>> when;
    std::size_t t = 0;
    for (const TraceRecord &r : generateTrace(singlePattern(p, 2000))) {
        touches[r.addr]++;
        when[r.addr].push_back(t++);
    }
    int twice = 0;
    for (const auto &kv : touches) {
        ASSERT_LE(kv.second, 2);
        if (kv.second == 2) {
            ++twice;
            const auto &ts = when[kv.first];
            // Fresh at 2c, echo at 2(c+E)+1: gap = 2E+1.
            EXPECT_EQ(ts[1] - ts[0], 2u * 64 + 1);
        }
    }
    EXPECT_GT(twice, 800);
}

TEST(Generator, EchoUsesDisjointProducerConsumerPcs)
{
    PatternSpec p;
    p.kind = PatternSpec::Kind::Echo;
    p.blocks = 4096;
    p.echoDistance = 32;
    p.numPcs = 8;
    std::set<PC> fresh_pcs, echo_pcs;
    std::set<Addr> seen;
    std::size_t t = 0;
    for (const TraceRecord &r : generateTrace(singlePattern(p, 4000))) {
        // The first 2E steps contain cold "echo" touches of blocks
        // never produced (the warm-up wrap); skip them so the
        // first-seen test identifies fresh touches correctly.
        if (t++ < 2ull * p.echoDistance) {
            seen.insert(r.addr);
            continue;
        }
        if (seen.insert(r.addr).second)
            fresh_pcs.insert(r.pc);
        else
            echo_pcs.insert(r.pc);
    }
    for (const PC pc : fresh_pcs)
        EXPECT_EQ(echo_pcs.count(pc), 0u) << "pc overlaps";
    EXPECT_EQ(fresh_pcs.size(), 4u);
    EXPECT_EQ(echo_pcs.size(), 4u);
}

TEST(Generator, ZipfAssignsPcByPopularityBand)
{
    PatternSpec p;
    p.kind = PatternSpec::Kind::Zipf;
    p.blocks = 1024;
    p.numPcs = 4;
    p.zipfSkew = 1.2;
    std::map<PC, std::uint64_t> counts;
    for (const TraceRecord &r : generateTrace(singlePattern(p, 30000)))
        counts[r.pc]++;
    ASSERT_GE(counts.size(), 2u);
    // Lower PC index = hotter band = more accesses.
    bool first = true;
    std::uint64_t prev = 0;
    for (const auto &kv : counts) {
        if (!first) {
            EXPECT_LE(kv.second, prev);
        }
        prev = kv.second;
        first = false;
    }
}

TEST(Generator, PhaseGatingAlternates)
{
    WorkloadSpec w;
    w.name = "phased";
    w.seed = 9;
    w.length = 4000;
    w.phasePeriod = 1000;
    w.burstLen = 8;
    PatternSpec a;
    a.kind = PatternSpec::Kind::Loop;
    a.blocks = 8;
    a.phase = 1;
    PatternSpec b;
    b.kind = PatternSpec::Kind::Loop;
    b.blocks = 8;
    b.phase = 2;
    w.patterns = {a, b};
    // Pattern regions differ, so phase is visible in the address.
    std::size_t t = 0;
    for (const TraceRecord &r : generateTrace(w)) {
        const bool in_b = r.addr >= (2ull << 28);
        const bool phase_b = (t / 1000) % 2 == 1;
        // Bursts can straddle the boundary by < burstLen records.
        if (t % 1000 >= 8) {
            ASSERT_EQ(in_b, phase_b) << "at " << t;
        }
        ++t;
    }
}

TEST(Generator, PatternsUseDisjointRegions)
{
    WorkloadSpec w;
    w.name = "two";
    w.seed = 3;
    w.length = 10000;
    PatternSpec a;
    a.kind = PatternSpec::Kind::Loop;
    a.blocks = 4096;
    PatternSpec b;
    b.kind = PatternSpec::Kind::Stream;
    b.blocks = 1 << 20;
    w.patterns = {a, b};
    for (const TraceRecord &r : generateTrace(w)) {
        const std::uint64_t region = r.addr >> 28;
        ASSERT_TRUE(region == 1 || region == 2);
    }
}

TEST(Generator, GapMeanApproximatelyHonored)
{
    PatternSpec p;
    p.kind = PatternSpec::Kind::Loop;
    p.blocks = 128;
    p.gapMean = 6.0;
    double sum = 0.0;
    std::size_t n = 0;
    for (const TraceRecord &r : generateTrace(singlePattern(p, 50000))) {
        sum += r.nonMemGap;
        ++n;
    }
    EXPECT_NEAR(sum / static_cast<double>(n), 6.0, 0.5);
}

TEST(Generator, WriteFractionApproximatelyHonored)
{
    PatternSpec p;
    p.kind = PatternSpec::Kind::Loop;
    p.blocks = 128;
    p.writeFrac = 0.3;
    std::size_t writes = 0, n = 0;
    for (const TraceRecord &r : generateTrace(singlePattern(p, 50000))) {
        writes += r.isWrite ? 1 : 0;
        ++n;
    }
    EXPECT_NEAR(static_cast<double>(writes) / n, 0.3, 0.02);
}

TEST(GeneratorDeathTest, RejectsDegenerateSpecs)
{
    WorkloadSpec empty;
    empty.name = "empty";
    EXPECT_EXIT(generateTrace(empty), ::testing::ExitedWithCode(1),
                "no patterns");

    PatternSpec zero_blocks;
    zero_blocks.blocks = 0;
    EXPECT_EXIT(generateTrace(singlePattern(zero_blocks)),
                ::testing::ExitedWithCode(1), "0 blocks");

    PatternSpec bad_echo;
    bad_echo.kind = PatternSpec::Kind::Echo;
    bad_echo.blocks = 64;
    bad_echo.echoDistance = 64;
    EXPECT_EXIT(generateTrace(singlePattern(bad_echo)),
                ::testing::ExitedWithCode(1), "echo distance");
}

} // anonymous namespace
} // namespace nucache
