/**
 * @file
 * Tests for the adversarial traffic suite: attack-spec parsing, the
 * randomized-index defense layer, generator determinism, and the
 * contract the CI robustness lane gates on — the defense measurably
 * reduces eviction-set attack success.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "attack/attack.hh"
#include "mem/cache.hh"
#include "mem/lru.hh"
#include "mem/rand_index.hh"
#include "sim/experiment.hh"
#include "sim/policies.hh"
#include "trace/workloads.hh"

namespace nucache
{
namespace
{

// ---- defense spec grammar ------------------------------------------

TEST(IndexDefense, ParsesTheFamily)
{
    IndexDefenseConfig cfg;
    std::string err;
    EXPECT_TRUE(tryParseIndexDefense("", cfg, err));
    EXPECT_FALSE(cfg.enabled());
    EXPECT_TRUE(tryParseIndexDefense("none", cfg, err));
    EXPECT_FALSE(cfg.enabled());

    EXPECT_TRUE(tryParseIndexDefense("rand", cfg, err));
    EXPECT_EQ(cfg.kind, IndexDefenseKind::Rand);
    EXPECT_TRUE(tryParseIndexDefense("rand:key=42", cfg, err));
    EXPECT_EQ(cfg.key, 42u);

    EXPECT_TRUE(
        tryParseIndexDefense("rand-dynamic:key=7,period=500", cfg, err));
    EXPECT_EQ(cfg.kind, IndexDefenseKind::RandDynamic);
    EXPECT_EQ(cfg.key, 7u);
    EXPECT_EQ(cfg.period, 500u);
}

TEST(IndexDefense, SpecRoundTrips)
{
    for (const std::string spec :
         {"none", "rand:key=42", "rand-dynamic:key=7,period=500"}) {
        IndexDefenseConfig cfg;
        std::string err;
        ASSERT_TRUE(tryParseIndexDefense(spec, cfg, err)) << err;
        EXPECT_EQ(cfg.spec(), spec);
        IndexDefenseConfig again;
        ASSERT_TRUE(tryParseIndexDefense(cfg.spec(), again, err));
        EXPECT_EQ(again.spec(), cfg.spec());
    }
}

TEST(IndexDefense, RejectsMalformedSpecs)
{
    IndexDefenseConfig cfg;
    std::string err;
    EXPECT_FALSE(tryParseIndexDefense("ceaser", cfg, err));
    EXPECT_FALSE(tryParseIndexDefense("none:key=1", cfg, err));
    EXPECT_FALSE(tryParseIndexDefense("rand:period=5", cfg, err));
    EXPECT_FALSE(tryParseIndexDefense("rand-dynamic:period=0", cfg, err));
    EXPECT_FALSE(tryParseIndexDefense("rand:key=beef", cfg, err));
    EXPECT_FALSE(tryParseIndexDefense("rand:key", cfg, err));
    EXPECT_FALSE(tryParseIndexDefense("rand:=5", cfg, err));
    EXPECT_FALSE(tryParseIndexDefense("rand:bogus=5", cfg, err));
    EXPECT_FALSE(err.empty());
}

TEST(IndexDefense, ScrambleIsDeterministicAndInRange)
{
    for (const std::uint32_t sets : {64u, 256u, 4096u}) {
        for (Addr tag = 0; tag < 2000; ++tag) {
            const std::uint32_t s = scrambleIndex(tag, 0x1234, sets);
            EXPECT_LT(s, sets);
            EXPECT_EQ(s, scrambleIndex(tag, 0x1234, sets));
        }
    }
    // Different keys give different permutations (on some tag).
    bool differs = false;
    for (Addr tag = 0; tag < 64 && !differs; ++tag)
        differs = scrambleIndex(tag, 1, 1024) != scrambleIndex(tag, 2, 1024);
    EXPECT_TRUE(differs);
}

TEST(IndexDefense, EpochKeysDiffer)
{
    const std::uint64_t master = IndexDefenseConfig{}.key;
    EXPECT_NE(epochKeyOf(master, 0), epochKeyOf(master, 1));
    EXPECT_NE(epochKeyOf(master, 1), epochKeyOf(master, 2));
    EXPECT_EQ(epochKeyOf(master, 5), epochKeyOf(master, 5));
}

// ---- the defense inside Cache --------------------------------------

TEST(DefendedCache, ScramblesTheIndex)
{
    CacheConfig cfg{"t", 64 * 64 * 8, 8, 64};
    cfg.defense = "rand:key=99";
    const Cache plain(CacheConfig{"t", 64 * 64 * 8, 8, 64},
                      std::make_unique<LruPolicy>(), 1);
    const Cache defended(cfg, std::make_unique<LruPolicy>(), 1);
    bool moved = false;
    for (Addr a = 0; a < 64 * 64; a += 64) {
        EXPECT_LT(defended.setIndexOf(a), 64u);
        if (defended.setIndexOf(a) != plain.setIndexOf(a))
            moved = true;
    }
    EXPECT_TRUE(moved);
}

TEST(DefendedCache, DynamicRemapFlushesAndCounts)
{
    CacheConfig cfg{"t", 64 * 64 * 8, 8, 64};
    cfg.defense = "rand-dynamic:key=5,period=100";
    Cache cache(cfg, std::make_unique<LruPolicy>(), 1);

    AccessInfo info;
    info.addr = 0x1000;
    info.isWrite = true;
    cache.access(info);
    EXPECT_TRUE(cache.probe(0x1000));
    EXPECT_EQ(cache.defenseRemaps(), 0u);

    // Drive past the period: the epoch turns over, every line (the
    // dirty one included — counted as a write-back) is flushed.
    for (Addr a = 0; a < 200; ++a) {
        AccessInfo other;
        other.addr = 0x100000 + a * 64;
        cache.access(other);
    }
    EXPECT_GE(cache.defenseRemaps(), 1u);
    EXPECT_FALSE(cache.probe(0x1000));
    EXPECT_GE(cache.writebacks(), 1u);
}

TEST(DefendedCache, RemapTellsThePolicy)
{
    // PIPP's invariant checker requires rank metadata to be wiped with
    // the lines (see ReplacementPolicy::onFlushAll); run a defended
    // cache under every stock policy with invariants hot.
    for (const std::string policy : {"lru", "nru", "ucp", "pipp",
                                     "nucache"}) {
        CacheConfig cfg{"t", 64 * 64 * 8, 8, 64};
        cfg.defense = "rand-dynamic:key=5,period=64";
        Cache cache(cfg, makePolicy(policy), 2);
        for (Addr a = 0; a < 400; ++a) {
            AccessInfo info;
            info.addr = (a % 160) * 64;
            info.pc = 0x100 + (a % 7) * 8;
            info.coreId = static_cast<CoreId>(a % 2);
            info.isWrite = (a % 5) == 0;
            cache.access(info);
            std::string why;
            for (std::uint32_t s = 0; s < cache.numSets(); ++s) {
                ASSERT_TRUE(cache.policy().checkInvariants(
                    cache.viewSet(s), why))
                    << policy << ": " << why;
            }
        }
        EXPECT_GE(cache.defenseRemaps(), 4u) << policy;
    }
}

// ---- attack-spec grammar -------------------------------------------

TEST(AttackSpec, ParsesNamesAndDefaults)
{
    EXPECT_TRUE(isAttackName("attack:evset"));
    EXPECT_TRUE(isAttackName("attack:junk"));
    EXPECT_FALSE(isAttackName("zipf_hot"));

    const AttackSpec evset = parseAttackSpec("attack:evset");
    EXPECT_EQ(evset.scenario, AttackScenario::EvictionSet);
    EXPECT_EQ(evset.sets, 256u);
    EXPECT_EQ(evset.ways, 8u);
    EXPECT_FALSE(evset.defense.enabled());

    const AttackSpec full = parseAttackSpec(
        "attack:storm:sets=1024,ways=16,def=rand-dynamic,key=3,"
        "period=777,seed=9");
    EXPECT_EQ(full.scenario, AttackScenario::ConflictStorm);
    EXPECT_EQ(full.sets, 1024u);
    EXPECT_EQ(full.ways, 16u);
    EXPECT_EQ(full.defense.kind, IndexDefenseKind::RandDynamic);
    EXPECT_EQ(full.defense.key, 3u);
    EXPECT_EQ(full.defense.period, 777u);
    EXPECT_EQ(full.seed, 9u);
}

TEST(AttackSpec, RejectsMalformedNames)
{
    AttackSpec spec;
    std::string err;
    EXPECT_FALSE(tryParseAttackSpec("zipf_hot", spec, err));
    EXPECT_FALSE(tryParseAttackSpec("attack:", spec, err));
    EXPECT_FALSE(tryParseAttackSpec("attack:rowhammer", spec, err));
    EXPECT_FALSE(tryParseAttackSpec("attack:evset:sets=3", spec, err));
    EXPECT_FALSE(tryParseAttackSpec("attack:evset:ways=65", spec, err));
    EXPECT_FALSE(tryParseAttackSpec("attack:evset:key=1", spec, err));
    EXPECT_FALSE(
        tryParseAttackSpec("attack:evset:def=rand,period=5", spec, err));
    EXPECT_FALSE(
        tryParseAttackSpec("attack:evset:def=ceaser", spec, err));
    EXPECT_FALSE(tryParseAttackSpec("attack:evset:sets", spec, err));
    EXPECT_FALSE(tryParseAttackSpec("attack:evset:seed=x", spec, err));
    EXPECT_FALSE(err.empty());
}

TEST(AttackSpec, DispatchesThroughTheWorkloadLayer)
{
    EXPECT_TRUE(isWorkloadName("attack:evset"));
    EXPECT_TRUE(isWorkloadName("attack:storm:def=rand"));
    // Malformed attack names are "not a workload", never fatal — the
    // server's request validation depends on this.
    EXPECT_FALSE(isWorkloadName("attack:bogus"));
    EXPECT_FALSE(isWorkloadName("attack:evset:def=hope"));

    const TraceSourcePtr trace = makeWorkload("attack:evset:seed=4", 5000);
    EXPECT_EQ(trace->name(), "attack:evset:seed=4");
    EXPECT_EQ(trace->records().size(), 5000u);
}

// ---- generator contracts -------------------------------------------

std::vector<TraceRecord>
drain(TraceSource &src)
{
    std::vector<TraceRecord> recs;
    TraceRecord rec;
    while (src.next(rec))
        recs.push_back(rec);
    return recs;
}

bool
sameStream(const std::vector<TraceRecord> &a,
           const std::vector<TraceRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].addr != b[i].addr || a[i].pc != b[i].pc ||
            a[i].isWrite != b[i].isWrite)
            return false;
    }
    return true;
}

TEST(AttackTrace, DeterministicAndResettable)
{
    for (const std::string name :
         {"attack:evset", "attack:evset:def=rand-dynamic",
          "attack:storm"}) {
        const TraceSourcePtr one = makeWorkload(name, 20'000);
        const TraceSourcePtr two = makeWorkload(name, 20'000);
        const std::vector<TraceRecord> first = drain(*one);
        EXPECT_EQ(first.size(), 20'000u) << name;
        EXPECT_TRUE(sameStream(first, drain(*two))) << name;
        one->reset();
        EXPECT_TRUE(sameStream(first, drain(*one))) << name;
        EXPECT_EQ(one->name(), name);
    }
}

TEST(AttackTrace, SeedChangesDefendedCampaigns)
{
    // The defended search is randomized; different seeds must explore
    // different pools (the benches rely on seed as the variation knob).
    EXPECT_FALSE(
        sameStream(makeAttackTrace("attack:evset:def=rand,seed=1", 10'000),
                   makeAttackTrace("attack:evset:def=rand,seed=2", 10'000)));
}

/** Replay @p name against its own target; @return evictions per access. */
double
attackRate(const std::string &name, std::uint64_t records)
{
    const AttackSpec spec = parseAttackSpec(name);
    Cache target(attackTargetConfig(spec),
                 std::make_unique<LruPolicy>(), 1);
    std::uint64_t accesses = 0, evictions = 0;
    for (const TraceRecord &rec : makeAttackTrace(name, records)) {
        AccessInfo info;
        info.addr = rec.addr;
        info.pc = rec.pc;
        const bool hit = target.access(info).hit;
        ++accesses;
        if (rec.pc == kAttackVictimPc && !hit)
            ++evictions;
    }
    return accesses == 0
               ? 0.0
               : static_cast<double>(evictions) /
                     static_cast<double>(accesses);
}

TEST(AttackTrace, DefenseReducesEvictionSetSuccess)
{
    // The acceptance gate in miniature: per-access attack success
    // under the dynamic defense strictly below the plain index (the
    // full-size version runs in bench_attack).
    const double plain = attackRate("attack:evset", 60'000);
    const double defended =
        attackRate("attack:evset:def=rand-dynamic", 60'000);
    EXPECT_GT(plain, 0.05);
    EXPECT_LT(defended, plain);
}

TEST(AttackTrace, StormDefeatedByStaticScrambling)
{
    const double plain = attackRate("attack:storm", 40'000);
    const double defended = attackRate("attack:storm:def=rand", 40'000);
    EXPECT_GT(plain, 0.01);
    EXPECT_LT(defended, plain / 4.0);
}

} // anonymous namespace
} // namespace nucache
