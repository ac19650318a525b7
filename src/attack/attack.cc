#include "attack/attack.hh"

#include <unordered_set>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "mem/lru.hh"

namespace nucache
{

namespace
{

/** Block size assumed by the attack generators (bytes). */
constexpr std::uint64_t kBlock = 64;
/** First block index of the random conflict-pool region. */
constexpr std::uint64_t kPoolBase = 1ull << 20;
/** Block span of the conflict-pool region (256 MiB of addresses). */
constexpr std::uint64_t kPoolSpan = 1ull << 22;

constexpr char kPrefix[] = "attack:";
constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;

/** @return @p v parsed as decimal into @p out (strict, no empties). */
bool
parseDecimal(const std::string &v, std::uint64_t &out)
{
    if (v.empty())
        return false;
    out = 0;
    for (const char c : v) {
        if (c < '0' || c > '9')
            return false;
        out = out * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return true;
}

/**
 * Synthesizes one attack campaign into a record vector, replaying
 * every emitted access through a model of the target cache (geometry,
 * defense, LRU) that doubles as the attacker's idealized side channel.
 */
class Campaign
{
  public:
    Campaign(const AttackSpec &spec, std::vector<TraceRecord> &out)
        : spec(spec), out(out),
          model(attackTargetConfig(spec), std::make_unique<LruPolicy>(),
                1),
          rng(spec.seed * 0x9e3779b97f4a7c15ull + 0xa77acull),
          victim(spec.victimAddr())
    {
        out.clear();
        out.reserve(spec.length);
    }

    void
    run()
    {
        if (spec.scenario == AttackScenario::EvictionSet)
            evset();
        else
            storm();
    }

  private:
    bool full() const { return out.size() >= spec.length; }

    /**
     * Emit one attacker access and apply it to the model.
     * @return whether the access hit in the model (the attacker can
     * observe this for its own loads — that is the side channel).
     */
    bool
    emit(Addr addr, PC pc)
    {
        TraceRecord rec;
        rec.pc = pc;
        rec.addr = addr;
        out.push_back(rec);
        AccessInfo info;
        info.addr = addr;
        info.pc = pc;
        info.coreId = 0;
        return model.access(info).hit;
    }

    /**
     * Prime the victim and walk @p cand, then consult the idealized
     * side channel: did the walk evict the victim?  All traffic is
     * emitted (it advances the target's remap clock exactly as a real
     * attacker's probes would).
     */
    bool
    evicts(const std::vector<Addr> &cand)
    {
        if (full())
            return false;
        emit(victim, kAttackSearchPc);
        for (const Addr a : cand) {
            if (full())
                return false;
            emit(a, kAttackProbePc);
        }
        return !model.probe(victim);
    }

    /** @return a fresh random block address from the pool region. */
    Addr
    poolAddr()
    {
        return (kPoolBase + rng.below(kPoolSpan)) * kBlock;
    }

    /**
     * Group-elimination eviction-set search (Vila et al.): grow a
     * random conflict pool until it evicts the victim, then repeatedly
     * drop one of W+1 groups while the remainder still evicts, down to
     * a minimal set of W addresses.  Returns empty when the budget ran
     * out or the side channel went stale mid-search (a dynamic remap
     * invalidates the pool's observed congruence — the caller simply
     * retries, which is exactly the economics the defense banks on).
     */
    std::vector<Addr>
    search()
    {
        const std::size_t w = spec.ways;
        std::vector<Addr> pool;
        std::unordered_set<Addr> seen;
        // 2*sets*ways random blocks hold ~2W congruent with the victim
        // — enough to evict it with high probability on the first try.
        const std::size_t initial = 2ull * spec.sets * w;
        const std::size_t cap = 2 * initial;
        const auto grow_to = [&](std::size_t n) {
            while (pool.size() < n) {
                const Addr a = poolAddr();
                if (seen.insert(a).second)
                    pool.push_back(a);
            }
        };
        grow_to(initial);
        while (!evicts(pool)) {
            if (full() || pool.size() >= cap)
                return {};
            grow_to(std::min(cap, pool.size() + initial / 2));
        }

        while (pool.size() > w && !full()) {
            const std::size_t groups = w + 1;
            bool reduced = false;
            for (std::size_t g = 0; g < groups && !reduced && !full();
                 ++g) {
                const std::size_t lo = g * pool.size() / groups;
                const std::size_t hi = (g + 1) * pool.size() / groups;
                if (lo == hi)
                    continue;
                std::vector<Addr> cand;
                cand.reserve(pool.size() - (hi - lo));
                for (std::size_t i = 0; i < pool.size(); ++i)
                    if (i < lo || i >= hi)
                        cand.push_back(pool[i]);
                if (evicts(cand)) {
                    pool.swap(cand);
                    reduced = true;
                }
            }
            if (!reduced)
                return {};
        }
        if (full() || pool.size() > w)
            return {};
        // Final validation under the *current* key.
        if (!evicts(pool))
            return {};
        return pool;
    }

    void
    evset()
    {
        std::vector<Addr> set;
        if (!spec.defense.enabled()) {
            // Plain indexing: congruence is address arithmetic.  The
            // stride sets*blockSize preserves the set bits and bumps
            // the tag.
            for (std::uint32_t i = 1; i <= spec.ways; ++i)
                set.push_back(victim +
                              static_cast<Addr>(i) * spec.sets * kBlock);
        }
        int fail_streak = 0;
        bool warm = false;
        while (!full()) {
            if (set.empty()) {
                set = search();
                fail_streak = 0;
                warm = false;
                continue;
            }
            // The first round after a (re)search only primes the
            // victim (unmeasured): its hit/miss reflects search
            // traffic, not the eviction set under test.
            emit(victim, warm ? kAttackVictimPc : kAttackSearchPc);
            warm = true;
            for (const Addr a : set) {
                if (full())
                    break;
                emit(a, kAttackProbePc);
            }
            if (full())
                break;
            // The attacker observes success through its next victim
            // load; track it here off the model (same information).
            if (model.probe(victim)) {
                if (++fail_streak >= 3 && spec.defense.enabled()) {
                    set.clear();
                }
            } else {
                fail_streak = 0;
            }
        }
    }

    void
    storm()
    {
        // Flood `targets` sets (the victim's among them, in the
        // undefended view) with rotating tags: per round each stormed
        // set sees ways distinct tags — a guaranteed LRU eviction when
        // the index is plain, a scattered drizzle when it is
        // scrambled.
        const std::uint32_t targets = 4;
        const std::uint64_t burst =
            static_cast<std::uint64_t>(targets) * spec.ways;
        const std::uint64_t tag_window = 4ull * spec.ways;
        std::uint64_t rot = 0;
        bool warm = false;
        while (!full()) {
            emit(victim, warm ? kAttackVictimPc : kAttackSearchPc);
            warm = true;
            for (std::uint64_t b = 0; b < burst && !full(); ++b) {
                const std::uint64_t s = b % targets;
                const Addr a = ((rot % tag_window + 1) * spec.sets + s) *
                    kBlock;
                emit(a, kAttackProbePc);
                if (s == targets - 1)
                    ++rot;
            }
        }
    }

    const AttackSpec &spec;
    std::vector<TraceRecord> &out;
    Cache model;
    Rng rng;
    const Addr victim;
};

} // anonymous namespace

bool
isAttackName(const std::string &name)
{
    return name.rfind(kPrefix, 0) == 0;
}

bool
tryParseAttackSpec(const std::string &name, AttackSpec &out,
                   std::string &err)
{
    out = AttackSpec{};
    out.name = name;
    if (!isAttackName(name)) {
        err = "not an attack workload name (no 'attack:' prefix)";
        return false;
    }
    const std::string rest = name.substr(kPrefixLen);
    std::string scenario = rest;
    std::string params;
    const std::size_t colon = rest.find(':');
    if (colon != std::string::npos) {
        scenario = rest.substr(0, colon);
        params = rest.substr(colon + 1);
    }
    if (scenario == "evset") {
        out.scenario = AttackScenario::EvictionSet;
    } else if (scenario == "storm") {
        out.scenario = AttackScenario::ConflictStorm;
    } else {
        err = "unknown attack scenario '" + scenario +
            "' (expected evset or storm)";
        return false;
    }

    std::string def_name = "none";
    std::uint64_t def_key = IndexDefenseConfig{}.key;
    bool key_given = false;
    std::uint64_t def_period = IndexDefenseConfig{}.period;
    bool period_given = false;

    std::size_t pos = 0;
    while (pos < params.size()) {
        std::size_t end = params.find(',', pos);
        if (end == std::string::npos)
            end = params.size();
        const std::string pair = params.substr(pos, end - pos);
        pos = end + 1;
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= pair.size()) {
            err = "malformed attack parameter '" + pair +
                "' (expected key=value)";
            return false;
        }
        const std::string k = pair.substr(0, eq);
        const std::string v = pair.substr(eq + 1);
        if (k == "def") {
            if (v != "none" && v != "rand" && v != "rand-dynamic") {
                err = "unknown defense '" + v +
                    "' (expected none, rand or rand-dynamic)";
                return false;
            }
            def_name = v;
            continue;
        }
        std::uint64_t value = 0;
        if (!parseDecimal(v, value)) {
            err = "attack parameter '" + k +
                "' needs a decimal value, got '" + v + "'";
            return false;
        }
        if (k == "sets") {
            if (value < 2 || value > (1u << 20) ||
                (value & (value - 1)) != 0) {
                err = "sets must be a power of two in [2, 2^20]";
                return false;
            }
            out.sets = static_cast<std::uint32_t>(value);
        } else if (k == "ways") {
            if (value == 0 || value > 64) {
                err = "ways must be in [1, 64]";
                return false;
            }
            out.ways = static_cast<std::uint32_t>(value);
        } else if (k == "key") {
            def_key = value;
            key_given = true;
        } else if (k == "period") {
            if (value == 0) {
                err = "period must be nonzero";
                return false;
            }
            def_period = value;
            period_given = true;
        } else if (k == "seed") {
            out.seed = value;
        } else {
            err = "unknown attack parameter '" + k + "'";
            return false;
        }
    }

    if (def_name == "none") {
        if (key_given || period_given) {
            err = "key/period require def=rand or def=rand-dynamic";
            return false;
        }
        out.defense.kind = IndexDefenseKind::None;
    } else if (def_name == "rand") {
        if (period_given) {
            err = "period requires def=rand-dynamic";
            return false;
        }
        out.defense.kind = IndexDefenseKind::Rand;
        out.defense.key = def_key;
    } else {
        out.defense.kind = IndexDefenseKind::RandDynamic;
        out.defense.key = def_key;
        out.defense.period = def_period;
    }
    return true;
}

AttackSpec
parseAttackSpec(const std::string &name)
{
    AttackSpec spec;
    std::string err;
    if (!tryParseAttackSpec(name, spec, err))
        fatal("attack workload '", name, "': ", err);
    return spec;
}

CacheConfig
attackTargetConfig(const AttackSpec &spec)
{
    CacheConfig cfg;
    cfg.name = "attack-target";
    cfg.sizeBytes = static_cast<std::uint64_t>(spec.sets) * spec.ways *
        kBlock;
    cfg.ways = spec.ways;
    cfg.blockSize = static_cast<std::uint32_t>(kBlock);
    cfg.defense = spec.defense.enabled() ? spec.defense.spec() : "";
    return cfg;
}

std::vector<TraceRecord>
makeAttackTrace(const std::string &name, std::uint64_t length_override)
{
    AttackSpec spec = parseAttackSpec(name);
    if (length_override != 0)
        spec.length = length_override;
    std::vector<TraceRecord> records;
    Campaign(spec, records).run();
    return records;
}

} // namespace nucache
