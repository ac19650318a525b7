#include "sim/policies.hh"

#include <algorithm>
#include <map>

#include "common/logging.hh"
#include "core/nucache.hh"
#include "mem/lru.hh"
#include "policy/dip.hh"
#include "policy/hawkeye.hh"
#include "policy/nru.hh"
#include "policy/pipp.hh"
#include "policy/random.hh"
#include "policy/rrip.hh"
#include "policy/ship.hh"
#include "policy/ucp.hh"

namespace nucache
{

namespace
{

/** One option a policy accepts, with its valid range. */
struct OptionRange
{
    const char *key;
    std::uint64_t min;
    std::uint64_t max;
};

/** Largest option value: 15 digits, so parsing cannot overflow. */
constexpr std::uint64_t kMaxOptionValue = 999'999'999'999'999;

/** Cap on NUcache's per-core monitor and selection table sizes. */
constexpr std::uint64_t kMaxTableEntries = 1 << 16;

/** @return the options policy @p name accepts; null if unknown. */
const std::vector<OptionRange> *
optionsOf(const std::string &name)
{
    static const std::vector<OptionRange> none;
    static const std::vector<OptionRange> nucache = {
        {"d", 0, 63},
        {"epoch", 1, kMaxOptionValue},
        {"topk", 0, kMaxTableEntries},
        {"pool", 0, kMaxTableEntries},
        {"maxsel", 0, kMaxTableEntries},
        {"board", 1, kMaxTableEntries},
        {"shift", 0, 31},
    };
    static const std::vector<OptionRange> epoch = {
        {"epoch", 1, kMaxOptionValue}};
    static const std::vector<OptionRange> ship = {{"shct", 1, 24}};
    static const std::vector<OptionRange> hawkeye = {{"shift", 0, 31}};

    const auto &names = allPolicyNames();
    if (std::find(names.begin(), names.end(), name) == names.end())
        return nullptr;
    if (name.rfind("nucache", 0) == 0)
        return &nucache;
    if (name == "ucp" || name == "pipp")
        return &epoch;
    if (name == "ship")
        return &ship;
    if (name == "hawkeye")
        return &hawkeye;
    return &none;
}

std::uint64_t
intOpt(const std::map<std::string, std::uint64_t> &opts,
       const std::string &key, std::uint64_t def)
{
    const auto it = opts.find(key);
    return it == opts.end() ? def : it->second;
}

NUcacheConfig
nucacheConfigFrom(const std::map<std::string, std::uint64_t> &opts,
                  NUcacheConfig::Selection mode)
{
    NUcacheConfig cfg;
    cfg.selection = mode;
    cfg.deliWays = static_cast<std::uint32_t>(intOpt(opts, "d", 0));
    cfg.epochMisses = intOpt(opts, "epoch", cfg.epochMisses);
    cfg.topK = static_cast<std::uint32_t>(intOpt(opts, "topk", cfg.topK));
    cfg.selector.candidatePcs = static_cast<std::uint32_t>(
        intOpt(opts, "pool", cfg.selector.candidatePcs));
    cfg.selector.maxSelected = static_cast<std::uint32_t>(
        intOpt(opts, "maxsel", cfg.selector.maxSelected));
    cfg.monitor.boardEntries = static_cast<std::uint32_t>(
        intOpt(opts, "board", cfg.monitor.boardEntries));
    cfg.monitor.sampleShift =
        static_cast<unsigned>(intOpt(opts, "shift",
                                     cfg.monitor.sampleShift));
    return cfg;
}

} // anonymous namespace

bool
parsePolicySpec(const std::string &spec, PolicySpec &out,
                std::string &err, std::uint32_t llc_ways,
                std::uint32_t cores)
{
    const auto colon = spec.find(':');
    out = PolicySpec{};
    out.name = spec.substr(0, colon);
    const std::vector<OptionRange> *ranges = optionsOf(out.name);
    if (ranges == nullptr) {
        err = "unknown policy '" + out.name + "'";
        return false;
    }
    const auto fail = [&](const std::string &what) {
        err = "policy spec '" + spec + "': " + what;
        return false;
    };

    const std::string rest =
        colon == std::string::npos ? std::string() : spec.substr(colon + 1);
    for (std::size_t pos = 0; colon != std::string::npos;) {
        const auto comma = rest.find(',', pos);
        const std::string item =
            rest.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        const auto eq = item.find('=');
        if (eq == std::string::npos || eq == 0)
            return fail("bad option '" + item + "'");
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        const auto range =
            std::find_if(ranges->begin(), ranges->end(),
                         [&](const OptionRange &r) { return key == r.key; });
        if (range == ranges->end())
            return fail("unknown option '" + key + "' for " + out.name);
        // Digits only, and short enough that std::stoull cannot throw.
        if (value.empty() || value.size() > 15 ||
            value.find_first_not_of("0123456789") != std::string::npos)
            return fail("bad value '" + value + "'");
        const std::uint64_t v = std::stoull(value);
        if (v < range->min || v > range->max) {
            return fail(key + "=" + value + " is outside [" +
                        std::to_string(range->min) + ", " +
                        std::to_string(range->max) + "]");
        }
        out.options[key] = v;
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }

    // The constructors' geometry checks, when the geometry is known.
    if (llc_ways == 0 || cores == 0)
        return true;
    if ((out.name == "ucp" || out.name == "pipp") && llc_ways < cores) {
        return fail("needs at least one LLC way per core (" +
                    std::to_string(llc_ways) + " ways, " +
                    std::to_string(cores) + " cores)");
    }
    if (const std::uint64_t d = intOpt(out.options, "d", 0);
        d >= llc_ways) {
        return fail("d=" + std::to_string(d) +
                    " DeliWays leaves no MainWays in a " +
                    std::to_string(llc_ways) + "-way LLC");
    }
    return true;
}

std::unique_ptr<ReplacementPolicy>
makePolicy(const std::string &spec)
{
    PolicySpec parsed;
    std::string err;
    if (!parsePolicySpec(spec, parsed, err))
        fatal(err);
    const std::string &name = parsed.name;
    const auto &opts = parsed.options;

    if (name == "lru")
        return std::make_unique<LruPolicy>();
    if (name == "random")
        return std::make_unique<RandomPolicy>();
    if (name == "nru")
        return std::make_unique<NruPolicy>();
    if (name == "srrip")
        return std::make_unique<SrripPolicy>();
    if (name == "brrip")
        return std::make_unique<BrripPolicy>();
    if (name == "drrip")
        return std::make_unique<DrripPolicy>();
    if (name == "lip")
        return std::make_unique<LipPolicy>();
    if (name == "dip")
        return std::make_unique<DipPolicy>();
    if (name == "tadip")
        return std::make_unique<TadipPolicy>();
    if (name == "tadrrip")
        return std::make_unique<TaDrripPolicy>();
    if (name == "hawkeye") {
        HawkeyeConfig cfg;
        cfg.sampleShift = static_cast<unsigned>(
            intOpt(opts, "shift", cfg.sampleShift));
        return std::make_unique<HawkeyePolicy>(cfg);
    }
    if (name == "ship") {
        ShipConfig cfg;
        cfg.shctLogSize = static_cast<unsigned>(
            intOpt(opts, "shct", cfg.shctLogSize));
        return std::make_unique<ShipPolicy>(cfg);
    }
    if (name == "ucp") {
        UcpConfig cfg;
        cfg.epochAccesses = intOpt(opts, "epoch", cfg.epochAccesses);
        return std::make_unique<UcpPolicy>(cfg);
    }
    if (name == "pipp") {
        PippConfig cfg;
        cfg.epochAccesses = intOpt(opts, "epoch", cfg.epochAccesses);
        return std::make_unique<PippPolicy>(cfg);
    }
    if (name == "nucache") {
        return std::make_unique<NUcachePolicy>(
            nucacheConfigFrom(opts, NUcacheConfig::Selection::CostBenefit));
    }
    if (name == "nucache-adaptive") {
        NUcacheConfig cfg = nucacheConfigFrom(
            opts, NUcacheConfig::Selection::CostBenefit);
        cfg.adaptiveDeli = true;
        return std::make_unique<NUcachePolicy>(cfg);
    }
    if (name == "nucache-topk") {
        return std::make_unique<NUcachePolicy>(
            nucacheConfigFrom(opts, NUcacheConfig::Selection::TopK));
    }
    if (name == "nucache-all") {
        return std::make_unique<NUcachePolicy>(
            nucacheConfigFrom(opts, NUcacheConfig::Selection::All));
    }
    if (name == "nucache-none") {
        return std::make_unique<NUcachePolicy>(
            nucacheConfigFrom(opts, NUcacheConfig::Selection::None));
    }
    fatal("unknown policy '", name, "'");
}

const std::vector<std::string> &
evaluationPolicySet()
{
    static const std::vector<std::string> set = {
        "lru", "dip", "tadip", "ucp", "pipp", "nucache",
    };
    return set;
}

const std::vector<std::string> &
allPolicyNames()
{
    static const std::vector<std::string> names = {
        "lru",  "random", "nru",  "lip",     "srrip",   "brrip",
        "drrip", "tadrrip", "dip", "tadip",  "ship",    "hawkeye",
        "ucp",  "pipp",
        "nucache", "nucache-adaptive", "nucache-topk", "nucache-all",
        "nucache-none",
    };
    return names;
}

} // namespace nucache
