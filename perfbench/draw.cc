/**
 * @file
 * The seeded draws.  Everything a workload sends to the program comes
 * from here, from the seed alone; the program receives only workload
 * names and request lines.
 *
 * Mixes are stratified by behaviour class so that the draws of
 * different seeds load the simulator alike: the seed decides which
 * program of each class runs and who shares an LLC with whom, not the
 * shape of the mixes.  Per-seed figures then differ by co-scheduling,
 * not by which programs happened to be picked.
 */

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "serve/protocol.hh"
#include "sim/policies.hh"
#include "trace/workloads.hh"

namespace perfbench
{

namespace
{

/** splitmix64: a small, portable generator (the draw must not depend
 *  on the standard library's distribution algorithms). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** @return a value in [0, n). */
    std::size_t below(std::size_t n) { return next() % n; }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t state;
};

unsigned
fixedJobs()
{
    // Fixed at 4 so figures compare across commits; never more threads
    // than the machine has.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return std::min(4u, hw);
}

/**
 * One client connection fewer than workers: the server's event loop,
 * its dispatcher and the clients keep a hardware thread of their own.
 * On a 4-vCPU VM this cut the run-to-run spread of serve_exact from
 * about 0.17 to 0.11 against four connections.
 */
unsigned
serveConnections()
{
    return std::max(1u, fixedJobs() - 1);
}

/**
 * The catalog in eight behaviour classes (docs/WORKLOADS.md): LLC
 * thrashing loops, fitting loops, pointer chases, small working sets,
 * streams, Zipf, echo (the Next-Use signature) and mixed/phased.
 */
const std::vector<std::vector<std::string>> &
behaviourClasses()
{
    static const std::vector<std::vector<std::string>> classes = {
        {"loop_heavy", "loop_xl"},     {"loop_medium", "scan_loop"},
        {"chase_big", "chase_small"},  {"small_ws", "tiny_hot"},
        {"stream_pure", "stream_reuse"}, {"zipf_hot", "zipf_cold"},
        {"echo_near", "echo_far", "echo_bands"},
        {"mix_rw", "phase_shift"},
    };
    return classes;
}

/** Deals from a shuffled deck, reshuffling when it runs out. */
template <typename T>
class Deck
{
  public:
    explicit Deck(std::vector<T> cards) : cards(std::move(cards)) {}

    T
    deal(Rng &rng)
    {
        if (at == 0)
            rng.shuffle(cards);
        T card = cards[at];
        at = (at + 1) % cards.size();
        return card;
    }

  private:
    std::vector<T> cards;
    std::size_t at = 0;
};

/**
 * Draw mixes of the given core counts, stratified by behaviour class
 * so every mix has the same shape: an eight-core mix takes one
 * program of each class, a four-core mix one of each class pair
 * (loops, chase/small, stream/Zipf, echo/mixed), a two-core mix one
 * reuse-heavy and one streaming-or-echo program.  Decks spread the
 * picks evenly over classes and programs, so seeds differ in who
 * shares the LLC with whom, not in what is run.
 */
std::vector<std::vector<std::string>>
stratifiedMixes(Rng &rng, const std::vector<unsigned> &cores)
{
    for (const auto &cls : behaviourClasses())
        for (const auto &w : cls)
            if (!nucache::isWorkloadName(w))
                throw std::runtime_error("catalog has no workload '" + w +
                                         "'");
    std::vector<Deck<std::string>> members;
    for (const auto &cls : behaviourClasses())
        members.emplace_back(cls);
    std::map<unsigned, std::vector<Deck<std::size_t>>> groups;
    for (unsigned width : {2u, 4u, 8u}) {
        const std::size_t per = 8 / width;
        for (std::size_t g = 0; g < width; ++g) {
            std::vector<std::size_t> cls;
            for (std::size_t k = 0; k < per; ++k)
                cls.push_back(g * per + k);
            groups[width].emplace_back(cls);
        }
    }

    std::vector<std::vector<std::string>> out;
    for (unsigned c : cores) {
        auto it = groups.find(c);
        if (it == groups.end())
            throw std::invalid_argument("mixes are 2, 4 or 8 cores wide");
        std::vector<std::string> mix;
        for (auto &group : it->second)
            mix.push_back(members[group.deal(rng)].deal(rng));
        rng.shuffle(mix);
        out.push_back(std::move(mix));
    }
    return out;
}

/** The name the program gives an ad-hoc "workloads" mix. */
std::string
adhocName(const std::vector<std::string> &workloads)
{
    std::string name = "adhoc";
    for (const auto &w : workloads)
        name += ":" + w;
    return name;
}

Draw
drawGrid8(std::uint64_t seed)
{
    Draw d;
    d.records = 100'000;
    d.jobs = fixedJobs();
    std::vector<nucache::WorkloadMix> mixes;
    if (seed == 0) {
        mixes = nucache::eightCoreMixes();
    } else {
        Rng rng(seed);
        const auto drawn =
            stratifiedMixes(rng, std::vector<unsigned>(5, 8));
        for (std::size_t i = 0; i < drawn.size(); ++i)
            mixes.push_back({"g8_" + std::to_string(i + 1), drawn[i]});
    }
    for (const auto &mix : mixes)
        for (const auto &policy : nucache::evaluationPolicySet())
            d.requests.push_back({mix, policy, 0, 0, false});
    return d;
}

/**
 * The serve draws: 24 two-core and 24 four-core ad-hoc mixes in seeded
 * order.  Each mix runs under lru and nucache (so the NUcache gain is
 * measured on every mix) plus one of @p others, dealt out evenly.
 * Many mixes with few policies each keep the per-seed figures close
 * together; a full mix x policy cross would average over a handful of
 * co-schedules only.
 */
std::vector<std::pair<std::vector<std::string>, std::string>>
serveCells(Rng &rng, const std::vector<std::string> &others)
{
    std::vector<unsigned> cores(24, 2);
    cores.insert(cores.end(), 24, 4);
    auto mixes = stratifiedMixes(rng, cores);
    rng.shuffle(mixes);
    std::vector<std::string> dealt;
    while (dealt.size() < mixes.size())
        dealt.insert(dealt.end(), others.begin(), others.end());
    dealt.resize(mixes.size());
    rng.shuffle(dealt);
    std::vector<std::pair<std::vector<std::string>, std::string>> cells;
    for (std::size_t i = 0; i < mixes.size(); ++i)
        for (const std::string &p : {std::string("lru"),
                                     std::string("nucache"), dealt[i]})
            cells.emplace_back(mixes[i], p);
    return cells;
}

Draw
drawServeExact(std::uint64_t seed)
{
    Draw d;
    d.records = 50'000;
    d.jobs = fixedJobs();
    d.connections = serveConnections();
    Rng rng(seed ^ 0x5e7e0001ull);
    for (auto &[w, policy] : serveCells(rng, {"dip", "tadip", "ucp", "pipp"}))
        d.requests.push_back({{adhocName(w), w}, policy, 0, 0, false});
    return d;
}

Draw
drawServeEstimate(std::uint64_t seed)
{
    Draw d;
    d.records = 50'000;
    d.jobs = fixedJobs();
    d.connections = serveConnections();
    Rng rng(seed ^ 0xe5710002ull);
    // LLC geometries: capacity per core x associativity; every pair
    // gives a power-of-two set count at 2 and 4 cores.  Each mix is
    // asked about one of them, dealt evenly per core count.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> geometries;
    for (std::uint64_t kib : {512u, 1024u, 2048u})
        for (std::uint32_t ways : {16u, 32u})
            geometries.emplace_back(kib, ways);
    std::map<std::size_t, Deck<std::pair<std::uint64_t, std::uint32_t>>>
        decks;
    std::string last;
    std::pair<std::uint64_t, std::uint32_t> geo;
    for (auto &[w, policy] : serveCells(rng, {"nru", "ucp", "pipp"})) {
        const std::string name = adhocName(w);
        if (name != last)
            geo = decks.try_emplace(w.size(), geometries)
                      .first->second.deal(rng);
        last = name;
        d.requests.push_back({{name, w}, policy, geo.first * w.size(),
                              geo.second, true});
    }
    return d;
}

} // anonymous namespace

std::string
DrawnRequest::line(std::uint64_t id, std::uint64_t records) const
{
    Json params = Json::object();
    Json names = Json::array();
    for (const auto &w : mix.workloads)
        names.push(w);
    params["workloads"] = std::move(names);
    params["policy"] = policy;
    params["records"] = records;
    params["no_cache"] = true;
    if (estimate)
        params["mode"] = "estimate";
    if (llcKib != 0)
        params["llc_kib"] = llcKib;
    if (llcWays != 0)
        params["llc_ways"] = llcWays;
    Json doc = Json::object();
    doc["v"] = nucache::serve::kProtocolVersion;
    doc["id"] = id;
    doc["op"] = "run_mix";
    doc["params"] = std::move(params);
    return doc.str(0);
}

DrawnRequest
DrawnRequest::inMode(bool estimate_mode) const
{
    DrawnRequest r = *this;
    r.estimate = estimate_mode;
    return r;
}

std::string
DrawnRequest::key() const
{
    return mix.name + "|" + policy + "|" + std::to_string(llcKib) + "|" +
           std::to_string(llcWays) + (estimate ? "|est" : "|exact");
}

std::vector<std::string>
Draw::workloadNames() const
{
    std::set<std::string> seen;
    std::vector<std::string> out;
    for (const auto &r : requests)
        for (const auto &w : r.mix.workloads)
            if (seen.insert(w).second)
                out.push_back(w);
    return out;
}

std::vector<nucache::WorkloadMix>
Draw::mixes() const
{
    std::set<std::string> seen;
    std::vector<nucache::WorkloadMix> out;
    for (const auto &r : requests)
        if (seen.insert(r.mix.name).second)
            out.push_back(r.mix);
    return out;
}

Json
Draw::toJson() const
{
    Json j = Json::object();
    j["workload"] = workload;
    j["seed"] = seed;
    j["records_per_core"] = records;
    j["jobs"] = jobs;
    j["connections"] = connections;
    Json mixes_j = Json::array();
    for (const auto &m : mixes()) {
        Json mj = Json::object();
        mj["name"] = m.name;
        Json ws = Json::array();
        for (const auto &w : m.workloads)
            ws.push(w);
        mj["workloads"] = std::move(ws);
        mixes_j.push(std::move(mj));
    }
    j["mixes"] = std::move(mixes_j);
    Json lines = Json::array();
    for (std::size_t i = 0; i < requests.size(); ++i)
        lines.push(requests[i].line(i + 1, records));
    j["requests"] = std::move(lines);
    return j;
}

Draw
makeDraw(const std::string &workload, std::uint64_t seed)
{
    Draw d;
    if (workload == "grid8")
        d = drawGrid8(seed);
    else if (workload == "serve_exact")
        d = drawServeExact(seed);
    else if (workload == "serve_estimate")
        d = drawServeEstimate(seed);
    else
        throw std::invalid_argument("unknown workload '" + workload + "'");
    // Two drawn mixes can coincide; keep each request once.
    std::set<std::string> seen;
    std::vector<DrawnRequest> unique;
    for (auto &r : d.requests)
        if (seen.insert(r.key()).second)
            unique.push_back(std::move(r));
    d.requests = std::move(unique);
    d.workload = workload;
    d.seed = seed;
    return d;
}

nucache::HierarchyConfig
hierarchyOf(const DrawnRequest &req)
{
    nucache::serve::Request parsed;
    std::string err;
    if (!nucache::serve::parseRequest(req.line(1, 1'000), parsed, err))
        throw std::runtime_error("drawn request rejected: " + err);
    return nucache::serve::requestHierarchy(parsed);
}

} // namespace perfbench
