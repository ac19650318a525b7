#include "serve/service.hh"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdlib>

#include "check/check_mode.hh"
#include "model/predictor.hh"
#include "model/profile.hh"
#include "obs/telemetry.hh"
#include "sim/policies.hh"
#include "trace/arena.hh"
#include "trace/trace_io.hh"

namespace nucache::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * Distinct measurement windows kept warm at once.  Each window gets
 * its own RunEngine (the engine's run-alone cache is keyed per
 * engine); the least recently used engine beyond the cap is dropped.
 */
constexpr std::size_t kMaxEngines = 4;

/** @return elapsed ms since @p start. */
double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** @return the LLC/DRAM geometry of @p hier as a JSON object. */
Json
hierarchyJson(const HierarchyConfig &hier)
{
    Json h = Json::object();
    h["cores"] = hier.numCores;
    h["llc_bytes"] = hier.llc.sizeBytes;
    h["llc_ways"] = hier.llc.ways;
    h["block_bytes"] = hier.llc.blockSize;
    return h;
}

/** @return the run_mix result payload for @p res. */
Json
mixResultJson(const MixResult &res, std::uint64_t records,
              const HierarchyConfig &hier)
{
    Json c = Json::object();
    c["mix"] = res.mixName;
    c["policy"] = res.policy;
    c["records_per_core"] = records;
    c["hierarchy"] = hierarchyJson(hier);
    c["weighted_speedup"] = res.weightedSpeedup;
    c["hmean_speedup"] = res.hmeanSpeedup;
    c["antt"] = res.antt;
    c["fairness"] = res.fairness;
    std::uint64_t accesses = 0, misses = 0;
    Json cores = Json::array();
    for (std::size_t i = 0; i < res.system.cores.size(); ++i) {
        const auto &core = res.system.cores[i];
        Json cj = Json::object();
        cj["workload"] = core.workload;
        cj["ipc"] = core.ipc;
        if (i < res.ipcAlone.size())
            cj["ipc_alone"] = res.ipcAlone[i];
        cj["llc_accesses"] = core.llc.accesses;
        cj["llc_misses"] = core.llc.misses;
        accesses += core.llc.accesses;
        misses += core.llc.misses;
        cores.push(std::move(cj));
    }
    c["llc_accesses"] = accesses;
    c["llc_misses"] = misses;
    c["llc_writebacks"] = res.system.llcWritebacks;
    c["dram_reads"] = res.system.dramReads;
    c["cores"] = std::move(cores);
    return c;
}

/** The estimate-mode run_mix payload (mirrors mixResultJson). */
Json
estimateResultJson(const model::MixEstimate &est,
                   const WorkloadMix &mix, const std::string &policy,
                   std::uint64_t records, const HierarchyConfig &hier)
{
    Json c = Json::object();
    c["mix"] = mix.name;
    c["policy"] = policy;
    c["records_per_core"] = records;
    c["hierarchy"] = hierarchyJson(hier);
    c["estimated"] = true;
    c["model_version"] = model::kModelVersion;
    c["weighted_speedup"] = est.weightedSpeedup;
    c["hmean_speedup"] = est.hmeanSpeedup;
    c["antt"] = est.antt;
    c["fairness"] = est.fairness;
    double accesses = 0.0, misses = 0.0;
    Json cores = Json::array();
    for (const model::CoreEstimate &core : est.cores) {
        Json cj = Json::object();
        cj["workload"] = core.workload;
        cj["ipc"] = core.ipc;
        cj["ipc_alone"] = core.ipcAlone;
        cj["llc_accesses"] =
            static_cast<std::uint64_t>(core.llcAccesses + 0.5);
        cj["llc_misses"] =
            static_cast<std::uint64_t>(core.llcMisses + 0.5);
        cj["llc_hit_rate"] = core.hitRate;
        if (core.deliHitRate > 0.0)
            cj["deli_hit_rate"] = core.deliHitRate;
        accesses += core.llcAccesses;
        misses += core.llcMisses;
        cores.push(std::move(cj));
    }
    c["llc_accesses"] = static_cast<std::uint64_t>(accesses + 0.5);
    c["llc_misses"] = static_cast<std::uint64_t>(misses + 0.5);
    c["llc_hit_rate"] = est.llcHitRate;
    c["cores"] = std::move(cores);
    return c;
}

/** @return the canonical absolute form of @p path (symlinks and `..`
 *  resolved), or "" when it does not exist. */
std::string
resolvedPath(const std::string &path)
{
    char buf[PATH_MAX];
    return ::realpath(path.c_str(), buf) != nullptr ? buf : "";
}

/**
 * @return whether @p path resolves to an existing entry under the
 * working directory.  A wire client learns nothing about the file
 * system outside that directory: a missing file, a `..` escape and a
 * symlink pointing out all answer false.
 */
bool
underWorkingDir(const std::string &path)
{
    std::string root = resolvedPath(".");
    if (root.empty())
        return false;
    if (root.back() != '/')
        root += '/';
    return resolvedPath(path).compare(0, root.size(), root) == 0;
}

} // anonymous namespace

SimulationService::SimulationService(ServiceConfig config)
    : cfg(std::move(config))
{
    if (cfg.jobs == 0)
        cfg.jobs = 1;
}

std::shared_ptr<RunEngine>
SimulationService::engineFor(std::uint64_t records)
{
    std::lock_guard<std::mutex> lock(mtx);
    for (auto it = engines.begin(); it != engines.end(); ++it) {
        if (it->first == records) {
            engines.splice(engines.begin(), engines, it);
            ++stats.engineHits;
            return engines.front().second;
        }
    }
    // Requests run on the calling worker's thread, so the engine's
    // pool stays at one thread: it only holds the memoized run-alone
    // results.
    engines.emplace_front(
        records, std::make_shared<RunEngine>(
                     records, 1, cfg.check || check::enabled()));
    ++stats.enginesBuilt;
    while (engines.size() > kMaxEngines) {
        engines.pop_back();
        ++stats.enginesEvicted;
    }
    return engines.front().second;
}

bool
SimulationService::cacheLookup(const std::string &key, Json &result)
{
    if (key.empty() || cfg.resultCacheEntries == 0)
        return false;
    std::lock_guard<std::mutex> lock(mtx);
    const auto it = cache.find(key);
    if (it == cache.end()) {
        ++stats.cacheMisses;
        return false;
    }
    ++stats.cacheHits;
    cacheOrder.splice(cacheOrder.begin(), cacheOrder,
                      it->second.pos);
    result = it->second.result;
    return true;
}

bool
SimulationService::tryCached(const Request &req,
                             std::string &result_payload)
{
    if (cfg.resultCacheEntries == 0)
        return false;
    const std::string key = cacheKey(req, cfg.defaultRecords);
    if (key.empty())
        return false;
    std::lock_guard<std::mutex> lock(mtx);
    const auto it = cache.find(key);
    if (it == cache.end())
        return false;
    ++stats.cacheHits;
    cacheOrder.splice(cacheOrder.begin(), cacheOrder,
                      it->second.pos);
    result_payload = it->second.hitPayload;
    return true;
}

void
SimulationService::cacheStore(const std::string &key, const Json &result)
{
    if (key.empty() || cfg.resultCacheEntries == 0)
        return;
    // The hit payload is frozen here: serve-side hint counters inside
    // its server block (alone_runs, arena_materializations) reflect
    // store time, which cached responses are allowed to do.
    Json hit = result;
    attachServerInfo(hit, true, 0.0);
    std::string payload = hit.str(0);
    std::lock_guard<std::mutex> lock(mtx);
    if (cache.find(key) == cache.end()) {
        cacheOrder.push_front(key);
        cache.emplace(key, CacheEntry{result, std::move(payload),
                                      cacheOrder.begin()});
    }
    while (cache.size() > cfg.resultCacheEntries) {
        cache.erase(cacheOrder.back());
        cacheOrder.pop_back();
    }
}

Json
SimulationService::runMixResult(RunEngine &engine, const Request &req,
                                Json &telemetry)
{
    const HierarchyConfig hier = requestHierarchy(req);
    const MixResult res =
        engine.runMix(req.mix, req.policy, hier, req.telemetry);
    if (res.system.telemetry) {
        Json series = Json::array();
        series.push(res.system.telemetry->toJson());
        telemetry = obs::telemetryDocument(std::move(series));
    }
    return mixResultJson(res, engine.recordsPerCore(), hier);
}

Json
SimulationService::estimateResult(const Request &req,
                                  bool build_profiles)
{
    const std::uint64_t records =
        req.records != 0 ? req.records : cfg.defaultRecords;
    std::vector<model::ProfilePtr> profiles;
    profiles.reserve(req.mix.workloads.size());
    auto &store = model::ProfileStore::instance();
    for (const std::string &w : req.mix.workloads) {
        model::ProfilePtr p = build_profiles
                                  ? store.get(w, records)
                                  : store.peek(w, records);
        if (p == nullptr)
            return Json();
        profiles.push_back(std::move(p));
    }
    const HierarchyConfig hier = requestHierarchy(req);
    const model::MixEstimate est =
        model::estimateMix(profiles, hier, req.policy);
    return estimateResultJson(est, req.mix, req.policy, records,
                              hier);
}

bool
SimulationService::tryEstimate(const Request &req,
                               std::string &result_payload)
{
    if (req.op != Op::RunMix || req.mode != Mode::Estimate)
        return false;
    if (tryCached(req, result_payload))
        return true;
    const Clock::time_point start = Clock::now();
    Json result = estimateResult(req, /*build_profiles=*/false);
    if (result.isNull())
        return false;
    {
        std::lock_guard<std::mutex> lock(mtx);
        ++stats.runMix;
        ++stats.estimates;
        ++stats.estimatesInline;
    }
    cacheStore(cacheKey(req, cfg.defaultRecords), result);
    attachServerInfo(result, false, msSince(start));
    result_payload = result.str(0);
    return true;
}

Json
SimulationService::runTraceResult(const Request &req, std::string &err)
{
    std::vector<TraceSourcePtr> traces;
    std::uint64_t shortest = kMaxRecords;
    for (const auto &path : req.tracePaths) {
        if (!underWorkingDir(path)) {
            err = "trace '" + path + "' does not resolve to a file "
                  "under the server's working directory";
            return Json();
        }
        TraceParseResult parsed = tryLoadTraceFile(path);
        if (!parsed.ok) {
            err = parsed.error;
            return Json();
        }
        shortest = std::min(shortest,
                            std::uint64_t{parsed.records.size()});
        traces.push_back(
            std::make_unique<TraceSource>(path, std::move(parsed.records)));
    }

    const std::uint64_t records =
        req.records != 0 ? req.records : shortest;
    const HierarchyConfig hier = requestHierarchy(req);
    System sys(hier, makePolicy(req.policy), std::move(traces), records,
               cfg.check || check::enabled());
    const SystemResult res = sys.run();

    Json out = Json::object();
    out["policy"] = req.policy;
    out["records_per_core"] = records;
    out["hierarchy"] = hierarchyJson(hier);
    Json cores = Json::array();
    for (std::size_t c = 0; c < res.cores.size(); ++c) {
        Json cj = Json::object();
        cj["trace"] = req.tracePaths[c];
        cj["ipc"] = res.cores[c].ipc;
        cj["l1_miss_rate"] = res.cores[c].l1.missRate();
        cj["llc_miss_rate"] = res.cores[c].llc.missRate();
        cj["llc_accesses"] = res.cores[c].llc.accesses;
        cj["llc_misses"] = res.cores[c].llc.misses;
        cores.push(std::move(cj));
    }
    out["cores"] = std::move(cores);
    out["llc_writebacks"] = res.llcWritebacks;
    out["dram_reads"] = res.dramReads;
    out["dram_queue_cycles"] = res.dramQueueCycles;
    out["stats"] = sys.statsJson();
    return out;
}

void
SimulationService::executeBatch(const std::vector<Request> &batch,
                                const Emit &emit)
{
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Request &req = batch[i];
        const Clock::time_point start = Clock::now();
        const std::uint64_t records =
            req.records != 0 ? req.records : cfg.defaultRecords;
        if (req.op == Op::RunMix) {
            // Estimate tier: the analytical model, building any cold
            // workload profiles.  Exact tier: a synchronous run on the
            // window's engine, sampled when the request asks for
            // telemetry (such requests have no cache key).
            const bool estimate = req.mode == Mode::Estimate;
            {
                std::lock_guard<std::mutex> lock(mtx);
                ++stats.runMix;
                if (estimate)
                    ++stats.estimates;
                if (req.telemetry != 0)
                    ++stats.telemetryRuns;
            }
            const std::string key = cacheKey(req, cfg.defaultRecords);
            Json result, telemetry;
            if (cacheLookup(key, result)) {
                attachServerInfo(result, true, 0.0);
                emit(i, okResponse(req, std::move(result)));
                continue;
            }
            result = estimate
                         ? estimateResult(req, /*build_profiles=*/true)
                         : runMixResult(*engineFor(records), req,
                                        telemetry);
            cacheStore(key, result);
            attachServerInfo(result, false, msSince(start));
            if (req.telemetry != 0)
                result["telemetry"] = std::move(telemetry);
            emit(i, okResponse(req, std::move(result)));
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(mtx);
            ++stats.runTrace;
        }
        std::string err;
        Json result = runTraceResult(req, err);
        if (!err.empty()) {
            {
                std::lock_guard<std::mutex> lock(mtx);
                ++stats.failures;
            }
            emit(i, errorResponse(req, error::kBadRequest, err));
            continue;
        }
        attachServerInfo(result, false, msSince(start));
        emit(i, okResponse(req, std::move(result)));
    }
}

void
SimulationService::attachServerInfo(Json &result, bool cached,
                                    double wall_ms)
{
    Json s = Json::object();
    s["cached"] = cached;
    s["wall_ms"] = wall_ms;
    std::uint64_t alone = 0;
    {
        std::lock_guard<std::mutex> lock(mtx);
        for (const auto &[records, engine] : engines) {
            (void)records;
            alone += engine->aloneRunCount();
        }
    }
    s["alone_runs"] = alone;
    s["arena_materializations"] =
        TraceArena::instance().materializations();
    result["server"] = std::move(s);
}

SimulationService::Snapshot
SimulationService::snapshot() const
{
    std::lock_guard<std::mutex> lock(mtx);
    Snapshot snap;
    snap.counters = stats;
    snap.cacheEntries = cache.size();
    snap.engines = engines.size();
    for (const auto &[records, engine] : engines) {
        (void)records;
        snap.aloneRuns += engine->aloneRunCount();
    }
    return snap;
}

Json
SimulationService::statsJson(const Snapshot &snap) const
{
    const Counters &c = snap.counters;
    Json s = Json::object();
    s["run_mix"] = c.runMix;
    s["run_trace"] = c.runTrace;
    s["cache_hits"] = c.cacheHits;
    s["cache_misses"] = c.cacheMisses;
    s["cache_entries"] = snap.cacheEntries;
    s["telemetry_runs"] = c.telemetryRuns;
    s["estimates"] = c.estimates;
    s["estimates_inline"] = c.estimatesInline;
    s["engines"] = snap.engines;
    s["engine_hits"] = c.engineHits;
    s["engines_built"] = c.enginesBuilt;
    s["engines_evicted"] = c.enginesEvicted;
    s["failures"] = c.failures;
    s["alone_runs"] = snap.aloneRuns;
    s["jobs"] = cfg.jobs;
    s["default_records"] = cfg.defaultRecords;
    return s;
}

} // namespace nucache::serve
