/**
 * @file
 * The simulation service behind nucached: executes validated
 * nucache-rpc/v1 run requests on shared RunEngines, so served
 * traffic gets the same reuse machinery the bench layer has —
 * arena-materialized workload traces and the memoized run-alone IPC
 * cache — plus a server-side result cache that deterministic
 * simulation makes sound (equal request keys imply byte-equal
 * results).
 *
 * The service is transport-free (no sockets): the Server's shard
 * workers each hand it one admitted request at a time, and tests can
 * drive it directly.  executeBatch() runs on the calling thread and
 * may be called concurrently on one instance (one call per shard
 * worker); the Server runs one instance per engine shard
 * (`--serve-shards`).  A telemetry request's series is part of its
 * run's result (RunEngine::runMix with the request's interval), so
 * telemetry runs touch no process-wide state and overlap with any
 * other run; the memoized run-alone baselines are never sampled for
 * a request, and the document rides in the request's one response.
 * run_trace reads only files that resolve under the working
 * directory.  The stats accessors are thread-safe.
 */

#ifndef NUCACHE_SERVE_SERVICE_HH
#define NUCACHE_SERVE_SERVICE_HH

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hh"
#include "serve/protocol.hh"
#include "sim/run_engine.hh"

namespace nucache::serve
{

/** Tuning knobs of the simulation service. */
struct ServiceConfig
{
    /** Worker threads per shard, each running one request at a time
     *  (read by the Server; reported in the stats). */
    unsigned jobs = 1;
    /** Measurement window when a request omits "records". */
    std::uint64_t defaultRecords = 250'000;
    /** Result-cache capacity in responses (0 disables). */
    std::size_t resultCacheEntries = 256;
    /** Run every served simulation under the invariant checker. */
    bool check = false;
};

/** Executes admitted requests; see file comment. */
class SimulationService
{
  public:
    explicit SimulationService(ServiceConfig cfg);

    /**
     * Response sink: invoked exactly once per batch element with its
     * index and the complete (final) response envelope, on the
     * calling thread, in element order.
     */
    using Emit = std::function<void(std::size_t, Json)>;

    /**
     * Execute admitted requests one after another on the calling
     * thread (the Server's workers pass one each).  Every element
     * must be a run_mix / run_trace request.  A run_mix with
     * telemetry attaches `{"schema": "nucache-telemetry/v1",
     * "series": [<the mix run's series>]}` to its one response.
     * Returns once every response has been emitted.
     */
    void executeBatch(const std::vector<Request> &batch,
                      const Emit &emit);

    /**
     * Lock-briefly fast path for the server's event loop: when @p req
     * is a cacheable run_mix whose result is already in the result
     * cache, copies the pre-serialized hit payload (the result JSON
     * with its server block marked cached, frozen at store time) into
     * @p result_payload and returns true.  A miss is free — it is not
     * counted (the worker's authoritative lookup will count it)
     * and touches no engine, so warm traffic can be answered inline
     * without the queue → worker → wake round trip, and without
     * re-serializing the result per hit.
     */
    bool tryCached(const Request &req, std::string &result_payload);

    /**
     * Inline fast path for estimate-mode requests: answers from the
     * result cache when the estimate is already cached, else — when
     * every workload profile the request needs is warm in the
     * process-wide ProfileStore — evaluates the analytical model
     * right here (pure arithmetic, tens of microseconds) and caches
     * the response.  Returns false without blocking when a profile
     * is cold; the worker path then builds it.  Safe on the
     * event-loop thread: never builds a System.
     */
    bool tryEstimate(const Request &req, std::string &result_payload);

    /** Request and cache counters (guarded by mtx). */
    struct Counters
    {
        std::uint64_t runMix = 0;
        std::uint64_t runTrace = 0;
        std::uint64_t cacheHits = 0;
        std::uint64_t cacheMisses = 0;
        std::uint64_t telemetryRuns = 0;
        std::uint64_t estimates = 0;
        std::uint64_t estimatesInline = 0;
        std::uint64_t engineHits = 0;
        std::uint64_t enginesBuilt = 0;
        std::uint64_t enginesEvicted = 0;
        std::uint64_t failures = 0;
    };

    /** The counters plus the cache/engine gauges, read together. */
    struct Snapshot
    {
        Counters counters;
        std::uint64_t cacheEntries = 0;
        std::uint64_t engines = 0;
        std::uint64_t aloneRuns = 0;
    };

    /** @return a consistent snapshot, taken under one lock. */
    Snapshot snapshot() const;

    /** @return @p snap rendered as a JSON object (the `service`
     *  member of this shard's metrics row). */
    Json statsJson(const Snapshot &snap) const;

    /** @return the measurement window for requests that omit it. */
    std::uint64_t defaultRecords() const { return cfg.defaultRecords; }

  private:
    /**
     * @return the warm engine for @p records, creating it and
     * evicting the least recently used one beyond kMaxEngines.  An
     * evicted engine lives on until its last running request ends.
     */
    std::shared_ptr<RunEngine> engineFor(std::uint64_t records);

    /**
     * Execute one exact run_mix request synchronously on @p engine.
     * When the request asks for telemetry, @p telemetry receives the
     * run's nucache-telemetry/v1 document.
     */
    Json runMixResult(RunEngine &engine, const Request &req,
                      Json &telemetry);

    /** Execute one run_trace request on the calling thread. */
    Json runTraceResult(const Request &req, std::string &err);

    /**
     * Evaluate one estimate-mode run_mix.  @p build_profiles selects
     * the blocking path (worker: cold profiles are collected,
     * one pass per workload) or the non-blocking one (event loop:
     * returns an empty Json when any profile is cold).
     */
    Json estimateResult(const Request &req, bool build_profiles);

    /** Append the "server" block (cache/reuse hints). */
    void attachServerInfo(Json &result, bool cached, double wall_ms);

    /** Look up @p key in the result cache (empty key misses). */
    bool cacheLookup(const std::string &key, Json &result);

    /** Insert @p result under @p key (LRU eviction at capacity). */
    void cacheStore(const std::string &key, const Json &result);

    ServiceConfig cfg;

    mutable std::mutex mtx;
    /** Engines keyed by measurement window, newest-used first. */
    std::list<std::pair<std::uint64_t, std::shared_ptr<RunEngine>>>
        engines;
    /** One cached result plus its pre-serialized hit payload. */
    struct CacheEntry
    {
        Json result;
        /** result serialized with a cached=true server block, built
         *  once at store time for the event loop's fast path. */
        std::string hitPayload;
        /** This entry's position in cacheOrder (O(1) LRU touch). */
        std::list<std::string>::iterator pos;
    };
    /** Result cache: canonical request key -> entry. */
    std::map<std::string, CacheEntry> cache;
    /** Cache keys, most recently used first (LRU order). */
    std::list<std::string> cacheOrder;

    Counters stats;
};

} // namespace nucache::serve

#endif // NUCACHE_SERVE_SERVICE_HH
