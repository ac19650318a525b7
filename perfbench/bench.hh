/**
 * @file
 * Shared declarations of the repository benchmark driver.
 *
 * The driver measures the simulator from the outside: it calls the
 * program's public entry points (RunEngine::runGrid, an in-process
 * serve::Server spoken to over loopback in nucache-rpc/v1, and the
 * model behind mode:"estimate") and, in the traced run, each layer's
 * public functions.  It changes no program code; every span it
 * records sits around a call made from these files.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/net.hh"
#include "mem/hierarchy.hh"
#include "sim/mixes.hh"
#include "sim/system.hh"

namespace nucache::serve
{
class Server;
}

namespace perfbench
{

using nucache::Json;

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans ("" = nowhere). */
    std::string spansPath;
};

/** @return steady-clock nanoseconds (the engine's GridCell clock). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Keep a timed computation's result from being optimized away. */
inline void
keepAlive(const void *p)
{
    asm volatile("" : : "r"(p) : "memory");
}

/** @return seconds since @p start_ns. */
inline double
secondsSince(std::uint64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

// ---------------------------------------------------------------- draw

/** One drawn run_mix request: the unit every workload is made of. */
struct DrawnRequest
{
    nucache::WorkloadMix mix;
    std::string policy;
    /** LLC geometry overrides; 0 keeps the default for the core count. */
    std::uint64_t llcKib = 0;
    std::uint32_t llcWays = 0;
    bool estimate = false;

    /**
     * @return the request as one nucache-rpc/v1 line with no_cache
     * set, so every request is computed rather than recalled.
     */
    std::string line(std::uint64_t id, std::uint64_t records) const;

    /** @return the same request, exact or estimated. */
    DrawnRequest inMode(bool estimate_mode) const;

    /** @return a key naming the (mix, policy, geometry) cell. */
    std::string key() const;
};

/** The inputs of one workload, made from the seed alone. */
struct Draw
{
    std::string workload;
    std::uint64_t seed = 0;
    /** Measurement window per core of every simulation and profile. */
    std::uint64_t records = 0;
    /** RunEngine / service worker threads. */
    unsigned jobs = 1;
    /** Client connections of the serve workloads (0 for grid8). */
    unsigned connections = 0;
    /** Every distinct request, in draw order. */
    std::vector<DrawnRequest> requests;

    /** @return the distinct workload names the draw uses. */
    std::vector<std::string> workloadNames() const;
    /** @return the distinct mixes, in first-use order. */
    std::vector<nucache::WorkloadMix> mixes() const;
    Json toJson() const;
};

/** @return the draw of @p workload for @p seed; throws on bad names. */
Draw makeDraw(const std::string &workload, std::uint64_t seed);

/** @return the hierarchy the program derives for @p req. */
nucache::HierarchyConfig hierarchyOf(const DrawnRequest &req);

// --------------------------------------------------------------- spans

/**
 * In-memory span recorder.  Spans are appended under a mutex and
 * written once, when the run ends; a disabled recorder records
 * nothing.  Spans of one grid cell, request or layer call share a
 * trace id.
 */
class Spans
{
  public:
    struct Span
    {
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        std::uint64_t traceId = 0;
        std::string layer;
        std::string name;
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
    };

    /** @return the process-wide recorder. */
    static Spans &instance();

    void enable(bool on) { enabled = on; }
    bool on() const { return enabled; }

    /** @return a fresh trace id. */
    std::uint64_t newTrace();

    /** @return a fresh span id (0 when disabled). */
    std::uint64_t newId();

    /**
     * Record a finished span under id @p id (0 = assign one).
     * @return its id (0 when disabled), usable as a parent.
     */
    std::uint64_t add(const std::string &layer, const std::string &name,
                      std::uint64_t trace_id, std::uint64_t parent,
                      std::uint64_t start_ns, std::uint64_t end_ns,
                      std::uint64_t id = 0);

    /**
     * @return per-layer totals: spans, summed duration and summed
     * self time (span minus the union of its child spans), seconds.
     */
    Json layerSummary() const;

    /** Write every span as JSON to @p path; @return success. */
    bool write(const std::string &path) const;

  private:
    bool enabled = false;
    mutable std::mutex mtx;
    std::vector<Span> spans;
    std::uint64_t nextId = 1;
    std::uint64_t nextTrace = 1;
};

/** RAII span around a call into one layer. */
class SpanScope
{
  public:
    SpanScope(std::string layer, std::string name,
              std::uint64_t trace_id = 0, std::uint64_t parent = 0);
    ~SpanScope();
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** @return the id children name as their parent. */
    std::uint64_t id() const { return spanId; }
    std::uint64_t trace() const { return traceId; }

  private:
    std::string layerName;
    std::string spanName;
    std::uint64_t traceId;
    std::uint64_t parentId;
    std::uint64_t startNs;
    std::uint64_t spanId;
};

// ------------------------------------------------------------- results

/** A metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/** What one measurement reports. */
struct Outcome
{
    Metrics metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Output-check failures; empty means every check passed. */
    std::vector<std::string> errors;
    /** Digest of the simulated statistics (hex). */
    std::string digest;
    /** Anything else worth keeping in the report. */
    Json detail = Json::object();
};

/** @return the @p q-quantile (nearest rank) of @p v; sorts @p v. */
double quantile(std::vector<double> &v, double q);

/** @return the median of @p v. */
double median(std::vector<double> v);

/** @return the per-core LLC hit rates of a finished run. */
std::vector<double> llcHitRates(const nucache::SystemResult &sys);

/** @return the process's peak resident set (VmHWM) in MiB. */
double peakRssMiB();

/** 64-bit FNV-1a, chained through @p h. */
std::uint64_t fnv1a(const std::string &s,
                    std::uint64_t h = 1469598103934665603ull);

/** @return @p h as 16 hex digits. */
std::string hex(std::uint64_t h);

// ------------------------------------------------------------ loopback

/** A blocking nucache-rpc/v1 client over one loopback connection. */
class Client
{
  public:
    explicit Client(std::uint16_t port);
    ~Client();
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    bool send(const std::string &line);
    bool recv(std::string &line);

    /** @return the round-trip seconds of @p line; throws unless ok. */
    double call(const std::string &line);

  private:
    int fd = -1;
    std::unique_ptr<nucache::net::LineReader> reader;
};

/** @return a started one-shard server configured for @p draw. */
std::unique_ptr<nucache::serve::Server> startServer(const Draw &draw);

// ------------------------------------------------------------ workloads

/**
 * Run the untraced end-to-end measurement of @p draw.  With
 * @p traced set, the same loop records spans (the traced run's copy,
 * compared against the untraced one for the tracing overhead).
 */
Outcome runEndToEnd(const Draw &draw, const Options &opt, bool traced);

/** Run every layer driver over @p draw's inputs (the traced run). */
Outcome runLayers(const Draw &draw);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
