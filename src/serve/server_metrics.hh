/**
 * @file
 * The server observability plane behind nucached's `metrics` op.
 *
 * Every request line the server parses carries a ReqTrace: a handful
 * of steady_clock stamps taken as it moves parse → admission queue →
 * dispatch → execution → outbound buffer → socket.  The trace is
 * finalized exactly once, when the last byte of the response crosses
 * the socket (Server tracks a flush watermark per response), and
 * finalization fans the phase durations into:
 *  - relaxed-atomic log2 latency histograms (obs::LatencyHistogram),
 *    one per request class plus one per phase — the scrape path
 *    merges and renders them, serving threads never lock;
 *  - the bounded slow-request sample log (top-K by total latency,
 *    with per-phase breakdown) retrievable over the `metrics` op;
 *  - the per-thread ring-buffer Tracer (obs/tracer.hh) when
 *    `--trace-out` is armed, so a nucached run yields a Chrome trace
 *    of real traffic with one span per request and per phase.
 *
 * Recording is gated by obs::serveMetricsEnabled() (on by default;
 * bench_throughput's serve_loopback A/B flips it to prove the plane
 * costs nothing beyond noise).  Every served request, telemetry
 * runs included, is one response line with one flush instant, so
 * every request is traced.
 */

#ifndef NUCACHE_SERVE_SERVER_METRICS_HH
#define NUCACHE_SERVE_SERVER_METRICS_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/json.hh"
#include "obs/metrics.hh"

namespace nucache::serve
{

/** How a request was answered; the label of its latency series. */
enum class RequestClass : unsigned
{
    /** Result-cache hit answered inline on the event loop. */
    CacheHit,
    /** Analytical-model answer evaluated inline (warm profiles). */
    EstimateInline,
    /** Exact simulation through a shard worker. */
    Exact,
    /** Analytical-model answer through a shard worker. */
    Estimate,
    /** run_trace through a shard worker. */
    Trace,
    /** health / metrics / shutdown, answered inline. */
    Control,
    /** Any error response (bad_request, overload, deadline, ...). */
    Error,
    Count,
};

/** @return the wire label of @p cls ("cache_hit", "exact", ...). */
const char *requestClassName(RequestClass cls);

/** Phase stamps of one request, parse to flush.  Default-constructed
 *  time_points mean "phase never happened" (e.g. inline answers are
 *  never enqueued). */
struct ReqTrace
{
    using Clock = std::chrono::steady_clock;
    static constexpr std::uint32_t kNoShard = 0xffffffffu;

    RequestClass cls = RequestClass::Control;
    /** Whether stamps are being taken (serveMetricsEnabled() at
     *  parse time); a dead trace is never finalized. */
    bool live = false;
    /** Dispatch shard, kNoShard for inline answers. */
    std::uint32_t shard = kNoShard;

    Clock::time_point parsed{};
    Clock::time_point enqueued{};
    Clock::time_point dispatched{};
    Clock::time_point executed{};
    /** When the response entered the connection's outbound path. */
    Clock::time_point queued{};
};

/**
 * Bounded top-K sample of the slowest finalized requests, with phase
 * breakdown.  offer() is called per request: a relaxed atomic floor
 * (the smallest total in a full log) rejects the common case without
 * taking the mutex, so steady fast traffic pays one load + branch.
 */
class SlowRequestLog
{
  public:
    static constexpr std::size_t kCapacity = 16;

    struct Entry
    {
        RequestClass cls = RequestClass::Control;
        std::uint64_t totalNs = 0;
        std::uint64_t queueNs = 0;
        std::uint64_t executeNs = 0;
        std::uint64_t flushNs = 0;
    };

    /** Admit @p entry if it ranks among the slowest kCapacity. */
    void offer(const Entry &entry);

    /** @return the log as a JSON array, slowest first. */
    Json json() const;

  private:
    /** Smallest total in the log once full (admission floor). */
    std::atomic<std::uint64_t> floorNs{0};
    mutable std::mutex mtx;
    /** Sorted descending by totalNs (guarded by mtx). */
    std::vector<Entry> entries;
};

/** Per-shard dispatch metrics (owned by the Server's Shard). */
struct ShardMetrics
{
    /** Deepest admission queue seen (guarded by the shard's mtx,
     *  updated at admission). */
    std::uint64_t queueDepthHwm = 0;
    /** Requests popped by this shard's workers. */
    std::atomic<std::uint64_t> dispatched{0};
    obs::LatencyHistogram queueWaitUs;
    obs::LatencyHistogram executeUs;
};

/** Process-wide server metrics (owned by the Server). */
struct ServerMetrics
{
    /** Total request latency (parse → flush) by request class. */
    std::array<obs::LatencyHistogram,
               static_cast<std::size_t>(RequestClass::Count)>
        classTotalUs;
    /** Phase latencies across all classes. */
    obs::LatencyHistogram queueWaitUs;
    obs::LatencyHistogram executeUs;
    obs::LatencyHistogram flushUs;
    /** Bytes currently queued toward sockets (slots + out buffers),
     *  and the high-water mark. */
    std::atomic<std::uint64_t> outboundBytes{0};
    std::atomic<std::uint64_t> outboundHwmBytes{0};
    /** `metrics` op scrape count. */
    std::atomic<std::uint64_t> scrapes{0};
    SlowRequestLog slowLog;

    /** Account @p bytes entering a connection's outbound path. */
    void
    outboundAdd(std::uint64_t bytes)
    {
        const std::uint64_t now =
            outboundBytes.fetch_add(bytes,
                                    std::memory_order_relaxed) +
            bytes;
        obs::atomicMax(outboundHwmBytes, now);
    }

    /** Account @p bytes leaving (sent or dropped with the conn). */
    void
    outboundSub(std::uint64_t bytes)
    {
        outboundBytes.fetch_sub(bytes, std::memory_order_relaxed);
    }

    /**
     * Finalize @p trace at @p flushed (its last byte hit the
     * socket): record the class/phase histograms — and the per-shard
     * ones when @p shard is non-null — offer the slow log, and emit
     * Tracer spans when tracing is armed.
     */
    void finalize(const ReqTrace &trace,
                  ReqTrace::Clock::time_point flushed,
                  ShardMetrics *shard);
};

/**
 * @return the Prometheus text exposition (format version 0.0.4) of a
 * nucache-metrics/v1 document: counters and gauges from the server /
 * process / cache blocks, cumulative-bucket histograms from the
 * request-class and phase series, and per-shard queue gauges.
 * Tolerates missing blocks (renders what is present).
 */
std::string prometheusText(const Json &metrics);

} // namespace nucache::serve

#endif // NUCACHE_SERVE_SERVER_METRICS_HH
