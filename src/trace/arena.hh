/**
 * @file
 * The shared trace arena: each named workload trace is materialized
 * exactly once per process into an immutable record buffer, and every
 * consumer replays it through a TraceSource cursor.
 *
 * Motivation: a (mix x policy) experiment grid replays the same
 * handful of workloads in every cell, and regenerating the synthetic
 * stream (RNG draws, pattern scheduling) per cell dominates cell
 * setup cost.  The arena moves generation out of the per-cell path
 * the same way the RunEngine's run-alone IPC cache moves baseline
 * simulation out of it: per-key once-semantics on a shared future, so
 * concurrent requests for one workload block on the first
 * materializer instead of duplicating the work.
 *
 * Lifetime: buffers live in a process-wide singleton for the rest of
 * the process and are handed out as shared_ptr-to-const, so cursors
 * stay valid even across a clear().  A buffer holds exactly the
 * records workloadRecords() produces, which is what keeps engine
 * output byte-identical to an uncached makeWorkload().
 */

#ifndef NUCACHE_TRACE_ARENA_HH
#define NUCACHE_TRACE_ARENA_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <string>

#include "trace/trace.hh"

namespace nucache
{

/** Process-wide cache of materialized workload traces. */
class TraceArena
{
  public:
    /** One materialized pass of a workload, immutable and shared. */
    using Buffer = TraceBuffer;

    /** @return the process-wide arena. */
    static TraceArena &instance();

    /**
     * @return the full record stream of workload @p name (one trace
     * pass), materializing it on first request.  Thread-safe with
     * once-semantics: concurrent first requests materialize once.
     * @param length_override forwarded to workloadRecords(); part of
     *        the cache key.
     */
    Buffer get(const std::string &name,
               std::uint64_t length_override = 0);

    /**
     * @return a TraceSource cursor replaying the shared buffer of
     * workload @p name; record-for-record identical to
     * makeWorkload(name, length_override).
     */
    TraceSourcePtr open(const std::string &name,
                        std::uint64_t length_override = 0);

    /** @return distinct (workload, length) buffers materialized. */
    std::uint64_t materializations() const
    {
        return built.load(std::memory_order_relaxed);
    }

    /**
     * Drop the cached buffers (tests).  Outstanding Buffer handles
     * and cursors stay valid; the materialization counter is kept.
     */
    void clear();

  private:
    TraceArena() = default;

    mutable std::mutex mtx;
    std::map<std::string, std::shared_future<Buffer>> buffers;
    std::atomic<std::uint64_t> built{0};
};

/** The arena cursor's older name, still used by perfbench/. */
using ArenaCursor = TraceSource;

} // namespace nucache

#endif // NUCACHE_TRACE_ARENA_HH
