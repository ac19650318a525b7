/**
 * @file
 * Memory-access trace records and the one trace cursor.
 *
 * A trace is the unit of workload in this simulator: a stream of memory
 * references annotated with the issuing static instruction (PC) and the
 * number of non-memory instructions executed since the previous
 * reference (used by the timing model).
 *
 * Every producer (the synthetic generator, the attack campaigns, the
 * trace-file loaders) builds a std::vector<TraceRecord>; a trace is a
 * name plus that vector, immutable and shared.  TraceSource is the one
 * concrete cursor that replays it.
 */

#ifndef NUCACHE_TRACE_TRACE_HH
#define NUCACHE_TRACE_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace nucache
{

/** One memory reference in a workload trace. */
struct TraceRecord
{
    /** Program counter of the static load/store. */
    PC pc = 0;
    /** Byte address referenced. */
    Addr addr = 0;
    /** Non-memory instructions since the previous record (CPI=1 each). */
    std::uint32_t nonMemGap = 0;
    /** True for stores, false for loads. */
    bool isWrite = false;
};

/** One full pass of a trace, immutable and shared between cursors. */
using TraceBuffer = std::shared_ptr<const std::vector<TraceRecord>>;

/**
 * Index cursor over a shared trace buffer.
 *
 * Cheap to construct per run; reset() rewinds so multiprogrammed runs
 * can wrap a finished workload around (the standard first-wrap
 * methodology), and two passes are identical because the buffer is
 * immutable.
 */
class TraceSource
{
  public:
    TraceSource(std::string name, TraceBuffer records)
        : traceName(std::move(name)), buf(std::move(records))
    {
    }

    TraceSource(std::string name, std::vector<TraceRecord> records)
        : TraceSource(std::move(name),
                      std::make_shared<const std::vector<TraceRecord>>(
                          std::move(records)))
    {
    }

    /**
     * Produce the next record.
     * @param rec output record, valid only when true is returned.
     * @retval true a record was produced.
     * @retval false the trace is exhausted (reset() to replay).
     */
    bool
    next(TraceRecord &rec)
    {
        if (pos >= buf->size())
            return false;
        rec = (*buf)[pos++];
        return true;
    }

    /** Rewind to the beginning of the stream. */
    void reset() { pos = 0; }

    /** @return a short human-readable workload name. */
    const std::string &name() const { return traceName; }

    /** @return the whole record stream, for in-place replay. */
    const std::vector<TraceRecord> &records() const { return *buf; }

  private:
    std::string traceName;
    TraceBuffer buf;
    std::size_t pos = 0;
};

/** Owning handle for trace cursors. */
using TraceSourcePtr = std::unique_ptr<TraceSource>;

} // namespace nucache

#endif // NUCACHE_TRACE_TRACE_HH
