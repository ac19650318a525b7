/**
 * @file
 * Trace-replay core model.
 *
 * In-order, blocking: a record's non-memory instructions retire at
 * CPI 1, then the memory access stalls for the latency the hierarchy
 * reports.  Coarse, but monotone in hit rate — which is what policy
 * comparisons need (see DESIGN.md, Substitutions).
 *
 * The CPU also disambiguates its workload's address and PC spaces from
 * other cores': traces are single-program, so core c's addresses get a
 * private-region offset and its PCs a core tag, the moral equivalent
 * of distinct virtual address spaces.
 */

#ifndef NUCACHE_SIM_CPU_HH
#define NUCACHE_SIM_CPU_HH

#include <memory>
#include <vector>

#include "mem/hierarchy.hh"
#include "trace/trace.hh"

namespace nucache
{

/** One trace-replay core. */
class TraceCpu
{
  public:
    /**
     * @param core      core id within the system.
     * @param source    workload trace (ownership taken); fatal() when
     *                  it holds no records.
     * @param hierarchy shared memory hierarchy (not owned).
     * @param target_records records after which stats freeze; the core
     *        keeps running (wrapping its trace) to maintain pressure.
     */
    TraceCpu(CoreId core, TraceSourcePtr source,
             MemoryHierarchy *hierarchy, std::uint64_t target_records);

    /** Replay one record (wraps the trace when exhausted). */
    void step();

    /** @return the core's local clock. */
    Cycles now() const { return clock; }

    /** @return true once target_records records have been replayed. */
    bool done() const { return replayed >= target; }

    /** @return instructions retired when the target was reached. */
    std::uint64_t instructionsAtTarget() const { return frozenInstr; }

    /** @return cycles elapsed when the target was reached. */
    Cycles cyclesAtTarget() const { return frozenCycles; }

    /** @return IPC over the measured window; 0 before completion. */
    double ipc() const;

    /** @return records replayed so far (including past the target). */
    std::uint64_t recordsReplayed() const { return replayed; }

    /** @return times the trace wrapped around. */
    std::uint64_t wraps() const { return wrapCount; }

    /** @return the core id. */
    CoreId id() const { return coreId; }

    /** @return the workload name. */
    const std::string &workloadName() const { return trace->name(); }

  private:
    CoreId coreId;
    TraceSourcePtr trace;
    /** The trace's records, read in place; immutable while it lives. */
    const std::vector<TraceRecord> *records = nullptr;
    /** Index of the next record in *records. */
    std::size_t pos = 0;
    MemoryHierarchy *hier;
    std::uint64_t target;

    Cycles clock = 0;
    std::uint64_t instructions = 0;
    std::uint64_t replayed = 0;
    std::uint64_t wrapCount = 0;
    std::uint64_t frozenInstr = 0;
    Cycles frozenCycles = 0;

    /** Per-core offset separating workloads' address spaces. */
    Addr addrOffset;
    /** Per-core tag separating workloads' PC spaces. */
    PC pcTag;
};

} // namespace nucache

#endif // NUCACHE_SIM_CPU_HH
