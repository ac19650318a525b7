#include "sim/cpu.hh"

#include "common/logging.hh"

namespace nucache
{

TraceCpu::TraceCpu(CoreId core, TraceSourcePtr source,
                   MemoryHierarchy *hierarchy,
                   std::uint64_t target_records)
    : coreId(core), trace(std::move(source)), hier(hierarchy),
      target(target_records)
{
    if (!trace)
        fatal("TraceCpu ", core, ": no trace source");
    records = &trace->records();
    if (records->empty())
        fatal("TraceCpu ", core, ": workload '", trace->name(),
              "' is empty");
    if (!hier)
        fatal("TraceCpu ", core, ": no hierarchy");
    if (target == 0)
        fatal("TraceCpu ", core, ": zero target records");
    // Generators use < 2^33 of address space; 2^38 spacing is ample.
    addrOffset = static_cast<Addr>(core) << 38;
    pcTag = static_cast<PC>(core) << 48;
}

void
TraceCpu::step()
{
    if (pos == records->size()) {
        pos = 0;
        ++wrapCount;
    }
    const TraceRecord &rec = (*records)[pos++];

    // Non-memory instructions retire at CPI 1.
    clock += rec.nonMemGap;
    instructions += rec.nonMemGap + 1;

    const Cycles latency = hier->access(coreId, rec.addr + addrOffset,
                                        rec.pc | pcTag, rec.isWrite,
                                        clock);
    clock += latency;

    ++replayed;
    if (replayed == target) {
        frozenInstr = instructions;
        frozenCycles = clock;
    }
}

double
TraceCpu::ipc() const
{
    if (frozenCycles == 0)
        return 0.0;
    return static_cast<double>(frozenInstr) /
           static_cast<double>(frozenCycles);
}

} // namespace nucache
