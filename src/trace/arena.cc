#include "trace/arena.hh"

#include <sstream>
#include <utility>

#include "obs/tracer.hh"
#include "trace/workloads.hh"

namespace nucache
{

TraceArena &
TraceArena::instance()
{
    static TraceArena arena;
    return arena;
}

TraceArena::Buffer
TraceArena::get(const std::string &name, std::uint64_t length_override)
{
    std::ostringstream key_os;
    key_os << name << "/" << length_override;
    const std::string key = key_os.str();

    std::promise<Buffer> promise;
    std::shared_future<Buffer> future;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mtx);
        const auto it = buffers.find(key);
        if (it != buffers.end()) {
            future = it->second;
        } else {
            // First requester materializes; racers block on the
            // shared future (same once-semantics as the RunEngine's
            // run-alone IPC cache).
            future = promise.get_future().share();
            buffers.emplace(key, future);
            owner = true;
        }
    }
    if (!owner)
        return future.get();

    obs::TraceSpan span(obs::Tracer::active() ? "materialize " + key
                                              : std::string(),
                        "arena");

    // workloadRecords() fatal()s on unknown names before any state is
    // published beyond the pending future, matching makeWorkload().
    // The vector is moved into the buffer, never copied.
    Buffer buffer = std::make_shared<const std::vector<TraceRecord>>(
        workloadRecords(name, length_override));
    built.fetch_add(1, std::memory_order_relaxed);
    promise.set_value(buffer);
    return buffer;
}

TraceSourcePtr
TraceArena::open(const std::string &name, std::uint64_t length_override)
{
    return std::make_unique<TraceSource>(name, get(name, length_override));
}

void
TraceArena::clear()
{
    std::lock_guard<std::mutex> lock(mtx);
    buffers.clear();
}

} // namespace nucache
