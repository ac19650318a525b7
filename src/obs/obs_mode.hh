/**
 * @file
 * Batch telemetry mode, the process-wide switch of the observability
 * layer (src/obs/).
 *
 * Mirrors check/check_mode.hh: off by default and raised by the
 * `--telemetry` flag of the benches and run_trace (and by tests).
 * While it is on, every System that is not given its own interval
 * samples at this one and also publishes its series to the
 * TelemetryHub.  A caller that wants one run's series passes the
 * interval to that System or RunEngine::runMix instead and reads the
 * series from the result; nucached works that way and never sets
 * this mode.  With telemetry off the run loop pays one null-pointer
 * branch per record.
 */

#ifndef NUCACHE_OBS_OBS_MODE_HH
#define NUCACHE_OBS_OBS_MODE_HH

#include <cstdint>

namespace nucache::obs
{

/** Default sampling stride: one telemetry row per this many LLC accesses. */
constexpr std::uint64_t kDefaultTelemetryInterval = 50'000;

/**
 * @return the batch-mode sampling stride; 0 means batch telemetry is
 * off, so Systems left on the default attach no sampler and nothing
 * is published to the TelemetryHub.
 */
std::uint64_t telemetryInterval();

/** Set the batch-mode stride (0 disables; from --telemetry[=interval]). */
void setTelemetryInterval(std::uint64_t interval);

} // namespace nucache::obs

#endif // NUCACHE_OBS_OBS_MODE_HH
