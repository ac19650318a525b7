/**
 * @file
 * The catalog of named synthetic workloads standing in for the SPEC
 * benchmarks of the paper's evaluation (see DESIGN.md, Substitutions).
 *
 * Each workload is a deterministic WorkloadSpec for generateTrace(),
 * plus the attack:* family synthesized by src/attack/.  Names
 * describe the dominant behaviour; the doc comment of each entry in
 * workloads.cc names the SPEC class it is modeled after.
 *
 * The reference design point is a 1 MiB, 16-way, 64 B-block LLC per
 * core (16384 blocks): working-set sizes below are chosen relative to
 * that capacity to cover fits-easily / fits-barely / thrashes classes.
 */

#ifndef NUCACHE_TRACE_WORKLOADS_HH
#define NUCACHE_TRACE_WORKLOADS_HH

#include <string>
#include <vector>

#include "trace/generator.hh"

namespace nucache
{

/** @return the names of all cataloged workloads, in canonical order. */
const std::vector<std::string> &workloadNames();

/** @return true iff @p name is a cataloged workload. */
bool isWorkloadName(const std::string &name);

/**
 * @return the spec of cataloged workload @p name; fatal() on unknown
 * names (attack:* names have no spec, see workloadRecords()).
 * @param length_override if non-zero, replaces the default trace length.
 */
WorkloadSpec workloadSpec(const std::string &name,
                          std::uint64_t length_override = 0);

/**
 * @return one pass of workload @p name, synthetic or attack:*; the one
 * place that dispatches between the two.  fatal() on unknown names.
 * @param length_override if non-zero, replaces the default trace length.
 */
std::vector<TraceRecord> workloadRecords(const std::string &name,
                                         std::uint64_t length_override = 0);

/**
 * @return a cursor over workloadRecords(name, length_override).  Not
 * cached: TraceArena::open() is the shared, materialize-once variant.
 */
TraceSourcePtr makeWorkload(const std::string &name,
                            std::uint64_t length_override = 0);

} // namespace nucache

#endif // NUCACHE_TRACE_WORKLOADS_HH
