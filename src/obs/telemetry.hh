/**
 * @file
 * Epoch time-series telemetry: the monitoring half of src/obs/.
 *
 * A Sampler owns an ordered registry of opt-in probes (each a named
 * nullary function returning a double) and an in-memory columnar
 * time-series.  The owning System drives it with the LLC access count
 * after every replayed record; when the count crosses the next
 * sampling stride the sampler walks the registry and appends one row.
 * Because every probe reads deterministic simulation state and rows
 * are keyed by LLC access count (not wall-clock), the series of a run
 * is bit-identical at every --jobs width.
 *
 * A finished series is part of its run's result (SystemResult), so a
 * caller that asked for sampling reads its own series back and
 * touches no shared state; the server renders a request's document
 * that way.  Batch mode (`--telemetry` on the benches and run_trace,
 * obs/obs_mode.hh) additionally collects every series into the
 * process-wide TelemetryHub, which the bench layer drains into a
 * `nucache-telemetry/v1` JSON document alongside the regular bench
 * JSON.  The hub keys series by label and hierarchy variant and emits
 * them in sorted order, so the file is deterministic no matter which
 * worker thread finished first.
 */

#ifndef NUCACHE_OBS_TELEMETRY_HH
#define NUCACHE_OBS_TELEMETRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"

namespace nucache::obs
{

/** One finished run's columnar time-series. */
struct TelemetrySeries
{
    /** Identifies the run, e.g. "mix03/nucache". */
    std::string label;
    /**
     * Names the hierarchy the run used (see RunEngine), so runs that
     * share a label but not a hierarchy, such as a mix with and
     * without the prefetcher, are kept apart.  Empty outside the
     * engine.
     */
    std::string variant;
    /** Sampling stride in LLC accesses. */
    std::uint64_t interval = 0;
    /** Column names, in registration order. */
    std::vector<std::string> columns;
    /** LLC access count at each sampled row. */
    std::vector<std::uint64_t> at;
    /** data[column][row], parallel to `columns` x `at`. */
    std::vector<std::vector<double>> data;
    /** End-of-run statistics tree (System::statsJson output). */
    Json finalStats = Json::object();

    /** @return the series as a JSON object (one entry of the dump). */
    Json toJson() const;
};

/**
 * Registry-walking epoch sampler.  Not thread-safe; each System owns
 * one and drives it from its (single-threaded) run loop.
 */
class Sampler
{
  public:
    /** @param interval sampling stride in LLC accesses (> 0). */
    explicit Sampler(std::uint64_t interval);

    /** Register probe @p name; walked in registration order. */
    void addProbe(std::string name, std::function<double()> fn);

    /**
     * Sample iff @p llc_accesses has crossed the next stride boundary
     * (catching up once if a burst skipped several boundaries, so row
     * count stays a pure function of the final access count).
     */
    void
    maybeSample(std::uint64_t llc_accesses)
    {
        if (llc_accesses >= nextAt)
            sampleNow(llc_accesses);
    }

    /** Append one row right now, keyed by @p llc_accesses. */
    void sampleNow(std::uint64_t llc_accesses);

    /** @return the sampling stride. */
    std::uint64_t interval() const { return stride; }

    /** @return rows appended so far. */
    std::size_t rows() const { return at.size(); }

    /**
     * @return the LLC access count of the newest row (0 when empty) —
     * lets the owner take a final snapshot without duplicating a row
     * that a stride boundary already produced.
     */
    std::uint64_t lastAt() const { return at.empty() ? 0 : at.back(); }

    /** @return number of registered probes. */
    std::size_t probeCount() const { return probes.size(); }

    /** @return the finished series (copies the columns out). */
    TelemetrySeries series(std::string label) const;

  private:
    std::uint64_t stride;
    std::uint64_t nextAt;
    std::vector<std::pair<std::string, std::function<double()>>> probes;
    std::vector<std::uint64_t> at;
    /** cols[probe][row]. */
    std::vector<std::vector<double>> cols;
};

/**
 * @return a `nucache-telemetry/v1` document whose "series" member is
 * @p series (an array of TelemetrySeries::toJson entries).
 */
Json telemetryDocument(Json series);

/**
 * @return where the telemetry document of a run whose JSON results go
 * to @p json_path is written: "<stem>_telemetry.json" beside it, or
 * "telemetry.json" when @p json_path is empty.
 */
std::string telemetryPathFor(const std::string &json_path);

/**
 * Process-wide collection point for finished series (one per System
 * run while batch telemetry mode is on).  Thread-safe; keyed by
 * (label, variant) so the drain order — and therefore the dumped
 * JSON — is deterministic.
 */
class TelemetryHub
{
  public:
    static TelemetryHub &instance();

    /**
     * Publish a finished series.  A second series with the same label
     * and variant replaces the first (the engine runs a given label on
     * a given hierarchy once, so the two are identical).
     */
    void publish(TelemetrySeries series);

    /** @return number of series currently held. */
    std::size_t size() const;

    /**
     * @return the full `nucache-telemetry/v1` document and clear the
     * hub.  Series appear sorted by label, then variant.  A label
     * held under one variant is emitted as is; a label held under
     * several is emitted as "<label> [<variant>]" for each.
     */
    Json drainJson();

    /** Drop everything (tests). */
    void clear();

  private:
    mutable std::mutex mtx;
    std::map<std::pair<std::string, std::string>, TelemetrySeries> held;
};

} // namespace nucache::obs

#endif // NUCACHE_OBS_TELEMETRY_HH
