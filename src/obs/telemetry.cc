#include "obs/telemetry.hh"

#include <iterator>

#include "common/logging.hh"

namespace nucache::obs
{

Json
TelemetrySeries::toJson() const
{
    Json s = Json::object();
    s["label"] = label;
    s["interval"] = interval;
    s["rows"] = at.size();
    Json at_col = Json::array();
    for (const std::uint64_t a : at)
        at_col.push(a);
    s["llc_accesses"] = std::move(at_col);
    Json probes = Json::object();
    for (std::size_t c = 0; c < columns.size(); ++c) {
        Json col = Json::array();
        for (const double v : data[c])
            col.push(v);
        probes[columns[c]] = std::move(col);
    }
    s["probes"] = std::move(probes);
    if (finalStats.size() != 0)
        s["final_stats"] = finalStats;
    return s;
}

Sampler::Sampler(std::uint64_t interval)
    : stride(interval), nextAt(interval)
{
    if (stride == 0)
        fatal("Sampler: zero sampling interval");
}

void
Sampler::addProbe(std::string name, std::function<double()> fn)
{
    if (!at.empty())
        fatal("Sampler: probe '", name, "' registered after sampling began");
    probes.emplace_back(std::move(name), std::move(fn));
    cols.emplace_back();
}

void
Sampler::sampleNow(std::uint64_t llc_accesses)
{
    at.push_back(llc_accesses);
    for (std::size_t p = 0; p < probes.size(); ++p)
        cols[p].push_back(probes[p].second());
    // One row per crossing, however far past the boundary the access
    // count landed: rows stay a function of the final count alone.
    while (nextAt <= llc_accesses)
        nextAt += stride;
}

TelemetrySeries
Sampler::series(std::string label) const
{
    TelemetrySeries out;
    out.label = std::move(label);
    out.interval = stride;
    out.columns.reserve(probes.size());
    for (const auto &p : probes)
        out.columns.push_back(p.first);
    out.at = at;
    out.data = cols;
    return out;
}

Json
telemetryDocument(Json series)
{
    Json doc = Json::object();
    doc["schema"] = "nucache-telemetry/v1";
    doc["series"] = std::move(series);
    return doc;
}

std::string
telemetryPathFor(const std::string &json_path)
{
    if (json_path.empty())
        return "telemetry.json";
    std::string p = json_path;
    const std::string ext = ".json";
    if (p.size() > ext.size() &&
        p.compare(p.size() - ext.size(), ext.size(), ext) == 0) {
        p.resize(p.size() - ext.size());
    }
    return p + "_telemetry.json";
}

TelemetryHub &
TelemetryHub::instance()
{
    static TelemetryHub hub;
    return hub;
}

void
TelemetryHub::publish(TelemetrySeries series)
{
    std::lock_guard<std::mutex> lock(mtx);
    held[{series.label, series.variant}] = std::move(series);
}

std::size_t
TelemetryHub::size() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return held.size();
}

Json
TelemetryHub::drainJson()
{
    std::lock_guard<std::mutex> lock(mtx);
    Json series = Json::array();
    for (auto it = held.begin(); it != held.end(); ++it) {
        const std::string &label = it->first.first;
        const bool shared =
            (it != held.begin() && std::prev(it)->first.first == label) ||
            (std::next(it) != held.end() &&
             std::next(it)->first.first == label);
        Json s = it->second.toJson();
        if (shared)
            s["label"] = label + " [" + it->first.second + "]";
        series.push(std::move(s));
    }
    held.clear();
    return telemetryDocument(std::move(series));
}

void
TelemetryHub::clear()
{
    std::lock_guard<std::mutex> lock(mtx);
    held.clear();
}

} // namespace nucache::obs
