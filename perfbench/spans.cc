/**
 * @file
 * The span recorder and the small statistics helpers of the driver.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "bench.hh"

namespace perfbench
{

Spans &
Spans::instance()
{
    static Spans recorder;
    return recorder;
}

std::uint64_t
Spans::newTrace()
{
    std::lock_guard<std::mutex> lock(mtx);
    return nextTrace++;
}

std::uint64_t
Spans::newId()
{
    if (!enabled)
        return 0;
    std::lock_guard<std::mutex> lock(mtx);
    return nextId++;
}

std::uint64_t
Spans::add(const std::string &layer, const std::string &name,
           std::uint64_t trace_id, std::uint64_t parent,
           std::uint64_t start_ns, std::uint64_t end_ns, std::uint64_t id)
{
    if (!enabled)
        return 0;
    std::lock_guard<std::mutex> lock(mtx);
    Span s;
    s.id = id != 0 ? id : nextId++;
    s.parent = parent;
    s.traceId = trace_id;
    s.layer = layer;
    s.name = name;
    s.startNs = start_ns;
    s.endNs = std::max(start_ns, end_ns);
    spans.push_back(std::move(s));
    return spans.back().id;
}

Json
Spans::layerSummary() const
{
    std::lock_guard<std::mutex> lock(mtx);
    // Children per parent, to subtract the union of their intervals.
    std::map<std::uint64_t, std::vector<std::pair<std::uint64_t,
                                                  std::uint64_t>>>
        children;
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.startNs, s.endNs);

    struct Totals
    {
        std::uint64_t count = 0;
        double total = 0.0;
        double self = 0.0;
    };
    std::map<std::string, Totals> by_layer;
    for (const Span &s : spans) {
        std::uint64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto iv = it->second;
            std::sort(iv.begin(), iv.end());
            std::uint64_t cur_s = 0, cur_e = 0;
            bool open = false;
            for (auto [a, b] : iv) {
                a = std::clamp(a, s.startNs, s.endNs);
                b = std::clamp(b, s.startNs, s.endNs);
                if (open && a <= cur_e) {
                    cur_e = std::max(cur_e, b);
                    continue;
                }
                if (open)
                    covered += cur_e - cur_s;
                cur_s = a;
                cur_e = b;
                open = true;
            }
            if (open)
                covered += cur_e - cur_s;
        }
        Totals &t = by_layer[s.layer];
        const std::uint64_t dur = s.endNs - s.startNs;
        ++t.count;
        t.total += static_cast<double>(dur) * 1e-9;
        t.self += static_cast<double>(dur - std::min(dur, covered)) * 1e-9;
    }
    Json out = Json::object();
    for (const auto &[layer, t] : by_layer) {
        Json j = Json::object();
        j["spans"] = t.count;
        j["total_s"] = t.total;
        j["self_s"] = t.self;
        out[layer] = std::move(j);
    }
    return out;
}

bool
Spans::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    std::lock_guard<std::mutex> lock(mtx);
    std::uint64_t first = spans.empty() ? 0 : spans.front().startNs;
    for (const Span &s : spans)
        first = std::min(first, s.startNs);
    os << "{\"schema\":\"perfbench-spans/v1\",\"spans\":[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        Json j = Json::object();
        j["id"] = s.id;
        j["parent"] = s.parent;
        j["trace"] = s.traceId;
        j["layer"] = s.layer;
        j["name"] = s.name;
        j["start_ns"] = s.startNs - first;
        j["dur_ns"] = s.endNs - s.startNs;
        os << j.str(0) << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

SpanScope::SpanScope(std::string layer, std::string name,
                     std::uint64_t trace_id, std::uint64_t parent)
    : layerName(std::move(layer)), spanName(std::move(name)),
      traceId(trace_id), parentId(parent), startNs(nowNs()),
      spanId(Spans::instance().newId())
{
    if (traceId == 0 && Spans::instance().on())
        traceId = Spans::instance().newTrace();
}

SpanScope::~SpanScope()
{
    Spans::instance().add(layerName, spanName, traceId, parentId, startNs,
                          nowNs(), spanId);
}

double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
    return v[idx];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMiB()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream ls(line.substr(6));
            double kib = 0.0;
            ls >> kib;
            return kib / 1024.0;
        }
    }
    return std::numeric_limits<double>::quiet_NaN();
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex(std::uint64_t h)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i, h >>= 4)
        out[static_cast<std::size_t>(i)] = digits[h & 0xf];
    return out;
}

} // namespace perfbench
