/**
 * @file
 * nucache_top: a live terminal dashboard for a running nucached.
 *
 * Polls the server's `metrics` op (see src/serve/server_metrics.hh)
 * on one persistent connection and renders, per refresh:
 *  - server totals: req/s since the previous sample, connections,
 *    outbound buffer occupancy and high-water mark, slow-client sheds
 *    and overloads;
 *  - per-shard rows: dispatch rate, queue depth now / high-water,
 *    and a sparkline of recent queue depths;
 *  - per-class latency percentiles (p50/p99 us) from the server's
 *    log2 histograms;
 *  - the slow-request log (top total latency with phase breakdown).
 *
 * Rates come from differencing consecutive scrapes, so the first
 * frame shows totals only.  When stdout is a tty the screen is
 * redrawn in place with ANSI clear codes; otherwise frames append,
 * which keeps `nucache_top --once` and piped output scriptable.
 *
 * Usage:
 *   nucache_top [--host=127.0.0.1] [--port=7411]
 *               [--interval-ms=1000] [--once]
 */

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <deque>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/chart.hh"
#include "common/cli.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/net.hh"
#include "common/table.hh"
#include "serve/protocol.hh"

using namespace nucache;

namespace
{

using Clock = std::chrono::steady_clock;

/** One prior scrape's counters, for rate differencing. */
struct Sample
{
    Clock::time_point at{};
    std::uint64_t requests = 0;
    std::map<std::uint64_t, std::uint64_t> shardDispatched;
};

std::uint64_t
numberAt(const Json &obj, const char *key)
{
    const Json *v = obj.find(key);
    return v != nullptr && v->isNumber() ? v->asUint() : 0;
}

double
doubleAt(const Json &obj, const char *key)
{
    const Json *v = obj.find(key);
    return v != nullptr && v->isNumber() ? v->asDouble() : 0.0;
}

/** @return @p per_s formatted as "123.4" or "-" before two samples. */
std::string
fmtRate(double per_s, bool have)
{
    if (!have)
        return "-";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", per_s);
    return buf;
}

/** Render one metrics document; updates rate and sparkline state. */
void
render(const Json &m, Sample &prev,
       std::map<std::uint64_t, std::deque<double>> &depths)
{
    const Clock::time_point now = Clock::now();
    const bool haveRate = prev.at != Clock::time_point{};
    const double dt =
        haveRate
            ? std::chrono::duration<double>(now - prev.at).count()
            : 0.0;

    const Json *server = m.find("server");
    if (server == nullptr || !server->isObject()) {
        std::cout << "metrics document has no server block\n";
        return;
    }
    const std::uint64_t requests = numberAt(*server, "requests");
    const double rps =
        haveRate && dt > 0.0
            ? static_cast<double>(requests - prev.requests) / dt
            : 0.0;
    std::printf("nucached up %.0f s  |  %s req/s  "
                "%llu conns  %llu shards\n",
                doubleAt(*server, "uptime_ms") / 1000.0,
                fmtRate(rps, haveRate).c_str(),
                static_cast<unsigned long long>(
                    numberAt(*server, "connections")),
                static_cast<unsigned long long>(
                    numberAt(*server, "serve_shards")));
    std::printf("totals: %llu requests  %llu responses  "
                "%llu errors  %llu overloads  %llu slow-client sheds\n",
                static_cast<unsigned long long>(requests),
                static_cast<unsigned long long>(
                    numberAt(*server, "responses")),
                static_cast<unsigned long long>(
                    numberAt(*server, "bad_requests")),
                static_cast<unsigned long long>(
                    numberAt(*server, "overloads")),
                static_cast<unsigned long long>(
                    numberAt(*server, "slow_clients")));
    std::printf("outbound: %llu B queued (hwm %llu B)\n",
                static_cast<unsigned long long>(
                    numberAt(*server, "outbound_bytes")),
                static_cast<unsigned long long>(
                    numberAt(*server, "outbound_hwm_bytes")));

    if (const Json *cache = m.find("cache");
        cache != nullptr && cache->isObject()) {
        std::printf("cache: result hit %.1f%%  engine hit %.1f%%  "
                    "estimate share %.1f%%\n",
                    doubleAt(*cache, "result_hit_ratio") * 100.0,
                    doubleAt(*cache, "engine_hit_ratio") * 100.0,
                    doubleAt(*cache, "estimate_fraction") * 100.0);
    }

    Sample cur;
    cur.at = now;
    cur.requests = requests;

    if (const Json *shards = m.find("shards");
        shards != nullptr && shards->isArray()) {
        std::cout << "\n";
        TextTable t;
        t.header({"shard", "disp/s", "queue", "hwm", "depth trend"});
        for (const Json &s : shards->elements()) {
            const std::uint64_t idx = numberAt(s, "shard");
            const std::uint64_t dispatched =
                numberAt(s, "dispatched");
            cur.shardDispatched[idx] = dispatched;
            double shardRate = 0.0;
            const auto it = prev.shardDispatched.find(idx);
            if (haveRate && dt > 0.0 &&
                it != prev.shardDispatched.end()) {
                shardRate = static_cast<double>(dispatched -
                                                it->second) /
                            dt;
            }
            std::deque<double> &history = depths[idx];
            history.push_back(
                static_cast<double>(numberAt(s, "queue_len")));
            while (history.size() > 32)
                history.pop_front();
            t.row()
                .cell(idx)
                .cell(fmtRate(shardRate, haveRate))
                .cell(numberAt(s, "queue_len"))
                .cell(numberAt(s, "queue_depth_hwm"))
                .cell(sparkline({history.begin(), history.end()},
                                32));
        }
        t.print(std::cout);
    }

    if (const Json *requestsBlock = m.find("requests");
        requestsBlock != nullptr && requestsBlock->isObject()) {
        std::cout << "\n";
        TextTable t;
        t.header({"class", "count", "p50_us", "p99_us"});
        for (const auto &[cls, hist] : requestsBlock->members()) {
            const std::uint64_t count = numberAt(hist, "count");
            if (count == 0)
                continue;
            t.row()
                .cell(cls)
                .cell(count)
                .cell(doubleAt(hist, "p50_us"))
                .cell(doubleAt(hist, "p99_us"));
        }
        t.print(std::cout);
    }

    if (const Json *slow = m.find("slow_requests");
        slow != nullptr && slow->isArray() && slow->size() != 0) {
        std::cout << "\nslowest (us): ";
        std::size_t shown = 0;
        for (const Json &e : slow->elements()) {
            if (shown++ == 4)
                break;
            const Json *cls = e.find("class");
            std::printf("%s%s %llu", shown == 1 ? "" : ", ",
                        cls != nullptr ? cls->asString().c_str()
                                       : "?",
                        static_cast<unsigned long long>(
                            numberAt(e, "total_us")));
        }
        std::cout << "\n";
    }

    prev = std::move(cur);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv, {"once"});
    const std::string host = args.get("host", "127.0.0.1");
    const std::uint16_t port =
        static_cast<std::uint16_t>(args.getInt("port", 7411));
    const std::uint64_t interval_ms =
        args.getInt("interval-ms", 1000);
    if (interval_ms == 0)
        fatal("--interval-ms must be positive");
    const bool once = args.has("once");
    const bool tty = ::isatty(STDOUT_FILENO) != 0;

    std::string err;
    const int fd = net::connectTcp(host, port, err);
    if (fd < 0)
        fatal("nucache_top: ", err);
    net::LineReader reader(fd);

    Json req = Json::object();
    req["v"] = serve::kProtocolVersion;
    req["id"] = std::uint64_t{1};
    req["op"] = "metrics";
    std::string line = req.str(0);
    line += '\n';

    Sample prev;
    std::map<std::uint64_t, std::deque<double>> depths;
    int exitCode = 0;
    for (;;) {
        std::string response;
        if (!net::writeAll(fd, line.data(), line.size()) ||
            !reader.readLine(response)) {
            std::cerr << "nucache_top: server connection closed\n";
            exitCode = 1;
            break;
        }
        Json doc;
        if (!Json::parse(response, doc, err)) {
            std::cerr << "nucache_top: malformed response: " << err
                      << "\n";
            exitCode = 1;
            break;
        }
        const Json *ok = doc.find("ok");
        const Json *result = doc.find("result");
        if (ok == nullptr || !ok->isBool() || !ok->asBool() ||
            result == nullptr) {
            std::cerr << "nucache_top: metrics op failed: "
                      << response << "\n";
            exitCode = 1;
            break;
        }
        if (tty && !once)
            std::cout << "\033[H\033[2J"; // cursor home + clear
        render(*result, prev, depths);
        std::cout.flush();
        if (once)
            break;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
    }
    ::close(fd);
    return exitCode;
}
