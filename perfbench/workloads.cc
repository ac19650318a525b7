/**
 * @file
 * The three end-to-end workloads.
 *
 *  - grid8: RunEngine::runGrid over five eight-core mixes x the
 *    evaluation policies (paper Figure 6), in process.
 *  - serve_exact: a closed loop of exact run_mix requests over
 *    loopback into an in-process nucached (one shard).
 *  - serve_estimate: the same server answering mode:"estimate" from
 *    profiles warmed during set-up.
 *
 * Every workload reports the same seven metrics, each defined per
 * workload in perfbench/README.md; per-workload figures (grid_s,
 * exact_p90_ms, estimate_p99_us, ...) ride along in the report's
 * "named" block.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "bench.hh"
#include "common/net.hh"
#include "model/profile.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/policies.hh"
#include "sim/run_engine.hh"
#include "trace/arena.hh"

namespace perfbench
{

Client::Client(std::uint16_t port)
{
    std::string err;
    fd = nucache::net::connectTcp("127.0.0.1", port, err);
    if (fd < 0)
        throw std::runtime_error("connect: " + err);
    nucache::net::setNoDelay(fd);
    reader = std::make_unique<nucache::net::LineReader>(fd);
}

Client::~Client()
{
    if (fd >= 0)
        ::close(fd);
}

bool
Client::send(const std::string &line)
{
    const std::string framed = line + "\n";
    return nucache::net::writeAll(fd, framed.data(), framed.size());
}

bool
Client::recv(std::string &line)
{
    return reader->readLine(line);
}

double
Client::call(const std::string &line)
{
    std::string reply;
    const std::uint64_t t0 = nowNs();
    if (!send(line) || !recv(reply))
        throw std::runtime_error("connection lost");
    const double s = secondsSince(t0);
    if (reply.find("\"ok\":true") == std::string::npos)
        throw std::runtime_error("request failed: " + reply.substr(0, 200));
    return s;
}

std::unique_ptr<nucache::serve::Server>
startServer(const Draw &draw)
{
    nucache::serve::ServerConfig cfg;
    cfg.port = 0;
    cfg.shards = 1;
    cfg.service.jobs = draw.jobs;
    cfg.service.defaultRecords = draw.records;
    auto server = std::make_unique<nucache::serve::Server>(cfg);
    std::string err;
    if (!server->start(err))
        throw std::runtime_error("server start: " + err);
    return server;
}

std::vector<double>
llcHitRates(const nucache::SystemResult &sys)
{
    std::vector<double> out;
    for (const auto &c : sys.cores)
        out.push_back(c.llc.accesses > 0
                          ? static_cast<double>(c.llc.hits) /
                                static_cast<double>(c.llc.accesses)
                          : 0.0);
    return out;
}

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Set-ups per run; the median is reported. */
constexpr int kSetupReps = 3;

/** Window of the estimate loop's per-window statistics, seconds. */
constexpr double kWindowS = 1.0;

/** @return @p result without its server timing block. */
Json
stripServer(const Json &result)
{
    Json out = Json::object();
    for (const auto &[k, v] : result.members())
        if (k != "server")
            out[k] = v;
    return out;
}

/** @return the per-core LLC hit rates of an estimate payload. */
std::vector<double>
estimateHitRates(const Json &result)
{
    std::vector<double> out;
    for (const Json &c : result.at("cores").elements())
        out.push_back(c.at("llc_hit_rate").asDouble());
    return out;
}

/** Accumulates |estimated - exact| per-core LLC hit rate. */
struct ErrorSum
{
    double sum = 0.0;
    std::uint64_t n = 0;

    void
    add(const std::vector<double> &est, const std::vector<double> &exact)
    {
        for (std::size_t i = 0; i < std::min(est.size(), exact.size());
             ++i) {
            sum += std::fabs(est[i] - exact[i]);
            ++n;
        }
    }

    double mean() const { return n == 0 ? kInf : sum / double(n); }
};

/** Geometric mean of WS(nucache) / WS(lru) over the draw's cells. */
class GainAccumulator
{
  public:
    void
    add(const DrawnRequest &req, double ws)
    {
        const std::string group = req.mix.name + "|" +
                                  std::to_string(req.llcKib) + "|" +
                                  std::to_string(req.llcWays);
        if (req.policy == "nucache")
            nuc[group] = ws;
        else if (req.policy == "lru")
            lru[group] = ws;
    }

    double
    geomean() const
    {
        double log_sum = 0.0;
        int n = 0;
        for (const auto &[group, ws] : nuc) {
            const auto it = lru.find(group);
            if (it == lru.end() || it->second <= 0.0 || ws <= 0.0)
                continue;
            log_sum += std::log(ws / it->second);
            ++n;
        }
        return n == 0 ? kInf : std::exp(log_sum / n);
    }

  private:
    std::map<std::string, double> nuc, lru;
};

std::string
cellDigestLine(const nucache::MixResult &r)
{
    Json j = Json::object();
    j["mix"] = r.mixName;
    j["policy"] = r.policy;
    j["ws"] = r.weightedSpeedup;
    Json cores = Json::array();
    for (const auto &c : r.system.cores) {
        Json cj = Json::object();
        cj["w"] = c.workload;
        cj["ipc"] = c.ipc;
        cj["instr"] = c.instructions;
        cj["cycles"] = c.cycles;
        cj["l1"] = Json::array();
        cj["l1"].push(c.l1.accesses);
        cj["l1"].push(c.l1.misses);
        cj["llc"] = Json::array();
        cj["llc"].push(c.llc.accesses);
        cj["llc"].push(c.llc.misses);
        cores.push(std::move(cj));
    }
    j["cores"] = std::move(cores);
    j["wb"] = r.system.llcWritebacks;
    j["dram"] = r.system.dramReads;
    j["dramq"] = r.system.dramQueueCycles;
    return j.str(0);
}

void
putCommon(Outcome &out, double setup_s, double p50_ms, double tail_ms,
          double ops_per_s, double sim_maccess_per_s, double gain)
{
    out.metrics["setup_s"] = {setup_s, "s"};
    out.metrics["peak_rss_mb"] = {peakRssMiB(), "MiB"};
    out.metrics["p50_ms"] = {p50_ms, "ms"};
    out.metrics["tail_ms"] = {tail_ms, "ms"};
    out.metrics["ops_per_s"] = {ops_per_s, "1/s"};
    out.metrics["sim_maccess_per_s"] = {sim_maccess_per_s, "Macc/s"};
    out.metrics["nucache_ws_gain"] = {gain, "ratio"};
}

// --------------------------------------------------------------- grid8

/**
 * @return the grid's tail: the highest cell-duration percentile with
 * at least ten cells beyond it (two grids give 60 cells: p83).
 */
double
cellTail(std::vector<double> cells)
{
    const double n = double(cells.size());
    return quantile(cells, n > 20 ? 1.0 - 10.0 / n : 1.0);
}

/** Materialize @p names through TraceArena::get on @p jobs threads. */
void
materialize(const std::vector<std::string> &names, unsigned jobs)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < jobs; ++t)
        threads.emplace_back([&] {
            for (std::size_t i; (i = next.fetch_add(1)) < names.size();)
                nucache::TraceArena::instance().get(names[i]);
        });
    for (auto &t : threads)
        t.join();
}

Outcome
runGrid8(const Draw &draw, const Options &opt, bool traced)
{
    Outcome out;
    const auto names = draw.workloadNames();
    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        nucache::TraceArena::instance().clear();
        const std::uint64_t t0 = nowNs();
        materialize(names, draw.jobs);
        setups.push_back(secondsSince(t0));
    }

    const auto mixes = draw.mixes();
    const auto &policies = nucache::evaluationPolicySet();
    const nucache::HierarchyConfig hier = nucache::defaultHierarchy(8);
    const std::size_t nuc_col = static_cast<std::size_t>(
        std::find(policies.begin(), policies.end(), "nucache") -
        policies.begin());

    std::vector<double> grid_s, slowest_s, busy, cell_s;
    std::optional<nucache::GridRun> first;
    std::uint64_t alone_runs = 0;
    std::string first_digest;
    const std::uint64_t start = nowNs();
    while (grid_s.size() < 2 || secondsSince(start) < opt.seconds) {
        nucache::RunEngine engine(draw.records, draw.jobs);
        const std::uint64_t t0 = nowNs();
        nucache::GridRun g = engine.runGrid(hier, mixes, policies);
        const std::uint64_t t1 = nowNs();
        const double wall = static_cast<double>(t1 - t0) * 1e-9;
        grid_s.push_back(wall);
        alone_runs = engine.aloneRunCount();

        double slowest = 0.0, sum = 0.0;
        std::uint64_t h = fnv1a("grid8");
        const std::uint64_t root =
            traced ? Spans::instance().add("sim", "runGrid",
                                           Spans::instance().newTrace(), 0,
                                           t0, t1)
                   : 0;
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            if (m >= g.cells.size() || g.cells[m].size() != policies.size()) {
                out.errors.push_back("grid row " + mixes[m].name +
                                     " is missing cells");
                out.failed += policies.size();
                continue;
            }
            for (const auto &cell : g.cells[m]) {
                ++out.attempted;
                const double d = static_cast<double>(cell.durationNs()) *
                                 1e-9;
                slowest = std::max(slowest, d);
                sum += d;
                cell_s.push_back(d);
                if (traced)
                    Spans::instance().add(
                        "sim", "cell " + cell.result.mixName + "/" +
                                   cell.result.policy,
                        Spans::instance().newTrace(), root, cell.startNs,
                        cell.endNs);
                if (!std::isfinite(cell.normWs) || cell.normWs <= 0.0 ||
                    !std::isfinite(cell.result.weightedSpeedup) ||
                    cell.result.weightedSpeedup <= 0.0) {
                    ++out.failed;
                    out.errors.push_back("cell " + cell.result.mixName +
                                         "/" + cell.result.policy +
                                         " has a bad weighted speedup");
                }
                h = fnv1a(cellDigestLine(cell.result), h);
            }
        }
        slowest_s.push_back(slowest);
        busy.push_back(sum / (draw.jobs * wall));
        if (first_digest.empty())
            first_digest = hex(h);
        else if (hex(h) != first_digest)
            out.errors.push_back("grid statistics differ between "
                                 "repetitions of one run");
        if (!first)
            first = std::move(g);
    }

    // Deterministic figures from the first grid, outside the timing.
    const nucache::GridRun &g = *first;
    double log_gain = 0.0;
    std::uint64_t cell_records = 0;
    for (std::size_t m = 0; m < g.cells.size(); ++m) {
        if (g.cells[m].size() != policies.size())
            continue;
        log_gain += std::log(g.cells[m][nuc_col].normWs);
        cell_records += policies.size() * mixes[m].workloads.size() *
                        draw.records;
    }
    const double gain = std::exp(log_gain / double(g.cells.size()));
    const double records =
        double(cell_records + alone_runs * draw.records);
    const double grid_med = median(grid_s);
    putCommon(out, median(setups), grid_med * 1e3,
              cellTail(cell_s) * 1e3,
              double(mixes.size() * policies.size()) / grid_med,
              records / grid_med * 1e-6, gain);
    out.digest = first_digest;

    Json named = Json::object();
    named["grid_s"] = grid_med;
    named["sim_maccess_per_s"] = records / grid_med * 1e-6;
    named["nucache_ws_gain"] = gain;
    out.detail["named"] = std::move(named);
    out.detail["grids"] = grid_s.size();
    Json grids = Json::array();
    for (double s : grid_s)
        grids.push(s);
    out.detail["grid_s_each"] = std::move(grids);
    out.detail["worker_busy_frac"] = median(busy);
    out.detail["slowest_cell_s"] = median(slowest_s);
    out.detail["cells_timed"] = cell_s.size();
    out.detail["alone_runs_per_grid"] = alone_runs;
    out.detail["records_simulated_per_grid"] = records;
    return out;
}

// --------------------------------------------------------------- serve

/** One client's share of a closed loop. */
struct ClientLog
{
    std::vector<double> latencyMs;
    /** Completion time of each sample, seconds into the loop. */
    std::vector<double> doneS;
    std::uint64_t failed = 0;
    std::uint64_t simRecords = 0;
    std::vector<std::string> errors;
    /** (distinct index, digest of stripped result) of repeat passes. */
    std::vector<std::pair<std::size_t, std::uint64_t>> repeats;
};

/** Result of a closed loop over a draw's request lines. */
struct LoopResult
{
    std::vector<double> latencyMs;
    std::vector<double> doneS;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double wallS = 0.0;
    std::uint64_t simRecords = 0;
    /** First stripped result per distinct request (draw order). */
    std::vector<Json> firstResult;
    std::vector<std::string> errors;
};

/**
 * Drive a closed loop: @p connections clients, each sending its next
 * request only after the previous reply, cycling through @p reqs in
 * draw order from one shared counter, for @p seconds and at least
 * @p min_requests requests (never fewer than one full pass).
 */
LoopResult
closedLoop(std::uint16_t port, const std::vector<DrawnRequest> &reqs,
           std::uint64_t records, unsigned connections, double seconds,
           std::uint64_t min_requests, bool traced)
{
    const std::size_t n = reqs.size();
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < n; ++i)
        lines.push_back(reqs[i].line(i + 1, records));

    LoopResult res;
    res.firstResult.assign(n, Json());
    std::vector<ClientLog> logs(connections);
    std::atomic<std::uint64_t> next{0};
    std::atomic<std::uint64_t> done{0};
    const std::uint64_t minimum = std::max<std::uint64_t>(min_requests, n);
    const std::uint64_t start = nowNs();

    auto clientLoop = [&](ClientLog &log) {
        Client client(port);
        std::string reply;
        for (;;) {
            if (secondsSince(start) >= seconds &&
                done.load(std::memory_order_relaxed) >= minimum)
                break;
            const std::uint64_t i = next.fetch_add(1);
            const std::size_t k = static_cast<std::size_t>(i % n);
            const DrawnRequest &req = reqs[k];
            const std::uint64_t t0 = nowNs();
            const bool io_ok = client.send(lines[k]) && client.recv(reply);
            const std::uint64_t t1 = nowNs();
            done.fetch_add(1, std::memory_order_relaxed);
            if (traced)
                Spans::instance().add("serve", "request " + req.key(),
                                      Spans::instance().newTrace(), 0, t0,
                                      t1);

            // Every reply is checked; repeated estimates (thousands a
            // second) by their markers, everything else parsed.
            const bool keep = i < n || !req.estimate;
            Json doc;
            std::string perr;
            std::string why;
            if (!io_ok)
                why = "connection closed";
            else if (!keep) {
                if (reply.find("\"ok\":true") == std::string::npos ||
                    reply.find("\"estimated\":true") == std::string::npos)
                    why = "not an ok estimate: " + reply.substr(0, 200);
            } else if (!Json::parse(reply, doc, perr))
                why = "unparsable reply: " + perr;
            else if (const Json *ok = doc.find("ok");
                     ok == nullptr || !ok->asBool())
                why = "not ok: " + reply.substr(0, 200);
            else if (const Json *r = doc.find("result");
                     r == nullptr || !r->isObject())
                why = "no result";
            else if (req.estimate &&
                     (r->find("estimated") == nullptr ||
                      !r->at("estimated").asBool()))
                why = "estimate reply lacks estimated:true";
            log.doneS.push_back(double(t1 - start) * 1e-9);
            if (!why.empty()) {
                ++log.failed;
                log.latencyMs.push_back(kInf);
                if (log.errors.size() < 5)
                    log.errors.push_back(req.key() + ": " + why);
                if (!io_ok)
                    break;
                continue;
            }
            log.latencyMs.push_back(static_cast<double>(t1 - t0) * 1e-6);
            log.simRecords += req.mix.workloads.size() * records;
            if (!keep)
                continue;
            const Json &result = doc.at("result");
            if (i < n) {
                res.firstResult[k] = stripServer(result);
            } else if (!req.estimate) {
                log.repeats.emplace_back(
                    k, fnv1a(stripServer(result).str(0)));
            }
        }
    };

    auto worker = [&](ClientLog &log) {
        try {
            clientLoop(log);
        } catch (const std::exception &e) {
            // Counted as one more failed request.
            ++log.failed;
            log.latencyMs.push_back(kInf);
            log.doneS.push_back(secondsSince(start));
            log.errors.push_back(std::string("client: ") + e.what());
        }
    };

    std::vector<std::thread> threads;
    for (unsigned c = 0; c < connections; ++c)
        threads.emplace_back(worker, std::ref(logs[c]));
    for (auto &t : threads)
        t.join();
    res.wallS = secondsSince(start);

    for (const ClientLog &log : logs) {
        res.latencyMs.insert(res.latencyMs.end(), log.latencyMs.begin(),
                             log.latencyMs.end());
        res.doneS.insert(res.doneS.end(), log.doneS.begin(),
                         log.doneS.end());
        res.failed += log.failed;
        res.simRecords += log.simRecords;
        res.errors.insert(res.errors.end(), log.errors.begin(),
                          log.errors.end());
        for (const auto &[k, h] : log.repeats)
            if (!res.firstResult[k].isNull() &&
                fnv1a(res.firstResult[k].str(0)) != h)
                res.errors.push_back("repeat of " + reqs[k].key() +
                                     " returned different statistics");
    }
    res.attempted = res.latencyMs.size();
    for (std::size_t k = 0; k < n; ++k)
        if (res.firstResult[k].isNull() && res.errors.size() < 20)
            res.errors.push_back("no reply kept for " + reqs[k].key());
    return res;
}

/** Latency and rate statistics of a closed loop. */
struct LoopStats
{
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double rps = 0.0;
    std::size_t windows = 0;
};

LoopStats
loopStats(const LoopResult &loop, bool windowed)
{
    LoopStats st;
    const double ok = double(loop.attempted - loop.failed);
    if (!windowed || loop.wallS < 3 * kWindowS) {
        std::vector<double> lat = loop.latencyMs;
        st.p50 = quantile(lat, 0.50);
        st.p90 = quantile(lat, 0.90);
        st.p99 = quantile(lat, 0.99);
        st.rps = ok / loop.wallS;
        return st;
    }
    st.windows = static_cast<std::size_t>(loop.wallS / kWindowS);
    std::vector<std::vector<double>> by_window(st.windows);
    std::vector<double> counts(st.windows, 0.0);
    for (std::size_t i = 0; i < loop.latencyMs.size(); ++i) {
        const auto w = static_cast<std::size_t>(loop.doneS[i] / kWindowS);
        if (w >= st.windows)
            continue;
        by_window[w].push_back(loop.latencyMs[i]);
        if (std::isfinite(loop.latencyMs[i]))
            counts[w] += 1.0;
    }
    std::vector<double> p50s, p90s, p99s;
    for (auto &v : by_window) {
        p50s.push_back(quantile(v, 0.50));
        p90s.push_back(quantile(v, 0.90));
        p99s.push_back(quantile(v, 0.99));
    }
    st.p50 = median(p50s);
    st.p90 = median(p90s);
    st.p99 = median(p99s);
    st.rps = median(counts) / kWindowS;
    return st;
}

/**
 * Start a server, materialize the draw's traces and wait until the
 * server answers health (and, for estimates, until every drawn
 * workload's profile is built); @return seconds.
 */
double
timedServerStart(const Draw &draw,
                 std::unique_ptr<nucache::serve::Server> &server,
                 bool warm_profiles)
{
    const std::uint64_t t0 = nowNs();
    server = startServer(draw);
    // The traces a long-running nucached holds after first use.  The
    // run-alone baselines stay cold: the first request naming a
    // workload pays for its baseline.
    materialize(draw.workloadNames(), draw.jobs);
    Client client(server->port());
    std::string reply;
    std::vector<std::string> warm;
    if (warm_profiles) {
        // One single-core estimate per workload builds its profile
        // through the dispatcher, as a first estimate would.
        for (const auto &w : draw.workloadNames()) {
            DrawnRequest r{{"warm", {w}}, "lru", 0, 0, true};
            warm.push_back(r.line(warm.size() + 1, draw.records));
        }
    }
    if (!client.send(R"({"v":"nucache-rpc/v1","op":"health"})"))
        throw std::runtime_error("health send failed");
    for (const auto &line : warm)
        if (!client.send(line))
            throw std::runtime_error("warm-up send failed");
    for (std::size_t i = 0; i < warm.size() + 1; ++i) {
        Json doc;
        std::string err;
        if (!client.recv(reply) || !Json::parse(reply, doc, err) ||
            doc.find("ok") == nullptr || !doc.at("ok").asBool())
            throw std::runtime_error("set-up request failed: " + reply);
    }
    return secondsSince(t0);
}

Outcome
runServe(const Draw &draw, const Options &opt, bool traced)
{
    Outcome out;
    const bool estimate = draw.workload == "serve_estimate";
    std::unique_ptr<nucache::serve::Server> server;
    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        server.reset();
        nucache::TraceArena::instance().clear();
        if (estimate)
            nucache::model::ProfileStore::instance().clear();
        setups.push_back(timedServerStart(draw, server, estimate));
    }

    const LoopResult loop =
        closedLoop(server->port(), draw.requests, draw.records,
                   draw.connections, opt.seconds, estimate ? 1000 : 100,
                   traced);
    server.reset();

    out.attempted = loop.attempted;
    out.failed = loop.failed;
    out.errors = loop.errors;
    const double ok = double(loop.attempted - loop.failed);
    // Thousands of estimates a second: their statistics are taken per
    // one-second window and reported as medians, so a stall of the
    // shared machine moves one window, not the run.
    const LoopStats st = loopStats(loop, estimate);
    const double records_per_ok =
        ok > 0 ? double(loop.simRecords) / ok : 0.0;

    // Deterministic figures over the draw's distinct requests, outside
    // the timed window.  Estimates are checked against exact RunEngine
    // runs of the same requests: ad-hoc mixes, held out from the
    // model's calibration.
    GainAccumulator gain;
    ErrorSum err;
    std::uint64_t h = fnv1a(draw.workload);
    std::vector<nucache::MixResult> exact(draw.requests.size());
    if (estimate) {
        nucache::RunEngine engine(draw.records, draw.jobs);
        engine.parallelFor(draw.requests.size(), [&](std::size_t k) {
            const DrawnRequest &r = draw.requests[k];
            exact[k] = engine.runMix(r.mix, r.policy, hierarchyOf(r));
        });
    }
    for (std::size_t k = 0; k < draw.requests.size(); ++k) {
        const Json &res = loop.firstResult[k];
        if (res.isNull())
            continue;
        h = fnv1a(res.str(0), h);
        gain.add(draw.requests[k], res.at("weighted_speedup").asDouble());
        if (estimate)
            err.add(estimateHitRates(res), llcHitRates(exact[k].system));
    }
    out.digest = hex(h);
    putCommon(out, median(setups), st.p50, st.p90, st.rps,
              st.rps * records_per_ok * 1e-6, gain.geomean());

    Json named = Json::object();
    if (estimate) {
        named["estimate_p50_us"] = st.p50 * 1e3;
        named["estimate_p90_us"] = st.p90 * 1e3;
        named["estimate_p99_us"] = st.p99 * 1e3;
        named["estimate_rps"] = st.rps;
        named["estimate_abs_err"] = err.mean();
    } else {
        named["exact_p50_ms"] = st.p50;
        named["exact_p90_ms"] = st.p90;
        named["exact_rps"] = st.rps;
    }
    out.detail["named"] = std::move(named);
    out.detail["latency_samples"] = loop.attempted;
    out.detail["windows"] = st.windows;
    out.detail["wall_s"] = loop.wallS;
    return out;
}

} // anonymous namespace

Outcome
runEndToEnd(const Draw &draw, const Options &opt, bool traced)
{
    if (draw.workload == "grid8")
        return runGrid8(draw, opt, traced);
    return runServe(draw, opt, traced);
}

} // namespace perfbench
