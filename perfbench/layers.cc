/**
 * @file
 * The per-layer drivers of the traced run.  Each re-drives the
 * workload's own inputs (its mixes, policies, geometries and window)
 * through one layer's public functions and times the calls from here,
 * inside spans.  Nothing in the program is instrumented.
 *
 * The mem/policy/core replays feed a captured stream: the records of
 * the draw's widest mix, interleaved round-robin across cores, which
 * only approximates System's local-time order.  Their figures are
 * replay costs; the simulated counts (mem.llc.*, mem.dram.*) come
 * from the real runs of the sim driver.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "core/nucache.hh"
#include "core/pc_selection.hh"
#include "mem/cache.hh"
#include "model/predictor.hh"
#include "model/profile.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "sim/policies.hh"
#include "sim/run_engine.hh"
#include "sim/system.hh"
#include "trace/arena.hh"

namespace perfbench
{

namespace
{

/** Records per core of the captured replay stream. */
constexpr std::uint64_t kReplayRecords = 200'000;

/** Minimum timed duration of a repeated micro-call, seconds. */
constexpr double kMinTimed = 0.25;

void
put(Metrics &m, const std::string &name, double v, const char *unit)
{
    m[name] = {v, unit};
}

/** @return a key for the hierarchy a request runs on. */
std::string
geometryKey(const DrawnRequest &r)
{
    return std::to_string(r.mix.workloads.size()) + "c/" +
           std::to_string(r.llcKib) + "k/" + std::to_string(r.llcWays) +
           "w";
}

/** The draw's widest request: the mix the replays use. */
const DrawnRequest &
widest(const Draw &draw)
{
    const DrawnRequest *best = &draw.requests.front();
    for (const auto &r : draw.requests)
        if (r.mix.workloads.size() > best->mix.workloads.size())
            best = &r;
    return *best;
}

/** Time @p fn repeatedly for at least kMinTimed; @return s per call. */
template <typename Fn>
double
perCall(Fn &&fn, int min_calls = 3)
{
    int calls = 0;
    const std::uint64_t t0 = nowNs();
    while (calls < min_calls || secondsSince(t0) < kMinTimed) {
        fn();
        ++calls;
    }
    return secondsSince(t0) / calls;
}

// ------------------------------------------------------------- trace

void
traceLayer(const Draw &draw, Metrics &m)
{
    SpanScope root("trace", "trace layer");
    const auto names = draw.workloadNames();
    nucache::TraceArena::instance().clear();
    double materialize = 0.0;
    for (const auto &w : names) {
        const std::uint64_t t0 = nowNs();
        {
            SpanScope s("trace", "materialize " + w, root.trace(), root.id());
            nucache::TraceArena::instance().get(w);
        }
        materialize += secondsSince(t0);
    }

    std::uint64_t records = 0;
    const std::uint64_t t0 = nowNs();
    for (const auto &w : names) {
        SpanScope s("trace", "replay " + w, root.trace(), root.id());
        nucache::ArenaCursor cursor(w, nucache::TraceArena::instance().get(w));
        nucache::TraceRecord rec;
        while (cursor.next(rec)) {
            keepAlive(&rec);
            ++records;
        }
    }
    const double replay = secondsSince(t0);
    put(m, "trace.materialize_s", materialize, "s");
    put(m, "trace.ns_per_record", replay * 1e9 / double(records), "ns");
}

// --------------------------------------------------------------- sim

struct SimFigures
{
    double lruSystemNs = 0.0;
    /** Exact per-core LLC hit rates of every drawn cell. */
    std::map<std::string, std::vector<double>> hitRates;
};

/** @return the key of one drawn cell, in either mode. */
std::string
cellKey(const DrawnRequest &r)
{
    return r.inMode(false).key();
}

SimFigures
simLayer(const Draw &draw, Metrics &m, Outcome &out)
{
    SpanScope root("sim", "sim layer");
    SimFigures fig;

    // Every drawn cell once, on one fresh engine's pool.
    nucache::RunEngine engine(draw.records, draw.jobs);
    const std::size_t n = draw.requests.size();
    std::vector<nucache::MixResult> results(n);
    std::vector<std::uint64_t> begin(n), end(n);
    const std::uint64_t t0 = nowNs();
    engine.parallelFor(n, [&](std::size_t k) {
        const DrawnRequest &r = draw.requests[k];
        begin[k] = nowNs();
        results[k] = engine.runMix(r.mix, r.policy, hierarchyOf(r));
        end[k] = nowNs();
    });
    const double wall = secondsSince(t0);
    std::vector<double> cells;
    std::uint64_t llc_acc = 0, llc_hits = 0, wb = 0, dram = 0, dramq = 0;
    for (std::size_t k = 0; k < n; ++k) {
        const DrawnRequest &r = draw.requests[k];
        cells.push_back(double(end[k] - begin[k]) * 1e-9);
        Spans::instance().add("sim", "runMix " + r.key(),
                              Spans::instance().newTrace(), root.id(),
                              begin[k], end[k]);
        const auto &sys = results[k].system;
        fig.hitRates[cellKey(r)] = llcHitRates(sys);
        for (const auto &c : sys.cores) {
            llc_acc += c.llc.accesses;
            llc_hits += c.llc.hits;
        }
        wb += sys.llcWritebacks;
        dram += sys.dramReads;
        dramq += sys.dramQueueCycles;
        if (!std::isfinite(results[k].weightedSpeedup) ||
            results[k].weightedSpeedup <= 0.0)
            out.errors.push_back("sim layer: bad cell " + r.key());
    }
    double busy = 0.0;
    for (double c : cells)
        busy += c;
    put(m, "sim.cell_s_p50", median(cells), "s");
    put(m, "sim.cell_s_max", *std::max_element(cells.begin(), cells.end()),
        "s");
    put(m, "sim.worker_busy_frac", busy / (draw.jobs * wall), "fraction");
    put(m, "sim.alone_runs", double(engine.aloneRunCount()), "count");
    put(m, "mem.llc.accesses", double(llc_acc), "count");
    put(m, "mem.llc.hit_rate",
        llc_acc ? double(llc_hits) / double(llc_acc) : 0.0, "fraction");
    put(m, "mem.llc.writebacks", double(wb), "count");
    put(m, "mem.dram.reads", double(dram), "count");
    put(m, "mem.dram.queue_cycles", double(dramq), "cycles");

    // Run-alone baselines timed on a fresh single-worker engine.
    {
        nucache::RunEngine alone(draw.records, 1);
        std::set<std::string> done;
        const std::uint64_t t0 = nowNs();
        for (const auto &r : draw.requests)
            for (const auto &w : r.mix.workloads)
                if (done.insert(geometryKey(r) + w).second) {
                    SpanScope s("sim", "aloneIpc " + w, root.trace(),
                                root.id());
                    alone.aloneIpc(w, hierarchyOf(r));
                }
        put(m, "sim.alone_s", secondsSince(t0), "s");
    }

    // System::run per policy on the widest mix.
    const DrawnRequest &wide = widest(draw);
    const nucache::HierarchyConfig hier = hierarchyOf(wide);
    std::vector<std::string> policies;
    for (const auto &r : draw.requests)
        if (std::find(policies.begin(), policies.end(), r.policy) ==
            policies.end())
            policies.push_back(r.policy);
    double sum_ns = 0.0;
    const double accesses =
        double(wide.mix.workloads.size() * draw.records);
    for (const auto &p : policies) {
        std::vector<nucache::TraceSourcePtr> traces;
        for (const auto &w : wide.mix.workloads)
            traces.push_back(nucache::TraceArena::instance().open(w));
        nucache::System sys(hier, nucache::makePolicy(p), std::move(traces),
                            draw.records);
        const std::uint64_t t0 = nowNs();
        {
            SpanScope s("sim", "System::run " + p, root.trace(), root.id());
            sys.run();
        }
        const double ns = secondsSince(t0) * 1e9 / accesses;
        sum_ns += ns;
        if (p == "lru")
            fig.lruSystemNs = ns;
    }
    put(m, "sim.system_ns_per_access", sum_ns / double(policies.size()),
        "ns");
    return fig;
}

// ------------------------------------------------ mem, policy and core

void
replayLayers(const Draw &draw, Metrics &m, const SimFigures &sim)
{
    SpanScope root("mem", "replay layers");
    const DrawnRequest &wide = widest(draw);
    const nucache::HierarchyConfig hier = hierarchyOf(wide);
    const std::size_t cores = wide.mix.workloads.size();

    // Core-interleaved records, with the per-core address and PC
    // spacing TraceCpu applies.
    struct Rec
    {
        std::uint32_t core;
        nucache::TraceRecord rec;
    };
    std::vector<Rec> stream;
    stream.reserve(cores * kReplayRecords);
    {
        std::vector<nucache::TraceArena::Buffer> bufs;
        for (const auto &w : wide.mix.workloads)
            bufs.push_back(nucache::TraceArena::instance().get(w));
        for (std::uint64_t i = 0; i < kReplayRecords; ++i) {
            for (std::uint32_t c = 0; c < cores; ++c) {
                nucache::TraceRecord r = (*bufs[c])[i % bufs[c]->size()];
                r.addr += static_cast<nucache::Addr>(c) << 38;
                r.pc |= static_cast<nucache::PC>(c) << 48;
                stream.push_back({c, r});
            }
        }
    }
    const double n = double(stream.size());

    // Whole hierarchy under LRU.
    double hier_ns = 0.0;
    {
        nucache::MemoryHierarchy mh(hier, nucache::makePolicy("lru"));
        std::vector<nucache::Cycles> now(cores, 0);
        SpanScope s("mem", "MemoryHierarchy::access", root.trace(),
                    root.id());
        const std::uint64_t t0 = nowNs();
        for (const Rec &r : stream) {
            now[r.core] += r.rec.nonMemGap;
            now[r.core] += mh.access(r.core, r.rec.addr, r.rec.pc,
                                     r.rec.isWrite, now[r.core]);
        }
        hier_ns = secondsSince(t0) * 1e9 / n;
    }
    put(m, "mem.hier.ns_per_access", hier_ns, "ns");
    put(m, "sim.cpu_ns_per_access", sim.lruSystemNs - hier_ns, "ns");

    // Private L1s; their demand misses become the LLC stream.
    std::vector<nucache::AccessInfo> misses;
    {
        std::vector<std::unique_ptr<nucache::Cache>> l1;
        for (std::size_t c = 0; c < cores; ++c)
            l1.push_back(std::make_unique<nucache::Cache>(
                hier.l1, nucache::makePolicy("lru"), 1));
        std::uint64_t hits = 0;
        std::vector<std::uint8_t> hit(stream.size());
        SpanScope s("mem", "l1 Cache::access", root.trace(), root.id());
        const std::uint64_t t0 = nowNs();
        for (std::size_t i = 0; i < stream.size(); ++i) {
            nucache::AccessInfo info;
            info.addr = stream[i].rec.addr;
            info.pc = stream[i].rec.pc;
            info.isWrite = stream[i].rec.isWrite;
            hit[i] = l1[stream[i].core]->access(info).hit;
        }
        const double l1_ns = secondsSince(t0) * 1e9 / n;
        misses.reserve(stream.size() / 2);
        for (std::size_t i = 0; i < stream.size(); ++i) {
            hits += hit[i];
            if (hit[i])
                continue;
            nucache::AccessInfo info;
            info.addr = stream[i].rec.addr;
            info.pc = stream[i].rec.pc;
            info.coreId = static_cast<nucache::CoreId>(stream[i].core);
            info.isWrite = stream[i].rec.isWrite;
            misses.push_back(info);
        }
        put(m, "mem.l1.ns_per_access", l1_ns, "ns");
        put(m, "mem.l1.hit_rate", double(hits) / n, "fraction");
    }
    if (misses.empty())
        throw std::runtime_error("replay: the L1s absorbed every record");

    // The shared LLC under each policy, fed the same miss stream.
    const std::vector<std::pair<std::string, std::string>> policies = {
        {"lru", "mem.llc.lru_ns_per_access"},
        {"dip", "policy.dip.llc_ns_per_access"},
        {"tadip", "policy.tadip.llc_ns_per_access"},
        {"ucp", "policy.ucp.llc_ns_per_access"},
        {"pipp", "policy.pipp.llc_ns_per_access"},
        {"nucache", "core.nucache.llc_ns_per_access"},
    };
    for (const auto &[policy, metric] : policies) {
        nucache::Cache llc(hier.llc, nucache::makePolicy(policy),
                           static_cast<std::uint32_t>(cores));
        const std::uint64_t t0 = nowNs();
        {
            SpanScope s(policy == "nucache" ? "core"
                        : policy == "lru"   ? "mem"
                                            : "policy",
                        "llc Cache::access " + policy, root.trace(),
                        root.id());
            for (const auto &info : misses)
                llc.access(info);
        }
        put(m, metric, secondsSince(t0) * 1e9 / double(misses.size()), "ns");
        if (policy != "nucache")
            continue;

        const auto *nu =
            dynamic_cast<const nucache::NUcachePolicy *>(&llc.policy());
        if (nu == nullptr)
            throw std::runtime_error("nucache spec built another policy");
        const double llc_hits = double(llc.totalStats().hits);
        put(m, "core.nucache.deli_hits", double(nu->deliHits()), "count");
        put(m, "core.nucache.deli_hit_share",
            llc_hits > 0 ? double(nu->deliHits()) / llc_hits : 0.0,
            "fraction");
        put(m, "core.nucache.epochs", double(nu->epochsRun()), "count");
        put(m, "core.nucache.churn", double(nu->selectionChurn()), "count");

        // One selection call on this run's candidate snapshot, with
        // the per-core scaled pool NUcachePolicy::init provisions.
        nucache::PcSelectionConfig sel;
        sel.candidatePcs *= static_cast<std::uint32_t>(cores);
        sel.maxSelected *= static_cast<std::uint32_t>(cores);
        const auto candidates = nu->monitor().topDelinquent(sel.candidatePcs);
        const std::vector<nucache::PC> previous(nu->selectedPcs().begin(),
                                                nu->selectedPcs().end());
        const std::uint64_t capacity =
            std::uint64_t{nu->numDeliWays()} * llc.numSets();
        SpanScope s("core", "selectDelinquentPcs", root.trace(), root.id());
        const double per = perCall([&] {
            const auto r = nucache::selectDelinquentPcs(
                candidates, capacity, nu->monitor().totalMisses(), sel,
                previous);
            keepAlive(&r);
        });
        put(m, "core.selection.ms_per_call", per * 1e3, "ms");
        put(m, "core.selection.pool", double(candidates.size()), "count");
    }
}

// ------------------------------------------------------------- model

void
modelLayer(const Draw &draw, Metrics &m, const SimFigures &sim)
{
    SpanScope root("model", "model layer");
    auto &store = nucache::model::ProfileStore::instance();
    store.clear();
    const std::uint64_t built0 = store.built();
    const std::uint64_t t0 = nowNs();
    for (const auto &w : draw.workloadNames()) {
        SpanScope s("model", "ProfileStore::get " + w, root.trace(),
                    root.id());
        store.get(w, draw.records);
    }
    put(m, "model.profile_build_s", secondsSince(t0), "s");
    put(m, "model.profile_builds", double(store.built() - built0), "count");

    struct Job
    {
        std::vector<nucache::model::ProfilePtr> profiles;
        nucache::HierarchyConfig hier;
        std::string policy;
        const std::vector<double> *exact;
    };
    std::vector<Job> jobs;
    for (const auto &r : draw.requests) {
        std::string err;
        if (!nucache::model::estimateSupported(r.policy, err))
            continue;
        Job j;
        for (const auto &w : r.mix.workloads)
            j.profiles.push_back(store.get(w, draw.records));
        j.hier = hierarchyOf(r);
        j.policy = r.policy;
        j.exact = &sim.hitRates.at(cellKey(r));
        jobs.push_back(std::move(j));
    }

    // The model against the sim driver's exact runs of the same cells.
    double err = 0.0;
    std::uint64_t n = 0;
    for (const Job &j : jobs) {
        const auto est = nucache::model::estimateMix(j.profiles, j.hier,
                                                     j.policy);
        for (std::size_t c = 0; c < std::min(est.cores.size(),
                                             j.exact->size());
             ++c, ++n)
            err += std::fabs(est.cores[c].hitRate - (*j.exact)[c]);
    }
    put(m, "model.abs_err", n ? err / double(n) : 0.0, "fraction");
    SpanScope s("model", "estimateMix", root.trace(), root.id());
    const double per = perCall([&] {
        for (const Job &j : jobs) {
            const auto est =
                nucache::model::estimateMix(j.profiles, j.hier, j.policy);
            keepAlive(&est);
        }
    });
    put(m, "model.estimate_us", per * 1e6 / double(jobs.size()), "us");
}

// ------------------------------------------------------------- serve

void
serveLayer(const Draw &draw, Metrics &m)
{
    SpanScope root("serve", "serve layer");
    std::vector<std::string> lines, est_lines, exact_lines;
    for (std::size_t i = 0; i < draw.requests.size(); ++i) {
        const DrawnRequest &r = draw.requests[i];
        exact_lines.push_back(r.inMode(false).line(i + 1, draw.records));
        lines.push_back(exact_lines.back());
        std::string err;
        if (!nucache::model::estimateSupported(r.policy, err))
            continue;
        est_lines.push_back(r.inMode(true).line(i + 1, draw.records));
        lines.push_back(est_lines.back());
    }

    {
        SpanScope s("serve", "parseRequest", root.trace(), root.id());
        const double per = perCall([&] {
            for (const auto &l : lines) {
                nucache::serve::Request req;
                std::string err;
                if (!nucache::serve::parseRequest(l, req, err))
                    throw std::runtime_error("parseRequest: " + err);
            }
        });
        put(m, "serve.parse_us", per * 1e6 / double(lines.size()), "us");
    }

    // Estimates: in the service directly, then over loopback.  The
    // model driver ran first, so every profile is warm.
    std::vector<nucache::serve::Request> est_reqs;
    for (const auto &l : est_lines) {
        nucache::serve::Request req;
        std::string err;
        nucache::serve::parseRequest(l, req, err);
        est_reqs.push_back(req);
    }
    nucache::serve::ServiceConfig scfg;
    scfg.jobs = draw.jobs;
    scfg.defaultRecords = draw.records;
    double service_us = 0.0;
    {
        nucache::serve::SimulationService svc(scfg);
        std::vector<double> each;
        SpanScope s("serve", "SimulationService::tryEstimate",
                    root.trace(), root.id());
        const std::uint64_t t0 = nowNs();
        while (each.size() < est_reqs.size() || secondsSince(t0) < kMinTimed) {
            const auto &req = est_reqs[each.size() % est_reqs.size()];
            std::string payload;
            const std::uint64_t c0 = nowNs();
            if (!svc.tryEstimate(req, payload))
                throw std::runtime_error("tryEstimate declined a request");
            each.push_back(secondsSince(c0) * 1e6);
        }
        service_us = median(each);
        put(m, "serve.service_estimate_us", service_us, "us");
    }
    {
        auto server = startServer(draw);
        Client client(server->port());
        std::vector<double> each;
        SpanScope s("serve", "estimate over loopback", root.trace(),
                    root.id());
        const std::uint64_t t0 = nowNs();
        while (each.size() < 200 || secondsSince(t0) < 2 * kMinTimed)
            each.push_back(
                client.call(est_lines[each.size() % est_lines.size()]) * 1e6);
        put(m, "serve.transport_us", median(each) - service_us, "us");
    }

    // Exact requests: executeBatch on a fresh service, then the same
    // requests over loopback on a fresh server with the workload's
    // connection count.  Bounded by time; at least one request.
    constexpr double kExactBudget = 3.0;
    std::vector<double> execute_ms;
    std::size_t k = 0;
    {
        nucache::serve::SimulationService svc(scfg);
        SpanScope s("serve", "SimulationService::executeBatch",
                    root.trace(), root.id());
        const std::uint64_t t0 = nowNs();
        for (; k < exact_lines.size() &&
               (k == 0 || secondsSince(t0) < kExactBudget);
             ++k) {
            nucache::serve::Request req;
            std::string err;
            nucache::serve::parseRequest(exact_lines[k], req, err);
            bool ok = false;
            const std::uint64_t c0 = nowNs();
            svc.executeBatch({req}, [&](std::size_t, Json resp) {
                const Json *f = resp.find("ok");
                ok = f != nullptr && f->asBool();
            });
            execute_ms.push_back(secondsSince(c0) * 1e3);
            if (!ok)
                throw std::runtime_error("executeBatch failed: " +
                                         exact_lines[k]);
        }
    }
    {
        auto server = startServer(draw);
        const unsigned conns = std::max(1u, draw.connections);
        std::vector<double> client_ms(k);
        std::vector<std::string> failures(conns);
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < conns; ++c)
            threads.emplace_back([&, c] {
                try {
                    Client client(server->port());
                    for (std::size_t i; (i = next.fetch_add(1)) < k;)
                        client_ms[i] = client.call(exact_lines[i]) * 1e3;
                } catch (const std::exception &e) {
                    failures[c] = e.what();
                }
            });
        for (auto &t : threads)
            t.join();
        for (const auto &f : failures)
            if (!f.empty())
                throw std::runtime_error("serve layer: " + f);
        put(m, "serve.execute_ms", median(execute_ms), "ms");
        put(m, "serve.queue_ms", median(client_ms) - median(execute_ms),
            "ms");
    }
}

} // anonymous namespace

Outcome
runLayers(const Draw &draw)
{
    Outcome out;
    Metrics &m = out.metrics;
    traceLayer(draw, m);
    const SimFigures sim = simLayer(draw, m, out);
    replayLayers(draw, m, sim);
    modelLayer(draw, m, sim);
    serveLayer(draw, m);
    out.attempted = 1;
    return out;
}

} // namespace perfbench
