/**
 * @file
 * Load benchmark for the placement-advisor service (src/serve/): an
 * in-process Server on a Unix socket, hammered by client threads, in
 * two phases:
 *
 *   steady    a working set of distinct kernels cycled by a few
 *             clients: after one cold pass everything is a cache hit.
 *             Tracked: qps, hit rate, p50/p99 client round trip and
 *             p50/p99 server-side service latency.
 *   overload  a tiny server (1 worker, short queue, stalled
 *             classifier) offered ~2x its capacity of all-distinct
 *             requests. The robustness contract under test: the server
 *             stays up, refuses the excess with structured BUSY
 *             (shed_fraction > 0), and the p99 of *accepted* requests
 *             stays within the request deadline (degraded answers keep
 *             the budget honest).
 *
 * Output: one row per phase and BENCH_serve_qps.json (schema
 * ladm-serve-v1). rtt_p50us/rtt_p99us time every client place() call
 * of the phase (to 0.1 us); srv_p50us/srv_p99us are the server's
 * serve.latency_us histogram in whole us, which covers the server's
 * lifetime -- with --connect, the daemon's whole history, so those
 * columns are headed life_p50us/life_p99us there. Absolute qps is
 * machine-dependent and NOT a committed baseline; the gates are the
 * structural assertions above, so the bench is its own CI check (exit 1
 * on violation).
 *
 * Flags (--help lists them): --seconds, --clients, --kernels, and
 * --connect ADDR, which skips the in-process servers and drives an
 * external daemon (tools/ladm_served.cc) in one "external" phase with
 * stats fetched over the wire; the CI smoke job uses it to exercise
 * SIGTERM/exit-75 and journal warm restart, gating the replayed
 * journal's hit rate with --min-hit-rate.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "config/options.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/json_writer.hh"

using namespace ladm;

namespace
{

const char *kSgemm = R"(
kernel sgemm(A, B, C) {
    let W   = gridDim.x * blockDim.x;
    let Row = blockIdx.y * 16 + threadIdx.y;
    let Col = blockIdx.x * 16 + threadIdx.x;
    loop m {
        read A[Row * W + m * 16 + threadIdx.x] : f32;
        read B[(m * 16 + threadIdx.y) * W + Col] : f32;
    }
    write C[Row * W + Col] : f32;
}
)";

serve::PlacementRequest
request(int variant, uint32_t deadline_us)
{
    serve::PlacementRequest req;
    req.kernelSource = kSgemm;
    req.dims.grid = {16 + variant, 16 + variant};
    req.dims.block = {16, 16};
    req.dims.loopTrips = 32;
    req.argBytes = {4u << 20, 4u << 20, 4u << 20};
    req.deadlineUs = deadline_us;
    return req;
}

std::string
socketAddress(const char *phase)
{
    return "unix:/tmp/ladm_bench_serve_" + std::string(phase) + "_" +
           std::to_string(::getpid()) + ".sock";
}

struct PhaseResult
{
    std::string name;
    double seconds = 0.0;
    uint64_t completed = 0; ///< ok replies observed by the clients
    uint64_t busy = 0;      ///< BUSY/SHUTTING_DOWN replies
    uint64_t errors = 0;    ///< anything else
    double requests = 0.0;  ///< server-side accepted Place frames
    double hitRate = 0.0;
    double shedFraction = 0.0;
    double degradedFraction = 0.0;
    double p50Us = 0.0; ///< server-side, lifetime histogram
    double p99Us = 0.0;
    double rttP50Us = 0.0; ///< client round trip of every place()
    double rttP99Us = 0.0;

    double qps() const
    {
        return seconds > 0.0 ? static_cast<double>(completed) / seconds
                             : 0.0;
    }
};

/** Flat serve.* stats fetched over the wire (works for any server). */
std::map<std::string, double>
wireStats(const std::string &address)
{
    std::map<std::string, double> m;
    serve::Client client(address);
    std::vector<std::pair<std::string, double>> rows;
    if (client.stats(&rows))
        for (auto &kv : rows)
            m[kv.first] = kv.second;
    return m;
}

/** The @p q quantile of @p ns (nanoseconds), in us; sorts @p ns. */
double
quantileUs(std::vector<uint32_t> &ns, double q)
{
    if (ns.empty())
        return 0.0;
    std::sort(ns.begin(), ns.end());
    const size_t i = std::min(ns.size() - 1,
                              static_cast<size_t>(q * ns.size()));
    return ns[i] / 1000.0;
}

/**
 * Run @p clients threads against the server at @p address for
 * @p seconds, each cycling its own stride through @p kernels distinct
 * requests and timing each place() round trip. Counter-style stats are
 * deltas across the phase, so an external daemon with history reads the
 * same as a fresh one; the server's latency percentiles are not.
 */
PhaseResult
runPhase(const char *name, const std::string &address, int clients,
         int kernels, double seconds, uint32_t deadline_us)
{
    PhaseResult res;
    res.name = name;
    const std::map<std::string, double> before = wireStats(address);
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> completed{0}, busy{0}, errors{0};
    std::vector<std::vector<uint32_t>> rtt_ns(static_cast<size_t>(clients));

    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            serve::Client client(address,
                                 static_cast<uint64_t>(c) + 1);
            std::vector<uint32_t> &rtt = rtt_ns[static_cast<size_t>(c)];
            int i = c; // stagger the strides so misses interleave
            while (!stop.load(std::memory_order_relaxed)) {
                const serve::PlacementRequest req =
                    request(i % kernels, deadline_us);
                const auto t0 = std::chrono::steady_clock::now();
                const serve::ServeResult r = client.place(req);
                const auto ns = std::chrono::duration_cast<
                                    std::chrono::nanoseconds>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count();
                rtt.push_back(static_cast<uint32_t>(
                    std::min<int64_t>(ns, UINT32_MAX)));
                if (r.ok())
                    ++completed;
                else if (r.code == ErrCode::Busy ||
                         r.code == ErrCode::ShuttingDown)
                    ++busy;
                else
                    ++errors;
                ++i;
            }
        });

    const auto t0 = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop = true;
    for (auto &t : threads)
        t.join();
    res.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

    res.completed = completed.load();
    res.busy = busy.load();
    res.errors = errors.load();
    std::map<std::string, double> after = wireStats(address);
    const auto delta = [&](const char *key) {
        const std::string k = std::string("serve.") + key;
        const auto b = before.find(k);
        const auto a = after.find(k);
        return (a == after.end() ? 0.0 : a->second) -
               (b == before.end() ? 0.0 : b->second);
    };
    res.requests = delta("requests");
    const double hits = delta("hits");
    const double shed = delta("shed");
    const double degraded = delta("degraded");
    if (res.requests > 0.0) {
        res.hitRate = hits / res.requests;
        res.shedFraction = shed / res.requests;
        res.degradedFraction = degraded / res.requests;
    }
    res.p50Us = after["serve.latency_us.p50"];
    res.p99Us = after["serve.latency_us.p99"];
    std::vector<uint32_t> all;
    for (const std::vector<uint32_t> &v : rtt_ns)
        all.insert(all.end(), v.begin(), v.end());
    res.rttP50Us = quantileUs(all, 0.50);
    res.rttP99Us = quantileUs(all, 0.99);
    return res;
}

void
printHeader(bool external)
{
    std::printf("%-10s %8s %8s %8s %7s %7s %7s %10s %10s %10s %10s\n",
                "phase", "qps", "ok", "busy", "hit", "shed", "degr",
                "rtt_p50us", "rtt_p99us",
                external ? "life_p50us" : "srv_p50us",
                external ? "life_p99us" : "srv_p99us");
}

void
printPhase(const PhaseResult &r)
{
    std::printf("%-10s %8.0f %8llu %8llu %7.3f %7.3f %7.3f %10.1f %10.1f "
                "%10.0f %10.0f\n",
                r.name.c_str(), r.qps(),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.busy), r.hitRate,
                r.shedFraction, r.degradedFraction, r.rttP50Us, r.rttP99Us,
                r.p50Us, r.p99Us);
}

/** One phase object of BENCH_serve_qps.json. */
void
writePhase(telemetry::JsonWriter &w, const PhaseResult &r)
{
    w.beginObject();
    w.kv("name", r.name);
    w.kv("qps", r.qps());
    w.kv("completed", static_cast<double>(r.completed));
    w.kv("busy", static_cast<double>(r.busy));
    w.kv("errors", static_cast<double>(r.errors));
    w.kv("hit_rate", r.hitRate);
    w.kv("shed_fraction", r.shedFraction);
    w.kv("degraded_fraction", r.degradedFraction);
    w.kv("rtt_p50_us", std::round(r.rttP50Us * 10.0) / 10.0);
    w.kv("rtt_p99_us", std::round(r.rttP99Us * 10.0) / 10.0);
    w.kv("p50_us", r.p50Us);
    w.kv("p99_us", r.p99Us);
    w.endObject();
}

int
benchMain(int argc, char **argv)
{
    double seconds = 1.5;
    int clients = 4;
    int kernels = 16;
    std::string connect;
    double min_hit_rate = -1.0;
    opt::parse(
        argc, argv, 0,
        {opt::local("--seconds", &seconds,
                    "measured duration per phase (default 1.5)", 0),
         opt::local("--clients", &clients,
                    "steady-phase client threads (default 4)"),
         opt::local("--kernels", &kernels,
                    "steady-phase working-set size (default 16)"),
         opt::local("--connect", &connect,
                    "drive an external daemon at this address instead"),
         opt::local("--min-hit-rate", &min_hit_rate,
                    "with --connect: smallest allowed hit rate")});

    std::printf("Placement-advisor service load (src/serve)\n");
    printHeader(!connect.empty());

    // --- external mode: drive a daemon someone else started -------------
    if (!connect.empty()) {
        const uint32_t deadline_us = 100000;
        const PhaseResult ext = runPhase("external", connect, clients,
                                         kernels, seconds, deadline_us);
        printPhase(ext);
        {
            std::ofstream os("BENCH_serve_qps.json");
            if (os) {
                telemetry::JsonWriter w(os, 1);
                w.beginObject();
                w.kv("schema", "ladm-serve-v1");
                w.kv("bench", "serve_qps");
                w.kv("seconds", seconds);
                w.kv("connect", connect);
                // p50_us/p99_us: the daemon's lifetime histogram.
                w.kv("server_latency", "lifetime");
                w.key("phases");
                w.beginArray();
                writePhase(w, ext);
                w.endArray();
                w.endObject();
                os << '\n';
            }
        }
        int failures = 0;
        if (ext.completed == 0) {
            std::fprintf(stderr, "[serve-qps] FAIL: no requests "
                                 "completed against %s\n",
                         connect.c_str());
            ++failures;
        }
        if (min_hit_rate >= 0.0 && ext.hitRate < min_hit_rate) {
            std::fprintf(stderr,
                         "[serve-qps] FAIL: hit rate %.3f below the "
                         "%.3f floor (journal replay broken?)\n",
                         ext.hitRate, min_hit_rate);
            ++failures;
        }
        if (failures == 0)
            std::printf("[serve-qps] PASS: %.0f qps against %s, hit "
                        "rate %.3f\n",
                        ext.qps(), connect.c_str(), ext.hitRate);
        return failures == 0 ? 0 : 1;
    }

    // --- steady: warm working set, real classifier ----------------------
    const uint32_t steady_deadline_us = 100000;
    PhaseResult steady;
    {
        serve::ServerOptions o;
        o.listen = socketAddress("steady");
        o.workers = 4;
        o.queueCapacity = 64;
        serve::Server server(o);
        server.start();
        steady = runPhase("steady", server.address(), clients, kernels, seconds,
                          steady_deadline_us);
        server.shutdown();
        printPhase(steady);
    }

    // --- overload: ~2x capacity offered, all-distinct requests ----------
    // 1 worker x 20 ms stalled classifier = ~50 computations/sec of
    // capacity; 8 clients bouncing off a 10 ms degraded budget offer an
    // order of magnitude more. The excess MUST shed as BUSY.
    const uint32_t overload_deadline_us = 100000;
    PhaseResult overload;
    bool alive = false;
    {
        serve::ServerOptions o;
        o.listen = socketAddress("overload");
        o.workers = 1;
        o.queueCapacity = 2;
        o.classifierBudgetUs = 10000;
        o.faultSpec = "stall:20000";
        serve::Server server(o);
        server.start();
        overload = runPhase("overload", server.address(), 8, 4096, seconds,
                            overload_deadline_us);
        serve::Client probe(server.address());
        alive = probe.ping();
        server.shutdown();
        printPhase(overload);
    }

    {
        std::ofstream os("BENCH_serve_qps.json");
        if (os) {
            telemetry::JsonWriter w(os, 1);
            w.beginObject();
            w.kv("schema", "ladm-serve-v1");
            w.kv("bench", "serve_qps");
            w.kv("seconds", seconds);
            w.kv("clients", static_cast<double>(clients));
            w.kv("kernels", static_cast<double>(kernels));
            w.kv("server_latency", "phase");
            w.key("phases");
            w.beginArray();
            for (const PhaseResult *r : {&steady, &overload})
                writePhase(w, *r);
            w.endArray();
            w.endObject();
            os << '\n';
            std::printf("[bench] wrote BENCH_serve_qps.json\n");
        }
    }

    // --- structural gates (self-contained; no machine baseline) ---------
    int failures = 0;
    const auto gate = [&](bool ok, const char *what) {
        if (!ok) {
            std::fprintf(stderr, "[serve-qps] FAIL: %s\n", what);
            ++failures;
        }
    };
    gate(steady.completed > 0, "steady phase completed no requests");
    gate(steady.hitRate >= 0.5,
         "steady-phase hit rate below 0.5 (cache not working)");
    gate(steady.p99Us > 0.0 &&
             steady.p99Us <= static_cast<double>(steady_deadline_us),
         "steady-phase p99 outside the request deadline");
    gate(alive, "server unreachable after overload (did it crash?)");
    gate(overload.busy > 0 && overload.shedFraction > 0.0,
         "overload did not shed (queue must refuse excess load)");
    gate(overload.completed > 0,
         "overload starved accepted requests entirely");
    gate(overload.p99Us > 0.0 &&
             overload.p99Us <= static_cast<double>(overload_deadline_us),
         "overload p99 of accepted requests outside the deadline");
    gate(overload.errors == 0,
         "overload produced non-BUSY errors");

    if (failures == 0)
        std::printf("[serve-qps] PASS: served %.0f qps steady / %.0f "
                    "qps under 2x overload, shed %.0f%%, server p99 "
                    "%.0fus, steady round-trip p99 %.1fus\n",
                    steady.qps(), overload.qps(),
                    overload.shedFraction * 100.0, overload.p99Us,
                    steady.rttP99Us);
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return ladm::snapshot::runMain([&] { return benchMain(argc, argv); });
}
