/**
 * @file
 * serve_mix: an in-process placement-advisor Server (2 workers, journal
 * on) on a unix socket, driven closed-loop by 2 client connections.
 *
 * 90% of requests come from a fixed 64-kernel hot set whose decisions
 * were journaled during set-up, so they are cache hits. 10% are
 * never-seen variants chosen by the seed: each is a cold parse and
 * classify on the server plus a journal append. Every ok reply is
 * byte-compared with computeDecision(req, cfg).encode(), computed
 * outside the timed window.
 */

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include <unistd.h>

#include "common/rng.hh"
#include "runner.hh"
#include "serve/cache.hh"
#include "serve/client.hh"
#include "serve/server.hh"

using namespace ladm;
using namespace ladm::serve;

namespace perfbench
{

namespace
{

constexpr int kHotKernels = 64;
constexpr size_t kClients = 2;
/** Per client and pass: one to two seconds on a 4-core host. */
constexpr uint64_t kRequestsPerPass = 25000;
constexpr uint64_t kArgBytes = 4u << 20;
// In the working directory, which run.py makes private to the run.
constexpr const char *kJournal = "serve.jrnl";
constexpr const char *kScratchJournal = "append.jrnl";
constexpr const char *kSocket = "serve.sock";

struct KernelShape
{
    const char *source;
    bool twoD;
    int64_t loopTrips;
    int args;
};

// Four access shapes, so the hot set spans several Table II rows.
const KernelShape kShapes[] = {
    {R"(kernel sgemm(A, B, C) {
    let W   = gridDim.x * blockDim.x;
    let Row = blockIdx.y * 16 + threadIdx.y;
    let Col = blockIdx.x * 16 + threadIdx.x;
    loop m {
        read A[Row * W + m * 16 + threadIdx.x] : f32;
        read B[(m * 16 + threadIdx.y) * W + Col] : f32;
    }
    write C[Row * W + Col] : f32;
})",
     true, 32, 3},
    {R"(kernel vecadd(A, B, C) {
    let i = blockIdx.x * blockDim.x + threadIdx.x;
    read A[i] : f32;
    read B[i] : f32;
    write C[i] : f32;
})",
     false, 0, 3},
    {R"(kernel stencil(A, B) {
    let W = gridDim.x * blockDim.x;
    let x = blockIdx.x * 16 + threadIdx.x;
    let y = blockIdx.y * 16 + threadIdx.y;
    read A[y * W + x] : f32;
    read A[y * W + x + 1] : f32;
    read A[(y + 1) * W + x] : f32;
    write B[y * W + x] : f32;
})",
     true, 0, 2},
    {R"(kernel gather(I, X, Y) {
    let i = blockIdx.x * blockDim.x + threadIdx.x;
    loop m {
        read I[i * 8 + m] : i32;
        read X[dataDep] : f32;
    }
    write Y[i] : f32;
})",
     false, 8, 3},
};
constexpr int kNumShapes = sizeof kShapes / sizeof kShapes[0];

/** Hot-set member @p i: shape i % 4, launch geometry variant i / 4. */
PlacementRequest
hotRequest(int i)
{
    const KernelShape &k = kShapes[i % kNumShapes];
    const int64_t v = i / kNumShapes;
    PlacementRequest req;
    req.kernelSource = k.source;
    if (k.twoD) {
        req.dims.grid = {16 + v, 16 + v};
        req.dims.block = {16, 16};
    } else {
        req.dims.grid = {64 + 16 * v, 1};
        req.dims.block = {256, 1};
    }
    req.dims.loopTrips = k.loopTrips;
    req.argBytes.assign(static_cast<size_t>(k.args), kArgBytes);
    return req;
}

/**
 * A never-seen variant: hot member @p base with @p extra bytes (>= 1)
 * added to its first allocation. The size is part of the decision key,
 * so the request misses; the classify work matches a hot member's.
 */
PlacementRequest
coldRequest(int base, uint64_t extra)
{
    PlacementRequest req = hotRequest(base);
    req.argBytes[0] += extra;
    return req;
}

/** One request a client sent, as far as verification needs it. */
struct Sent
{
    int hot = -1;       ///< hot index, or -1 for a cold request
    int base = 0;       ///< cold: hot member it varies
    uint64_t extra = 0; ///< cold: added bytes
    std::string reply;  ///< cold: encoded decision that came back
};

struct Outcomes
{
    uint64_t ok = 0; ///< correct, non-degraded replies
    uint64_t mismatch = 0;
    uint64_t degraded = 0;
    uint64_t busy = 0;
    uint64_t error = 0;
    uint64_t hits = 0;

    void
    add(const Outcomes &o)
    {
        ok += o.ok;
        mismatch += o.mismatch;
        degraded += o.degraded;
        busy += o.busy;
        error += o.error;
        hits += o.hits;
    }
    uint64_t
    total() const
    {
        return ok + mismatch + degraded + busy + error;
    }
};

struct ClientLog
{
    std::vector<float> latencyUs; ///< this pass, in send order
    std::vector<Sent> cold; ///< ok cold replies, verified after the pass
    Outcomes out;
    std::string firstMismatch;
};

/**
 * A client's request stream. It lives across passes, so a cold variant
 * is never sent twice in a run.
 */
struct ClientStream
{
    ClientStream(uint64_t seed, int c)
        : rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(c) + 1),
          client(c)
    {
    }

    /** The next request; fills @p s with what verification needs. */
    PlacementRequest
    next(Sent &s)
    {
        if (rng.nextBounded(10) != 0) {
            s.hot = static_cast<int>(rng.nextBounded(kHotKernels));
            return hotRequest(s.hot);
        }
        s.base = static_cast<int>(rng.nextBounded(kHotKernels));
        // Odd/even extras keep the two clients' variants disjoint.
        do {
            s.extra = 1 + 2 * rng.nextBounded(1u << 19) +
                      static_cast<uint64_t>(client);
        } while (!used.insert(s.extra).second);
        return coldRequest(s.base, s.extra);
    }

    Rng rng;
    int client;
    std::unordered_set<uint64_t> used;
    uint64_t sent = 0;
};

/**
 * One closed-loop client for one pass: send, wait for the reply, repeat,
 * @p requests times.
 */
void
clientLoop(const std::string &address, ClientStream &stream,
           uint64_t requests, const std::vector<std::string> &expected_hot,
           SpanRecorder *rec, ClientLog &log)
{
    Client client(address, stream.rng.next());
    log.latencyUs.reserve(requests);
    for (uint64_t n = 0; n < requests; ++n) {
        Sent s;
        const PlacementRequest req = stream.next(s);
        const uint64_t op = stream.sent++ * kClients + stream.client;

        ServeResult r;
        const auto t0 = Clock::now();
        {
            SpanRecorder::Scope span(rec, "serve.place", op);
            r = client.place(req);
            span.rename(!r.ok()     ? "serve.place.error"
                        : r.cached ? "serve.place.hit"
                                   : "serve.place.miss");
        }
        log.latencyUs.push_back(
            static_cast<float>(secondsSince(t0) * 1e6));

        if (r.code == ErrCode::Busy || r.code == ErrCode::ShuttingDown) {
            ++log.out.busy;
        } else if (!r.ok()) {
            ++log.out.error;
        } else if (r.degraded) {
            ++log.out.degraded;
        } else {
            if (r.cached)
                ++log.out.hits;
            std::string got = r.decision.encode();
            if (s.hot >= 0) {
                if (got == expected_hot[static_cast<size_t>(s.hot)]) {
                    ++log.out.ok;
                } else {
                    ++log.out.mismatch;
                    if (log.firstMismatch.empty())
                        log.firstMismatch =
                            "hot request " + std::to_string(s.hot);
                }
            } else {
                s.reply = std::move(got);
                log.cold.push_back(std::move(s));
            }
        }
    }
}

struct ServePass
{
    double seconds = 0.0;
    Outcomes out;
};

/** Result of one serve session (the workload or the probe). */
struct ServeResultSet
{
    std::vector<double> setupSeconds;
    std::vector<ServePass> passes;
    /** Every request's latency, pass after pass. */
    std::vector<float> latencyUs;
    Outcomes out;
    std::string firstMismatch;
    int64_t peakRssKb = 0; ///< after the first pass
};

/**
 * Compute the hot set's decisions, append them to a fresh journal and
 * start a server that replays it. Returns the running server.
 */
std::unique_ptr<Server>
setUp(const SystemConfig &cfg,
      std::vector<std::string> &expected_hot, SpanRecorder *rec)
{
    ::unlink(kJournal);
    {
        DecisionJournal j;
        j.open(kJournal, [](const DecisionKey &, const std::string &) {});
        expected_hot.clear();
        for (int i = 0; i < kHotKernels; ++i) {
            const PlacementDecision d = computeDecision(hotRequest(i), cfg);
            expected_hot.push_back(d.encode());
            j.append(d.key, expected_hot.back());
        }
        j.close();
    }
    ServerOptions o;
    o.listen = std::string("unix:") + kSocket;
    o.workers = 2;
    o.journalPath = kJournal;
    // A classify takes well under a millisecond, but a busy shared host
    // can stall one for tens. Budgets far above that keep every answer
    // the pipeline's own; degraded replies would count as failures.
    o.classifierBudgetUs = 2000000;
    o.defaultDeadlineUs = 5000000;
    auto server = std::make_unique<Server>(o);
    {
        SpanRecorder::Scope span(rec, "serve.replay", 0);
        server->start();
    }
    if (server->replayed() != static_cast<size_t>(kHotKernels))
        throw std::runtime_error(
            "journal replay restored " +
            std::to_string(server->replayed()) + " of " +
            std::to_string(kHotKernels) + " hot decisions");
    return server;
}

/**
 * Recompute the decision of every ok cold reply and byte-compare it,
 * split over kVerifyThreads threads on every core (computeDecision is
 * pure). Hot replies were compared in the client loop.
 */
void
verifyCold(const SystemConfig &cfg, std::vector<ClientLog> &logs)
{
    constexpr size_t kVerifyThreads = 4;
    for (ClientLog &log : logs) {
        const size_t n = log.cold.size();
        std::vector<char> match(n, 0);
        std::vector<std::thread> threads;
        for (size_t t = 0; t < kVerifyThreads; ++t)
            threads.emplace_back([&, t] {
                unpinThread();
                for (size_t i = t; i < n; i += kVerifyThreads) {
                    const Sent &s = log.cold[i];
                    try {
                        match[i] = computeDecision(
                                       coldRequest(s.base, s.extra), cfg)
                                       .encode() == s.reply;
                    } catch (const std::exception &) {
                        match[i] = 0;
                    }
                }
            });
        for (std::thread &t : threads)
            t.join();
        for (size_t i = 0; i < n; ++i) {
            if (match[i]) {
                ++log.out.ok;
                continue;
            }
            ++log.out.mismatch;
            if (log.firstMismatch.empty())
                log.firstMismatch = "cold variant of hot request " +
                                    std::to_string(log.cold[i].base);
        }
    }
}

/**
 * The traced run's serve-layer probes, after the window and one call at
 * a time: computeDecision on (up to 4096 of) the cold requests, journal
 * appends of their decisions on a scratch journal, and the wire codec.
 */
void
probeLayers(const SystemConfig &cfg,
            const std::vector<ClientLog> &logs,
            const std::vector<std::string> &expected_hot, SpanRecorder *rec)
{
    constexpr size_t kSamples = 4096;
    std::vector<std::string> decisions;
    for (const ClientLog &log : logs)
        for (const Sent &s : log.cold) {
            if (decisions.size() == kSamples)
                break;
            const PlacementRequest req = coldRequest(s.base, s.extra);
            SpanRecorder::Scope span(rec, "serve.classify",
                                     decisions.size());
            decisions.push_back(computeDecision(req, cfg).encode());
        }

    ::unlink(kScratchJournal);
    {
        DecisionJournal j;
        j.open(kScratchJournal,
               [](const DecisionKey &, const std::string &) {});
        const std::vector<std::string> &src =
            decisions.empty() ? expected_hot : decisions;
        for (size_t i = 0; i < src.size(); ++i) {
            const DecisionKey key{i + 1, 0};
            SpanRecorder::Scope span(rec, "serve.journal_append", i);
            j.append(key, src[i]);
        }
        j.close();
    }
    ::unlink(kScratchJournal);

    for (int rep = 0; rep < 16; ++rep) {
        for (int i = 0; i < kHotKernels; ++i) {
            const PlacementRequest req = hotRequest(i);
            SpanRecorder::Scope span(rec, "serve.wire",
                                     static_cast<uint64_t>(rep) *
                                             kHotKernels + i);
            ByteWriter bw;
            req.encode(bw);
            const std::string bytes = bw.take();
            ByteReader br(bytes);
            const PlacementRequest back = PlacementRequest::decode(br);
            const PlacementDecision d = PlacementDecision::decode(
                expected_hot[static_cast<size_t>(i)]);
            if (back.dims.grid.x != req.dims.grid.x ||
                d.args.size() != req.argBytes.size())
                throw std::runtime_error("wire round trip changed a field");
        }
    }
}

/**
 * Run passes until @p seconds of them have been measured (at least one).
 * A pass sets up (journals the hot set and starts a server that replays
 * it), has each client send @p per_pass requests closed-loop, shuts the
 * server down and verifies the cold replies. The set-up and the requests
 * are timed apart. A fresh server per pass keeps the cache the same size
 * in every pass, and makes setup_s a median over the whole run. @p recs
 * holds one span recorder per client when traced (set-up and post-pass
 * spans go to the first), and is empty otherwise.
 */
ServeResultSet
runSession(const RunOptions &opts, double seconds, uint64_t per_pass,
           const std::vector<SpanRecorder *> &recs)
{
    ServeResultSet res;
    SpanRecorder *rec0 = recs.empty() ? nullptr : recs[0];
    const SystemConfig cfg = resolveTopology("", "multi-gpu-4x4");
    std::vector<std::string> expected_hot;
    std::vector<ClientStream> streams;
    for (size_t c = 0; c < kClients; ++c)
        streams.emplace_back(opts.seed, static_cast<int>(c));
    double measured = 0.0;
    for (int pass = 0; pass == 0 || measured < seconds; ++pass) {
        const auto s0 = Clock::now();
        std::unique_ptr<Server> server = setUp(cfg, expected_hot, rec0);
        res.setupSeconds.push_back(secondsSince(s0));
        std::vector<ClientLog> logs(kClients);
        const auto t0 = Clock::now();
        {
            std::vector<std::thread> threads;
            for (size_t c = 0; c < kClients; ++c)
                threads.emplace_back([&, c] {
                    clientLoop(server->address(), streams[c], per_pass,
                               expected_hot,
                               recs.empty() ? nullptr : recs[c], logs[c]);
                });
            for (std::thread &t : threads)
                t.join();
        }
        ServePass sp;
        sp.seconds = secondsSince(t0);
        measured += sp.seconds;
        server->shutdown();
        server.reset();

        verifyCold(cfg, logs);
        if (rec0 && pass == 0)
            probeLayers(cfg, logs, expected_hot, rec0);
        for (const ClientLog &log : logs) {
            res.latencyUs.insert(res.latencyUs.end(),
                                 log.latencyUs.begin(),
                                 log.latencyUs.end());
            sp.out.add(log.out);
            if (res.firstMismatch.empty())
                res.firstMismatch = log.firstMismatch;
        }
        res.out.add(sp.out);
        res.passes.push_back(sp);
        if (pass == 0)
            res.peakRssKb = peakRssKb();
    }
    ::unlink(kJournal);
    return res;
}

void
writeServe(telemetry::JsonWriter &w, const char *role,
           const ServeResultSet &res)
{
    w.beginObject();
    w.kv("role", role);
    w.kv("kind", "serve");
    w.kv("peak_rss_kb", res.peakRssKb);
    w.key("setup_s").beginArray();
    for (const double s : res.setupSeconds)
        w.value(s);
    w.endArray();
    w.key("passes").beginArray();
    for (const ServePass &p : res.passes) {
        w.beginObject();
        w.kv("seconds", p.seconds);
        w.kv("requests", p.out.total());
        w.kv("ok", p.out.ok);
        w.endObject();
    }
    w.endArray();
    w.key("outcomes").beginObject();
    w.kv("ok", res.out.ok);
    w.kv("mismatch", res.out.mismatch);
    w.kv("degraded", res.out.degraded);
    w.kv("busy", res.out.busy);
    w.kv("error", res.out.error);
    w.endObject();
    w.kv("hits", res.out.hits);
    w.kv("requests", res.out.total());
    w.kv("first_mismatch", res.firstMismatch);
    w.key("latency_us").beginArray();
    for (const float v : res.latencyUs)
        w.value(static_cast<double>(v));
    w.endArray();
    w.endObject();
}

/** One span recorder per client thread. */
std::vector<SpanRecorder *>
clientRecorders(std::deque<SpanRecorder> &spans, const char *section)
{
    std::vector<SpanRecorder *> recs;
    for (size_t c = 0; c < kClients; ++c)
        recs.push_back(&newRecorder(spans, section));
    return recs;
}

} // namespace

void
runServeMix(const RunOptions &opts, telemetry::JsonWriter &w,
            std::deque<SpanRecorder> &spans)
{
    std::vector<SpanRecorder *> recs;
    if (opts.trace)
        recs = clientRecorders(spans, "main");
    ServeResultSet res;
    {
        const OneCore pin;
        res = runSession(opts, opts.seconds, kRequestsPerPass, recs);
    }
    writeServe(w, "main", res);
}

void
runServeProbe(const RunOptions &opts, telemetry::JsonWriter &w,
              std::deque<SpanRecorder> &spans)
{
    const ServeResultSet res =
        runSession(opts, 0.0, 400, clientRecorders(spans, "probe"));
    writeServe(w, "probe", res);
}

} // namespace perfbench
