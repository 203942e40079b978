/**
 * @file
 * Tests for the placement-advisor service (src/serve/): wire framing,
 * fault-plan parsing, decision purity, the crash-safe journal, and the
 * server's robustness machinery end to end over real Unix sockets --
 * shedding under load, degraded mode past the classifier budget,
 * deadline enforcement, the circuit breaker, seeded retry/backoff
 * determinism, and bit-identical warm restart.
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include "serve/cache.hh"
#include "serve/client.hh"
#include "serve/decision.hh"
#include "serve/fault.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "snapshot/snapshot.hh"

namespace ladm
{
namespace serve
{
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

PlacementRequest
sgemmRequest(int64_t grid = 32)
{
    PlacementRequest req;
    req.kernelSource = kSgemm;
    req.dims.grid = {grid, grid};
    req.dims.block = {16, 16};
    req.dims.loopTrips = 32;
    req.argBytes = {4u << 20, 4u << 20, 4u << 20};
    return req;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "serve_" + name + "_" +
           std::to_string(::getpid());
}

// --- wire -------------------------------------------------------------------

TEST(ServeWire, ByteRoundTrip)
{
    ByteWriter w;
    w.u8(7);
    w.u32(0xdeadbeef);
    w.u64(1ull << 60);
    w.i64(-12345);
    w.f64(3.5);
    w.str("hello");
    ByteReader r(w.data());
    EXPECT_EQ(r.u8(), 7);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 1ull << 60);
    EXPECT_EQ(r.i64(), -12345);
    EXPECT_EQ(r.f64(), 3.5);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_TRUE(r.atEnd());
}

TEST(ServeWire, ShortPayloadThrowsCorruptFrame)
{
    ByteWriter w;
    w.u32(5);
    ByteReader r(w.data());
    (void)r.u32();
    try {
        (void)r.u64();
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Io);
        EXPECT_EQ(e.code(), ErrCode::CorruptFrame);
    }
}

TEST(ServeWire, FrameRoundTripAndCorruptionDetection)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    FrameReader reader(sv[1]);

    ASSERT_TRUE(sendFrame(sv[0], MsgType::Place, "payload bytes"));
    Frame f;
    EXPECT_EQ(reader.read(f, 1000), RecvStatus::Ok);
    EXPECT_EQ(f.type, MsgType::Place);
    EXPECT_EQ(f.payload, "payload bytes");

    // A deliberately corrupted frame fails CRC validation.
    ASSERT_TRUE(sendFrame(sv[0], MsgType::Place, "payload bytes", true));
    EXPECT_EQ(reader.read(f, 1000), RecvStatus::Corrupt);

    // Clean close reads as EOF, and an empty wait as Timeout.
    reader.reset(sv[1]);
    EXPECT_EQ(reader.read(f, 50), RecvStatus::Timeout);
    ::close(sv[0]);
    EXPECT_EQ(reader.read(f, 1000), RecvStatus::Eof);
    ::close(sv[1]);
}

// --- fault plan -------------------------------------------------------------

TEST(ServeFault, ParsesAndRoundTrips)
{
    ServeFaultPlan p =
        ServeFaultPlan::parse("drop:2;corrupt:1;stall:500;fail:3");
    EXPECT_EQ(p.dropFirst(), 2);
    EXPECT_EQ(p.corruptFirst(), 1);
    EXPECT_EQ(p.failFirst(), 3);
    EXPECT_EQ(p.stallUs(), 500u);
    EXPECT_EQ(ServeFaultPlan::parse(p.toSpec()).toSpec(), p.toSpec());

    EXPECT_TRUE(p.takeDrop());
    EXPECT_TRUE(p.takeDrop());
    EXPECT_FALSE(p.takeDrop()); // budget spent
    EXPECT_TRUE(ServeFaultPlan::parse("").empty());
}

TEST(ServeFault, BadSpecThrowsFaultError)
{
    try {
        ServeFaultPlan::parse("drop:2;bogus:1;stall:-4");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Fault);
        EXPECT_EQ(e.diagnostics().size(), 2u); // one per bad clause
    }
}

// --- decisions --------------------------------------------------------------

TEST(ServeDecision, PureFunctionOfRequestAndConfig)
{
    const PlacementRequest req = sgemmRequest();
    const SystemConfig cfg = resolveTopology("multi-gpu-4x4", "");
    const std::string a = computeDecision(req, cfg).encode();
    const std::string b = computeDecision(req, cfg).encode();
    EXPECT_EQ(a, b) << "decision must be bit-identical run to run";

    const PlacementDecision d = PlacementDecision::decode(a);
    EXPECT_EQ(d.key.irHash, requestIrHash(req));
    EXPECT_EQ(d.key.fingerprint, snapshot::configFingerprint(cfg));
    // sgemm: A row-locality first and equal sizes -> row-binding, RTWICE.
    EXPECT_EQ(d.scheduler, "row-binding");
    EXPECT_EQ(d.policy, 0);
    ASSERT_EQ(d.args.size(), 3u);
    EXPECT_EQ(d.encode(), a) << "decode/encode must round-trip";
}

TEST(ServeDecision, HashSeparatesRequestsAndDeadlineDoesNot)
{
    const PlacementRequest a = sgemmRequest(32);
    PlacementRequest b = sgemmRequest(64);
    EXPECT_NE(requestIrHash(a), requestIrHash(b));
    PlacementRequest c = sgemmRequest(32);
    c.deadlineUs = 12345; // how long you wait never changes the answer
    EXPECT_EQ(requestIrHash(a), requestIrHash(c));
}

TEST(ServeDecision, DecisionKeyHashesPinned)
{
    // Journals are keyed by these two hashes: a change to either makes
    // every journaled decision miss once after an upgrade. Pinned to the
    // values the original FNV-1a walks produced.
    ::unsetenv("LADM_SHARDS"); // the fingerprint hashes resolvedShards()
    EXPECT_EQ(requestIrHash(sgemmRequest()), 0xa38182cbae4f39ddull);
    EXPECT_EQ(snapshot::configFingerprint(
                  resolveTopology("multi-gpu-4x4", "")),
              0xfd316b11905b897cull);
}

TEST(ServeDecision, UnknownTopologyIsBadRequest)
{
    try {
        resolveTopology("hypercube-9000", "multi-gpu-4x4");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrCode::BadRequest);
    }
}

TEST(ServeDecision, HeuristicNeverParses)
{
    PlacementRequest req = sgemmRequest();
    req.kernelSource = "utter garbage %%%";
    const SystemConfig cfg = resolveTopology("multi-gpu-4x4", "");
    const PlacementDecision d = heuristicDecision(req, cfg);
    EXPECT_EQ(d.scheduler, "kernel-wide"); // 2-D grid keeps adjacency
    EXPECT_NE(d.schedulerReason.find("degraded"), std::string::npos);
}

// --- journal ----------------------------------------------------------------

TEST(ServeJournal, ReplaysCommittedRecordsAndTruncatesTornTail)
{
    const std::string path = tempPath("journal");
    std::remove(path.c_str());

    DecisionKey k1{11, 22}, k2{33, 44};
    {
        DecisionJournal j;
        EXPECT_EQ(j.open(path, nullptr), 0u);
        j.append(k1, "decision-one");
        j.append(k2, "decision-two");
        j.close();
    }
    // Simulate a crash mid-append: a torn half-record at the tail.
    {
        std::ofstream f(path, std::ios::app | std::ios::binary);
        f.write("\x21\x43\x65\x87\x09\xba", 6);
    }
    size_t seen = 0;
    DecisionJournal j;
    const size_t replayed =
        j.open(path, [&](const DecisionKey &k, const std::string &v) {
            if (seen == 0) {
                EXPECT_EQ(k.irHash, k1.irHash);
                EXPECT_EQ(v, "decision-one");
            } else {
                EXPECT_EQ(k.irHash, k2.irHash);
                EXPECT_EQ(v, "decision-two");
            }
            ++seen;
        });
    EXPECT_EQ(replayed, 2u);
    EXPECT_EQ(seen, 2u);
    // The torn tail is gone: appends extend a valid stream.
    j.append(k1, "decision-three");
    j.close();
    DecisionJournal j2;
    EXPECT_EQ(j2.open(path, nullptr), 3u);
    j2.close();
    std::remove(path.c_str());
}

TEST(ServeJournal, RefusesForeignFiles)
{
    const std::string path = tempPath("notajournal");
    {
        std::ofstream f(path);
        f << "this is not a decision journal at all";
    }
    DecisionJournal j;
    try {
        j.open(path, nullptr);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Io);
        EXPECT_EQ(e.code(), ErrCode::JournalCorrupt);
    }
    std::remove(path.c_str());
}

// --- backoff ----------------------------------------------------------------

TEST(ServeBackoff, ZeroJitterIsExactExponentialWithCap)
{
    BackoffPolicy p;
    p.baseMs = 10;
    p.multiplier = 2.0;
    p.maxMs = 1000;
    p.jitter = 0.0;
    Rng rng(1);
    EXPECT_EQ(p.delayMs(0, rng), 10u);
    EXPECT_EQ(p.delayMs(1, rng), 20u);
    EXPECT_EQ(p.delayMs(2, rng), 40u);
    EXPECT_EQ(p.delayMs(6, rng), 640u);
    EXPECT_EQ(p.delayMs(7, rng), 1000u); // capped
    EXPECT_EQ(p.delayMs(20, rng), 1000u);
}

TEST(ServeBackoff, SeededScheduleIsBitExactAndBounded)
{
    BackoffPolicy p; // jitter = 0.5
    Rng a(42), b(42), c(43);
    std::vector<uint32_t> sa, sb, sc;
    for (int i = 0; i < 8; ++i) {
        sa.push_back(p.delayMs(i, a));
        sb.push_back(p.delayMs(i, b));
        sc.push_back(p.delayMs(i, c));
    }
    EXPECT_EQ(sa, sb) << "same seed, same schedule, bit for bit";
    EXPECT_NE(sa, sc) << "different seed must decorrelate retries";
    for (int i = 0; i < 8; ++i) {
        const double nominal =
            std::min(10.0 * (1 << i), static_cast<double>(p.maxMs));
        EXPECT_GE(sa[i], static_cast<uint32_t>(nominal * 0.5));
        EXPECT_LE(sa[i], p.maxMs); // jitter never exceeds the cap
    }
}

// --- server end to end ------------------------------------------------------

class ServeTest : public ::testing::Test
{
  protected:
    ServerOptions
    baseOptions(const std::string &tag)
    {
        ServerOptions o;
        o.listen = "unix:" + tempPath("sock_" + tag);
        o.workers = 2;
        o.queueCapacity = 8;
        return o;
    }
};

TEST_F(ServeTest, ColdMissThenCacheHitBitIdentical)
{
    Server server(baseOptions("hit"));
    server.start();

    Client client(server.address(), 7);
    const PlacementRequest req = sgemmRequest();

    const ServeResult first = client.place(req);
    ASSERT_TRUE(first.ok()) << first.error;
    EXPECT_FALSE(first.cached);
    EXPECT_FALSE(first.degraded);

    const ServeResult second = client.place(req);
    ASSERT_TRUE(second.ok()) << second.error;
    EXPECT_TRUE(second.cached);
    EXPECT_EQ(second.decision.encode(), first.decision.encode());

    // The answer equals an in-process cold recompute, bit for bit.
    const SystemConfig cfg = resolveTopology("", "multi-gpu-4x4");
    EXPECT_EQ(first.decision.encode(),
              computeDecision(req, cfg).encode());

    EXPECT_EQ(server.statValue("serve.requests"), 2.0);
    EXPECT_EQ(server.statValue("serve.hits"), 1.0);
    EXPECT_EQ(server.statValue("serve.misses"), 1.0);
    EXPECT_TRUE(client.ping());
    server.shutdown();
    EXPECT_FALSE(server.running());
}

TEST_F(ServeTest, SingleFlightCollapsesConcurrentIdenticalMisses)
{
    ServerOptions o = baseOptions("flight");
    o.faultSpec = "stall:100000"; // 100 ms classifier
    o.classifierBudgetUs = 500000;
    Server server(o);
    server.start();

    PlacementRequest req = sgemmRequest();
    req.deadlineUs = 500000;
    std::vector<std::thread> threads;
    std::atomic<int> ok{0};
    for (int i = 0; i < 4; ++i)
        threads.emplace_back([&] {
            Client c(server.address());
            const ServeResult r = c.place(req);
            if (r.ok() && !r.degraded)
                ++ok;
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(ok.load(), 4);
    // All four riders shared (essentially) one computation. The bound
    // tolerates the tiny window where a late arrival becomes a second
    // owner, but collapsing must have happened.
    EXPECT_GE(server.statValue("serve.computed"), 1.0);
    EXPECT_LT(server.statValue("serve.computed"), 4.0);
    EXPECT_EQ(server.cacheSize(), 1u);
    server.shutdown();
}

TEST_F(ServeTest, JournalWarmRestartServesBitIdenticalDecisions)
{
    const std::string journal = tempPath("warmjournal");
    std::remove(journal.c_str());
    const PlacementRequest req = sgemmRequest();
    std::string first_bytes;

    {
        ServerOptions o = baseOptions("warm1");
        o.journalPath = journal;
        Server server(o);
        server.start();
        Client client(server.address());
        const ServeResult r = client.place(req);
        ASSERT_TRUE(r.ok()) << r.error;
        first_bytes = r.decision.encode();
        EXPECT_EQ(server.statValue("serve.journal_appended"), 1.0);
        // No graceful close: the Server object is torn down, but the
        // append already hit the file (crash-consistency is per-write,
        // not per-shutdown).
    }
    // Simulate the kill -9 tail: garbage after the committed records.
    {
        std::ofstream f(journal, std::ios::app | std::ios::binary);
        f.write("torn", 4);
    }
    {
        ServerOptions o = baseOptions("warm2");
        o.journalPath = journal;
        Server server(o);
        server.start();
        EXPECT_EQ(server.replayed(), 1u);
        Client client(server.address());
        const ServeResult r = client.place(req);
        ASSERT_TRUE(r.ok()) << r.error;
        EXPECT_TRUE(r.cached) << "warm restart must hit the cache";
        EXPECT_EQ(r.decision.encode(), first_bytes)
            << "journal-replayed decision must be bit-identical";
        server.shutdown();
    }
    std::remove(journal.c_str());
}

TEST_F(ServeTest, ShedsWithBusyWhenAdmissionQueueIsFull)
{
    ServerOptions o = baseOptions("shed");
    o.workers = 1;
    o.queueCapacity = 1;
    o.classifierBudgetUs = 10000; // degrade fast
    o.faultSpec = "stall:100000"; // 100 ms per classification
    o.retryAfterMs = 17;
    Server server(o);
    server.start();

    // 6 distinct kernels at a server that can hold 2: the rest shed.
    std::vector<std::thread> threads;
    std::atomic<int> busy{0}, answered{0};
    for (int i = 0; i < 6; ++i)
        threads.emplace_back([&, i] {
            Client c(server.address());
            PlacementRequest req = sgemmRequest(8 + 8 * i);
            req.deadlineUs = 400000;
            const ServeResult r = c.place(req);
            if (r.code == ErrCode::Busy) {
                EXPECT_EQ(r.retryAfterMs, 17u);
                ++busy;
            } else if (r.ok()) {
                ++answered;
            }
        });
    for (auto &t : threads)
        t.join();

    EXPECT_GE(busy.load(), 1) << "overload must shed, not queue forever";
    EXPECT_GE(answered.load(), 1);
    EXPECT_EQ(busy.load() + answered.load(), 6);
    EXPECT_EQ(server.statValue("serve.shed"),
              static_cast<double>(busy.load()));
    // The server survived the overload.
    Client probe(server.address());
    EXPECT_TRUE(probe.ping());
    server.shutdown();
}

TEST_F(ServeTest, DegradesPastClassifierBudgetWithinDeadline)
{
    ServerOptions o = baseOptions("degraded");
    o.classifierBudgetUs = 5000;  // 5 ms budget
    o.faultSpec = "stall:200000"; // 200 ms classifier
    Server server(o);
    server.start();

    Client client(server.address());
    PlacementRequest req = sgemmRequest();
    req.deadlineUs = 500000; // plenty of deadline left after the budget
    const ServeResult r = client.place(req);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.degraded);
    EXPECT_NE(r.decision.schedulerReason.find("degraded"),
              std::string::npos);
    EXPECT_GE(server.statValue("serve.degraded"), 1.0);
    server.shutdown();
}

TEST_F(ServeTest, DeadlineExceededWhenDeadlineTighterThanBudget)
{
    ServerOptions o = baseOptions("deadline");
    o.classifierBudgetUs = 300000;
    o.faultSpec = "stall:200000";
    Server server(o);
    server.start();

    Client client(server.address());
    PlacementRequest req = sgemmRequest();
    req.deadlineUs = 5000; // tighter than the 200 ms stall
    const ServeResult r = client.place(req);
    EXPECT_EQ(r.code, ErrCode::DeadlineExceeded);
    EXPECT_GE(server.statValue("serve.deadline_timeouts"), 1.0);
    server.shutdown();
}

TEST_F(ServeTest, CircuitBreakerOpensAfterConsecutiveFaults)
{
    ServerOptions o = baseOptions("breaker");
    o.breakerThreshold = 2;
    o.faultSpec = "fail:10";
    o.workers = 1;
    Server server(o);
    server.start();

    Client client(server.address());
    for (int i = 0; i < 4; ++i) {
        PlacementRequest req = sgemmRequest(8 + 8 * i);
        req.deadlineUs = 300000;
        const ServeResult r = client.place(req);
        ASSERT_TRUE(r.ok()) << r.error;
        EXPECT_TRUE(r.degraded)
            << "internal faults must degrade, not error";
    }
    // Faults never commit: nothing reached the cache or journal.
    EXPECT_EQ(server.cacheSize(), 0u);
    EXPECT_GE(server.statValue("serve.degraded"), 4.0);
    server.shutdown();
}

TEST_F(ServeTest, CallerErrorsAreStructuredAndNeverRetried)
{
    Server server(baseOptions("badreq"));
    server.start();

    Client client(server.address());
    PlacementRequest req = sgemmRequest();
    req.kernelSource = "kernel oops(A) { read A[foo]; }";
    const ServeResult r = client.placeWithRetry(req);
    EXPECT_EQ(r.code, ErrCode::ParseError);
    EXPECT_EQ(r.attempts, 1) << "caller errors must not be retried";
    EXPECT_FALSE(r.diags.empty());

    PlacementRequest bad_topo = sgemmRequest();
    bad_topo.topology = "hypercube-9000";
    EXPECT_EQ(client.placeWithRetry(bad_topo).code, ErrCode::BadRequest);

    // The connection survives caller errors: warm path still works.
    const ServeResult good = client.place(sgemmRequest());
    EXPECT_TRUE(good.ok()) << good.error;
    server.shutdown();
}

TEST_F(ServeTest, RetryConvergesThroughDroppedRequests)
{
    ServerOptions o = baseOptions("drop");
    o.faultSpec = "drop:2"; // vanish the first two requests
    Server server(o);
    server.start();

    Client client(server.address(), 42);
    std::vector<uint32_t> slept;
    client.setSleepFn([&](uint32_t ms) { slept.push_back(ms); });

    BackoffPolicy policy;
    policy.baseMs = 5;
    policy.maxMs = 50;
    const ServeResult r = client.placeWithRetry(sgemmRequest(), policy);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.attempts, 3) << "two drops then success";

    // The observed schedule is exactly the seeded policy schedule.
    ASSERT_EQ(slept.size(), 2u);
    Rng replay(42);
    EXPECT_EQ(slept[0], policy.delayMs(0, replay));
    EXPECT_EQ(slept[1], policy.delayMs(1, replay));
    EXPECT_EQ(server.statValue("serve.dropped"), 2.0);
    server.shutdown();
}

TEST_F(ServeTest, CorruptRepliesAreDetectedAndRetried)
{
    ServerOptions o = baseOptions("corrupt");
    o.faultSpec = "corrupt:1";
    Server server(o);
    server.start();

    Client client(server.address(), 3);
    client.setSleepFn([](uint32_t) {});
    const ServeResult r = client.placeWithRetry(sgemmRequest());
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.attempts, 2);
    // First attempt's compute committed; the retry rode the cache.
    EXPECT_TRUE(r.cached);
    server.shutdown();
}

TEST_F(ServeTest, StatsTravelTheWire)
{
    Server server(baseOptions("stats"));
    server.start();

    Client client(server.address());
    ASSERT_TRUE(client.place(sgemmRequest()).ok());

    std::vector<std::pair<std::string, double>> rows;
    ASSERT_TRUE(client.stats(&rows));
    double requests = -1, p99 = -1;
    for (const auto &kv : rows) {
        if (kv.first == "serve.requests")
            requests = kv.second;
        if (kv.first == "serve.latency_us.p99")
            p99 = kv.second;
    }
    EXPECT_EQ(requests, 1.0);
    EXPECT_GT(p99, 0.0) << "latency histogram must be populated";
    server.shutdown();
}

TEST_F(ServeTest, ShutdownDrainsAndRefusesNewWork)
{
    Server server(baseOptions("drain"));
    server.start();
    Client client(server.address());
    ASSERT_TRUE(client.place(sgemmRequest()).ok());
    server.shutdown();
    EXPECT_FALSE(server.running());
    // The socket is gone; a fresh dial fails.
    Client late(server.address());
    EXPECT_FALSE(late.connect());
}

} // namespace
} // namespace serve
} // namespace ladm
