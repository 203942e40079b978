/**
 * @file
 * Tests for the common utilities: rng, stats, bit helpers, config
 * validation, malloc registry, UVM, graph generation.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "common/sim_error.hh"
#include "common/bitutils.hh"
#include "common/thread_pool.hh"
#include "core/metrics.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "config/presets.hh"
#include "mem/uvm.hh"
#include "runtime/malloc_registry.hh"
#include "workloads/graph_gen.hh"

namespace ladm
{
namespace
{

TEST(BitUtils, CeilDivRoundUp)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
    EXPECT_EQ(roundUp(4095, 4096), 4096u);
    EXPECT_EQ(roundUp(4096, 4096), 4096u);
    EXPECT_EQ(roundDown(4097, 4096), 4096u);
    EXPECT_TRUE(isPowerOfTwo(4096));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(96));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(floorLog2(4097), 12u);
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(1);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(37), 37u);
    EXPECT_EQ(rng.nextBounded(1), 0u);
    EXPECT_EQ(rng.nextBounded(0), 0u);
}

TEST(Rng, HoistedThresholdDrawsIdenticalSequence)
{
    // The graph generators take the rejection threshold once per graph;
    // every draw, and the stream position after it, must match the
    // one-argument form. 2^63 + 1 rejects about half of the raw values.
    for (const uint64_t bound :
         {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{1} << 20,
          uint64_t{25600}, (uint64_t{1} << 63) + 1}) {
        Rng a(77), b(77);
        const uint64_t threshold = Rng::rejectionThreshold(bound);
        for (int i = 0; i < 4096; ++i)
            ASSERT_EQ(b.nextBounded(bound, threshold), a.nextBounded(bound))
                << "bound " << bound << " draw " << i;
        EXPECT_EQ(a.next(), b.next()) << "bound " << bound;
    }
    EXPECT_EQ(Rng::rejectionThreshold(0), 0u);
    EXPECT_EQ(Rng::rejectionThreshold(1), 0u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(2);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ZipfIsSkewed)
{
    Rng rng(3);
    uint64_t low = 0;
    for (int i = 0; i < 10000; ++i)
        low += rng.nextZipf(1000, 1.5) < 10 ? 1 : 0;
    // A skewed distribution concentrates mass at small values.
    EXPECT_GT(low, 3000u);
}

TEST(Stats, CountersAccumulateAndReset)
{
    StatGroup g("test");
    g.counter("hits") += 5;
    ++g.counter("hits");
    EXPECT_EQ(g.get("hits"), 6u);
    EXPECT_EQ(g.get("absent"), 0u);
    g.reset();
    EXPECT_EQ(g.get("hits"), 0u);
}

TEST(Stats, Histogram)
{
    Histogram h(10, 4);
    h.sample(5);
    h.sample(15);
    h.sample(15);
    h.sample(1000); // overflow bucket
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(99), 1u); // out-of-range reads overflow
    EXPECT_EQ(h.totalSamples(), 4u);
}

TEST(Config, PresetsAreValid)
{
    presets::multiGpu4x4().validate();
    presets::monolithic256().validate();
    presets::multiGpuFlat(4, 90).validate();
    presets::mcmRing(4, 1400).validate();
    presets::dgx4().validate();
}

TEST(Config, NodeGeometry)
{
    const auto c = presets::multiGpu4x4();
    EXPECT_EQ(c.numNodes(), 16);
    EXPECT_EQ(c.totalSms(), 256);
    EXPECT_EQ(c.nodeOfSm(0), 0);
    EXPECT_EQ(c.nodeOfSm(255), 15);
    EXPECT_EQ(c.gpuOfNode(7), 1);
    EXPECT_EQ(c.chipletOfNode(7), 3);
    EXPECT_EQ(c.nodeOf(1, 3), 7);
}

TEST(ConfigDeathTest, BadConfigThrows)
{
    auto c = presets::multiGpu4x4();
    c.pageSize = 1000; // not a power of two
    try {
        c.validate();
        FAIL() << "validate() accepted a non-power-of-two page size";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Config);
        EXPECT_NE(std::string(e.what()).find("pageSize"),
                  std::string::npos);
    }
}

TEST(MallocRegistry, AssignsDisjointPageAlignedRanges)
{
    MallocRegistry reg(4096);
    const Addr a = reg.mallocManaged(1, 100, "a");
    const Addr b = reg.mallocManaged(2, 1 << 20, "b");
    EXPECT_EQ(a % 4096, 0u);
    EXPECT_EQ(b % 4096, 0u);
    EXPECT_GE(b, a + 100);
    EXPECT_EQ(reg.byPc(1).name, "a");
    EXPECT_EQ(reg.byAddr(a)->mallocPc, 1u);
    EXPECT_EQ(reg.byAddr(b + 12345)->mallocPc, 2u);
    // Guard gaps are unmapped.
    EXPECT_EQ(reg.byAddr(a + 200000), nullptr);
    EXPECT_EQ(reg.totalBytes(), 100u + (1 << 20));
}

TEST(MallocRegistryDeathTest, DuplicatePcThrows)
{
    MallocRegistry reg;
    reg.mallocManaged(1, 100, "a");
    EXPECT_THROW(reg.mallocManaged(1, 100, "b"), SimError);
}

TEST(MallocRegistry, RefusesAllocationEndingPast128GiB)
{
    // The MSHR table keys sectors in 32 bits, so the simulated address
    // space ends one sector short of 128 GiB. Allocations reaching past
    // it are refused up front instead of aliasing MSHR keys.
    MallocRegistry reg(4096, 0);
    const Addr a = reg.mallocManaged(1, 4096, "a"); // at 4096
    EXPECT_EQ(a, 4096u);
    const Bytes room = kMaxSimAddr - 2 * 4096;
    EXPECT_THROW(reg.mallocManaged(2, room + 1, "too_big"), SimError);
    EXPECT_THROW(reg.mallocManaged(3, ~Bytes{0}, "wraps"), SimError);
    // Exactly filling the space is allowed; nothing fits after it.
    EXPECT_EQ(reg.mallocManaged(4, room, "fits"), 2u * 4096);
    EXPECT_THROW(reg.mallocManaged(5, 1, "after"), SimError);
}

TEST(Uvm, FirstTouchPlacesAndCharges)
{
    PageTable pt(4096);
    Uvm uvm(30000);
    Cycles stall = 0;
    EXPECT_EQ(uvm.touch(pt, 0x5000, 3, stall), 3);
    EXPECT_EQ(stall, 30000u);
    EXPECT_EQ(uvm.faults(), 1u);
    // Second touch is a plain translation.
    EXPECT_EQ(uvm.touch(pt, 0x5000, 7, stall), 3);
    EXPECT_EQ(stall, 0u);
    EXPECT_EQ(uvm.faults(), 1u);
}

TEST(GraphGen, UniformDegrees)
{
    const auto g = makeUniformGraph(1000, 8, 1);
    EXPECT_EQ(g.numVertices, 1000);
    EXPECT_EQ(g.numEdges(), 8000);
    for (int64_t v = 0; v < 1000; ++v) {
        EXPECT_EQ(g.degree(v), 8);
        for (int64_t e = g.rowPtr[v]; e < g.rowPtr[v + 1]; ++e) {
            EXPECT_GE(g.colIdx[e], 0);
            EXPECT_LT(g.colIdx[e], 1000);
        }
    }
}

TEST(GraphGen, PowerLawIsSkewedButBounded)
{
    const auto g = makePowerLawGraph(10000, 8, 1.2, 7);
    EXPECT_EQ(g.numVertices, 10000);
    // Mean degree lands near the target.
    const double mean = static_cast<double>(g.numEdges()) / 10000;
    EXPECT_GT(mean, 4.0);
    EXPECT_LT(mean, 16.0);
    int64_t max_deg = 0;
    for (int64_t v = 0; v < 10000; ++v) {
        EXPECT_GE(g.degree(v), 1);
        max_deg = std::max(max_deg, g.degree(v));
    }
    EXPECT_GT(max_deg, 16); // a heavy tail exists
}

TEST(GraphGen, DeterministicPerSeed)
{
    const auto a = makePowerLawGraph(1000, 8, 1.2, 9);
    const auto b = makePowerLawGraph(1000, 8, 1.2, 9);
    EXPECT_EQ(a.rowPtr, b.rowPtr);
    EXPECT_EQ(a.colIdx, b.colIdx);
}

TEST(Metrics, CsvRowMatchesHeaderArity)
{
    RunMetrics m;
    m.workload = "w";
    m.policy = "p";
    m.system = "s";
    m.scheduler = "sched";
    m.cycles = 123;
    const std::string header = csvHeader();
    const std::string row = csvRow(m);
    const auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(commas(header), commas(row));
    EXPECT_NE(row.find("w,p,s,sched"), std::string::npos);
    EXPECT_NE(row.find("123"), std::string::npos);
}

TEST(ErrCode, StableValuesAndMnemonics)
{
    // Wire/journal contract: these values may never change.
    EXPECT_EQ(static_cast<uint32_t>(ErrCode::Ok), 0u);
    EXPECT_EQ(static_cast<uint32_t>(ErrCode::BadConfig), 100u);
    EXPECT_EQ(static_cast<uint32_t>(ErrCode::ParseError), 102u);
    EXPECT_EQ(static_cast<uint32_t>(ErrCode::IoError), 200u);
    EXPECT_EQ(static_cast<uint32_t>(ErrCode::CorruptFrame), 201u);
    EXPECT_EQ(static_cast<uint32_t>(ErrCode::Busy), 301u);
    EXPECT_EQ(static_cast<uint32_t>(ErrCode::DeadlineExceeded), 302u);
    EXPECT_STREQ(toString(ErrCode::Busy), "BUSY");
    EXPECT_STREQ(toString(ErrCode::ParseError), "PARSE_ERROR");
    EXPECT_STREQ(toString(ErrCode::DeadlineExceeded),
                 "DEADLINE_EXCEEDED");
}

TEST(ErrCode, WireDecodeWhitelistsKnownValues)
{
    EXPECT_EQ(errCodeFromWire(301), ErrCode::Busy);
    EXPECT_EQ(errCodeFromWire(0), ErrCode::Ok);
    // A newer peer's unknown code degrades to RemoteError, never an
    // out-of-enum value.
    EXPECT_EQ(errCodeFromWire(9999), ErrCode::RemoteError);
}

TEST(ErrCode, SimErrorDerivesCodeFromKindOrDiagnostic)
{
    const SimError from_kind(SimError::Kind::Io, "disk gone");
    EXPECT_EQ(from_kind.code(), ErrCode::IoError);
    const SimError from_diag(
        SimError::Kind::Io, "bad frame",
        {{"f", "v", "c", "h", ErrCode::CorruptFrame}});
    EXPECT_EQ(from_diag.code(), ErrCode::CorruptFrame);
    // The rendered diagnostic carries the stable mnemonic.
    EXPECT_NE(std::string(from_diag.what()).find("CORRUPT_FRAME"),
              std::string::npos);
}

TEST(ThreadPool, BoundedTrySubmitShedsWhenFull)
{
    ThreadPool pool(1, 2);
    std::atomic<bool> release{false};
    std::atomic<int> ran{0};
    // Occupy the single worker...
    ASSERT_TRUE(pool.trySubmit([&] {
        while (!release.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++ran;
    }));
    while (pool.queueDepth() > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // ...then fill the queue to capacity.
    ASSERT_TRUE(pool.trySubmit([&] { ++ran; }));
    ASSERT_TRUE(pool.trySubmit([&] { ++ran; }));
    // Queue full: the admission-control signal.
    EXPECT_FALSE(pool.trySubmit([&] { ++ran; }));
    EXPECT_EQ(pool.queueDepth(), 2u);
    release = true;
    pool.wait();
    EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, BoundedSubmitBlocksUntilSpace)
{
    ThreadPool pool(1, 1);
    std::atomic<bool> release{false};
    std::atomic<int> ran{0};
    ASSERT_TRUE(pool.submit([&] {
        while (!release.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++ran;
    }));
    while (pool.queueDepth() > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(pool.submit([&] { ++ran; })); // fills the queue
    // This submit must block until the first task drains, then land.
    std::thread blocked([&] {
        EXPECT_TRUE(pool.submit([&] { ++ran; }));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(ran.load(), 0); // still parked
    release = true;
    blocked.join();
    pool.wait();
    EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, DrainRunsAdmittedWorkAndRefusesNew)
{
    ThreadPool pool(2, 8);
    std::atomic<int> ran{0};
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(pool.submit([&] { ++ran; }));
    pool.drain();
    EXPECT_EQ(ran.load(), 6);
    EXPECT_TRUE(pool.draining());
    // Post-drain the pool refuses everything, both politely and not.
    EXPECT_FALSE(pool.submit([&] { ++ran; }));
    EXPECT_FALSE(pool.trySubmit([&] { ++ran; }));
    EXPECT_EQ(ran.load(), 6);
}

TEST(ThreadPool, UnboundedStaysUnbounded)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(pool.trySubmit([&] { ++ran; }));
    pool.wait();
    EXPECT_EQ(ran.load(), 100);
}

} // namespace
} // namespace ladm
