/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot components:
 * the symbolic algebra, the sectored cache (L1-hit and L2-miss paths at
 * the multi-gpu-4x4 geometry), the MSHR table, the page table, the
 * bandwidth servers, the serial MemorySystem::access pipeline (L2-hit
 * and remote-miss paths), and trace generation. These gate the
 * wall-clock cost of the figure harnesses, not any paper result.
 */

#include <benchmark/benchmark.h>

#include "cache/cache.hh"
#include "common/bandwidth_server.hh"
#include "common/rng.hh"
#include "config/presets.hh"
#include "kernel/expr.hh"
#include "mem/page_table.hh"
#include "mem/placement.hh"
#include "sim/memory_system.hh"
#include "sim/mshr_table.hh"
#include "workloads/access_gen.hh"

namespace ladm
{
namespace
{

using namespace dsl;

void
BM_ExprEval(benchmark::State &state)
{
    const Expr idx = (by * 16 + ty) * (gdx * bdx) + m * 16 + tx;
    const Binding b = makeBinding(3, 2, 7, 9, 16, 16, 48, 48, 5);
    for (auto _ : state)
        benchmark::DoNotOptimize(idx.eval(b));
}
BENCHMARK(BM_ExprEval);

void
BM_ExprMultiply(benchmark::State &state)
{
    const Expr a = by * bdy + ty;
    const Expr b = gdx * bdx;
    for (auto _ : state)
        benchmark::DoNotOptimize(a * b + m * 16 + tx);
}
BENCHMARK(BM_ExprMultiply);

void
BM_CacheAccess(benchmark::State &state)
{
    SectoredCache cache(1 << 20, 16, "bm");
    Rng rng(1);
    std::vector<Addr> addrs(8192);
    for (auto &a : addrs)
        a = rng.nextBounded(1 << 22) * kSectorSize;
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(addrs[i++ & 8191], false, true));
    }
}
BENCHMARK(BM_CacheAccess);

// The multi-gpu-4x4 geometry: 64 KiB 4-way L1 per SM, 1 MiB 16-way L2
// per chiplet.
constexpr Bytes kL1Bytes = 64 * 1024;
constexpr int kL1Assoc = 4;
constexpr Bytes kL2Bytes = 1 << 20;
constexpr int kL2Assoc = 16;

void
BM_CacheL1Hit(benchmark::State &state)
{
    // A 16 KiB working set (a quarter of the L1), all resident: every
    // timed access is a full hit.
    SectoredCache l1(kL1Bytes, kL1Assoc, "l1");
    Rng rng(3);
    std::vector<Addr> addrs(8192);
    for (auto &a : addrs)
        a = 0x100000 +
            rng.nextBounded(16 * 1024 / kSectorSize) * kSectorSize;
    for (Addr a : addrs)
        l1.access(a, false, true);
    size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(l1.access(addrs[i++ & 8191], false, true));
}
BENCHMARK(BM_CacheL1Hit);

void
BM_CacheL2Miss(benchmark::State &state)
{
    // Random sectors over 256 MiB, 256x the L2: nearly every access
    // misses, allocates and evicts an LRU victim.
    SectoredCache l2(kL2Bytes, kL2Assoc, "l2");
    Rng rng(4);
    std::vector<Addr> addrs(1 << 16);
    for (auto &a : addrs)
        a = rng.nextBounded(Addr{256} << 20) & ~(kSectorSize - 1);
    size_t i = 0;
    EvictInfo ev;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            l2.access(addrs[i++ & 0xFFFF], false, true, &ev));
    }
    benchmark::DoNotOptimize(ev);
}
BENCHMARK(BM_CacheL2Miss);

void
BM_MshrLocateInsert(benchmark::State &state)
{
    // The miss path's probe-then-record pair at a steady live set: one
    // miss per cycle on a 32K-sector pool, each in flight 200..999
    // cycles, so about 600 entries are live and the table sweeps its
    // expired ones as it goes. Re-missed sectors still in flight merge.
    MshrTable t;
    Rng rng(5);
    std::vector<Addr> addrs(1 << 16);
    for (auto &a : addrs)
        a = rng.nextBounded(32768) * kSectorSize;
    Cycles now = 0;
    uint64_t merges = 0;
    for (auto _ : state) {
        const Addr a = addrs[now & 0xFFFF];
        const MshrTable::Ref r = t.locate(a);
        if (r.found && t.readyAt(r) > now)
            ++merges;
        else
            t.insertAt(r, a, now + 200 + (now * 7919) % 800, now);
        ++now;
    }
    benchmark::DoNotOptimize(merges);
    state.counters["capacity"] = static_cast<double>(t.capacity());
}
BENCHMARK(BM_MshrLocateInsert);

void
BM_PageTableLookup(benchmark::State &state)
{
    PageTable pt(4096);
    placeInterleaved(pt, 0, 64 << 20, allNodes(16), 4096);
    Rng rng(2);
    std::vector<Addr> addrs(8192);
    for (auto &a : addrs)
        a = rng.nextBounded(64 << 20);
    size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(pt.lookup(addrs[i++ & 8191]));
}
BENCHMARK(BM_PageTableLookup);

void
BM_BandwidthServerBook(benchmark::State &state)
{
    BandwidthServer s(128.0, 100);
    Cycles now = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(s.book(now++, 32));
}
BENCHMARK(BM_BandwidthServerBook);

void
BM_MemAccessL2Hit(benchmark::State &state)
{
    // SM 0 sweeps 512 KiB homed on its own node sector by sector: the
    // sweep thrashes its 64 KiB L1 (every access misses) but fits the
    // 1 MiB L2, so after one warm-up pass every access is a requester-L2
    // hit -- front end, translation and L2, no fetch.
    const SystemConfig cfg = presets::multiGpu4x4();
    MemorySystem mem(cfg);
    constexpr Addr kBase = 0x1000000;
    constexpr Addr kSpan = 512 * 1024;
    mem.pageTable().place(kBase, kSpan, 0);
    Cycles now = 0;
    for (Addr a = 0; a < kSpan; a += kSectorSize, now += 4)
        mem.access(now, 0, kBase + a, false);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mem.access(now, 0, kBase + a, false));
        a = (a + kSectorSize) & (kSpan - 1);
        now += 4;
    }
    state.counters["l2_hit_rate"] =
        static_cast<double>(mem.l2Hits()) / mem.l2Accesses();
}
BENCHMARK(BM_MemAccessL2Hit);

void
BM_MemAccessRemoteMiss(benchmark::State &state)
{
    // SM 0 reads random sectors of 256 MiB homed on the next chiplet of
    // its GPU: L1 and requester-L2 misses, then the remote leg -- ring
    // out, home L2 (mostly missing), home HBM, ring back -- and an MSHR
    // insert. Time advances 16 cycles per access, so no server backs up.
    const SystemConfig cfg = presets::multiGpu4x4();
    MemorySystem mem(cfg);
    constexpr Addr kBase = 0x1000000;
    constexpr Addr kSpan = Addr{256} << 20;
    mem.pageTable().place(kBase, kSpan, 1);
    Rng rng(6);
    std::vector<Addr> addrs(1 << 16);
    for (auto &a : addrs)
        a = kBase + (rng.nextBounded(kSpan) & ~(kSectorSize - 1));
    Cycles now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mem.access(now, 0, addrs[(now / 16) & 0xFFFF], false));
        now += 16;
    }
    state.counters["remote_fraction"] = mem.offChipFraction();
}
BENCHMARK(BM_MemAccessRemoteMiss);

void
BM_AffineWarpStep(benchmark::State &state)
{
    KernelDesc k;
    k.numArgs = 1;
    k.accesses.push_back(
        {0, (by * 16 + ty) * (gdx * bdx) + m * 16 + tx, 4, false});
    LaunchDims dims;
    dims.grid = {48, 48};
    dims.block = {16, 16};
    dims.loopTrips = 48;
    AffineTraceSource trace(k, dims,
                            {Allocation{1, 0x100000, 64 << 20, "a"}});
    std::vector<MemAccess> buf;
    int64_t step = 0;
    for (auto _ : state) {
        buf.clear();
        trace.warpStep(100, 3, step++ % 48, buf);
        benchmark::DoNotOptimize(buf.size());
    }
}
BENCHMARK(BM_AffineWarpStep);

} // namespace
} // namespace ladm

BENCHMARK_MAIN();
