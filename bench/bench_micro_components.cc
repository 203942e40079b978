/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot components:
 * the symbolic algebra, the sectored cache (L1-hit and L2-miss paths at
 * the multi-gpu-4x4 geometry, and a graph cell's L2 gather), the MSHR
 * table, the page table, the bandwidth servers, the serial
 * MemorySystem::access pipeline (L2-hit and remote-miss paths, one
 * coalesced warp step), the event queue, the fabric's route booking,
 * trace generation (affine and the CSR walk), and the placement
 * advisor's byte layer (CRC32 and one request/reply frame round trip).
 * These gate the wall-clock cost of the figure harnesses and of a
 * cached placement reply, not any paper result.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include <sys/socket.h>
#include <unistd.h>

#include "cache/cache.hh"
#include "common/bandwidth_server.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "config/presets.hh"
#include "interconnect/network.hh"
#include "kernel/expr.hh"
#include "mem/page_table.hh"
#include "mem/placement.hh"
#include "runtime/malloc_registry.hh"
#include "serve/cache.hh"
#include "serve/decision.hh"
#include "serve/wire.hh"
#include "sim/event_queue.hh"
#include "sim/memory_system.hh"
#include "sim/mshr_table.hh"
#include "workloads/access_gen.hh"
#include "workloads/registry.hh"

namespace ladm
{
namespace
{

using namespace dsl;

/**
 * Report a figure of the run as its label, "name=value". A user counter
 * would do as well on the console, but google-benchmark's CSV reporter
 * aborts when one selection mixes runs with and without counters.
 */
void
label(benchmark::State &state, const char *name, double value)
{
    char text[64];
    std::snprintf(text, sizeof text, "%s=%g", name, value);
    state.SetLabel(text);
}

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
BM_CacheL2Gather(benchmark::State &state)
{
    // A graph cell's gather at the L2: random sectors of random lines
    // over twice the L2's 8192 lines, so about half the lookups find
    // their line resident (at a random way of its set) and the rest
    // miss and evict. Consecutive lookups almost never share a line.
    SectoredCache l2(kL2Bytes, kL2Assoc, "l2");
    Rng rng(5);
    const uint64_t lines = 2 * kL2Bytes / kLineSize;
    std::vector<Addr> addrs(1 << 16);
    for (auto &a : addrs)
        a = 0x1000000 + rng.nextBounded(lines) * kLineSize +
            rng.nextBounded(kLineSize / kSectorSize) * kSectorSize;
    for (Addr a : addrs)
        l2.access(a, false, true);
    l2.resetStats();
    size_t i = 0;
    EvictInfo ev;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            l2.access(addrs[i++ & 0xFFFF], false, true, &ev));
    }
    benchmark::DoNotOptimize(ev);
    label(state, "line_hit_rate",
          1.0 - static_cast<double>(l2.lineMisses()) / l2.accesses());
}
BENCHMARK(BM_CacheL2Gather);

void
BM_MshrLocateInsert(benchmark::State &state, bool line_run)
{
    // The miss path's probe-then-record pair at a steady live set: one
    // miss per cycle on a 32K-sector pool, each in flight 200..999
    // cycles, so about 600 sectors are live and the table sweeps its
    // expired ones as it goes. Re-missed sectors still in flight merge.
    // Scattered: each miss on a random sector. Line run: the four
    // sectors of a random line back to back, as a coalesced step issues
    // them. Label: the final line-slot capacity.
    MshrTable t;
    Rng rng(5);
    std::vector<Addr> addrs(1 << 16);
    for (size_t i = 0; i < addrs.size(); ++i)
        addrs[i] = !line_run ? rng.nextBounded(32768) * kSectorSize
                   : i % 4 == 0 ? rng.nextBounded(8192) * kLineSize
                                : addrs[i - 1] + kSectorSize;
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
    label(state, "capacity", static_cast<double>(t.capacity()));
}
BENCHMARK_CAPTURE(BM_MshrLocateInsert, scattered, false);
BENCHMARK_CAPTURE(BM_MshrLocateInsert, line_run, true);

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
    // The fabric's traffic on one link: 8-byte requests and 32-byte
    // replies interleaved in a seeded random order.
    BandwidthServer s(128.0, 100);
    Rng rng(9);
    std::vector<Bytes> sizes(4096);
    for (Bytes &b : sizes)
        b = rng.nextBounded(2) ? 8 : kSectorSize;
    Cycles now = 0;
    size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(s.book(now++, sizes[i++ & 4095]));
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
    label(state, "l2_hit_rate",
          static_cast<double>(mem.l2Hits()) / mem.l2Accesses());
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
    label(state, "remote_fraction", mem.offChipFraction());
}
BENCHMARK(BM_MemAccessRemoteMiss);

void
BM_MemAccessStep(benchmark::State &state)
{
    // One coalesced warp step per iteration, the shape of a streaming
    // kernel: SM 0 reads one 128-byte line of each of two arrays and
    // writes one of a third, 12 sectors in trace order. Each array spans
    // 256 KiB homed on SM 0's node, so the sweep thrashes the 64 KiB L1
    // but fits the 1 MiB L2: after one warm-up pass the reads are L1
    // misses and L2 hits, the write a write-invalidate and an L2 write
    // hit. Time advances 16 cycles per step. Items are sectors: the
    // time per sector is 1 / items_per_second (or the step time / 12).
    const SystemConfig cfg = presets::multiGpu4x4();
    MemorySystem mem(cfg);
    constexpr Addr kBase = 0x1000000;
    constexpr Addr kSpan = 256 * 1024;
    constexpr int kSites = 3;
    constexpr int kSectors = kSites * kLineSize / kSectorSize;
    mem.pageTable().place(kBase, kSites * kSpan, 0);
    std::vector<MemAccess> step(kSectors);
    auto fill = [&step](Addr line) {
        for (int i = 0; i < kSectors; ++i) {
            const int site = i / (kLineSize / kSectorSize);
            step[i] = {kBase + site * kSpan + line +
                           (i % (kLineSize / kSectorSize)) * kSectorSize,
                       site == kSites - 1};
        }
    };
    Cycles now = 0;
    for (Addr line = 0; line < kSpan; line += kLineSize, now += 16) {
        fill(line);
        mem.accessStep(now, 0, step.data(), step.data() + kSectors);
    }
    Addr line = 0;
    for (auto _ : state) {
        fill(line);
        benchmark::DoNotOptimize(
            mem.accessStep(now, 0, step.data(), step.data() + kSectors));
        line = (line + kLineSize) & (kSpan - 1);
        now += 16;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            kSectors);
    label(state, "l2_hit_rate",
          static_cast<double>(mem.l2Hits()) / mem.l2Accesses());
}
BENCHMARK(BM_MemAccessStep);

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

void
BM_CsrWalkStep(benchmark::State &state)
{
    // Every step of the first 32 thread blocks of SSSP at scale 0.1 (64
    // warps of a power-law CSR walk: row pointers, then one edge per
    // still-active lane and its value gather). Items are warp steps.
    auto w = workloads::makeWorkload("SSSP", 0.1);
    MallocRegistry reg;
    w->allocateAll(reg);
    auto trace = w->makeTrace(reg);
    const int warps = static_cast<int>(w->dims().threadsPerTb() / 32);
    std::vector<MemAccess> buf;
    int64_t steps = 0;
    for (auto _ : state) {
        for (TbId tb = 0; tb < 32; ++tb) {
            for (int wi = 0; wi < warps; ++wi) {
                for (int64_t step = 0;; ++step) {
                    buf.clear();
                    if (!trace->warpStep(tb, wi, step, buf))
                        break;
                    ++steps;
                }
            }
        }
        benchmark::DoNotOptimize(buf.data());
    }
    state.SetItemsProcessed(steps);
    label(state, "steps_per_pass",
          static_cast<double>(steps) / state.iterations());
}
BENCHMARK(BM_CsrWalkStep);

template <class Key>
void
BM_EventQueue(benchmark::State &state)
{
    // An engine lane's queue at state.range(0) live warps: each step pops
    // the earliest warp and re-files it one compute gap to one memory
    // round trip later, so the live set stays constant. The serial lane
    // holds 16K+ warps in 8-byte entries; a sharded lane at most 1024
    // (16 SMs x 64 slots) in 16-byte ones.
    const auto warps = static_cast<uint32_t>(state.range(0));
    EventQueue<Key> q;
    Rng rng(7);
    for (uint32_t w = 0; w < warps; ++w)
        q.push(rng.nextBounded(1000), w);
    std::vector<Cycles> delays(4096);
    for (Cycles &d : delays)
        d = 4 + rng.nextBounded(600);
    size_t i = 0;
    for (auto _ : state) {
        const WarpEvent ev = q.pop();
        q.push(ev.time + delays[i++ & 4095], ev.warp);
    }
    benchmark::DoNotOptimize(q.size());
    label(state, "entry_bytes", sizeof(Key));
}
BENCHMARK_TEMPLATE(BM_EventQueue, uint64_t)->Arg(16 * 1024)->Arg(1024);
BENCHMARK_TEMPLATE(BM_EventQueue, uint128_t)->Arg(1024);

void
BM_NetworkRouteDelay(benchmark::State &state)
{
    // multi-gpu-4x4: 16 chiplets, cycling through all 240 ordered
    // remote (src, dst) pairs, one sector each, 8 cycles apart.
    const SystemConfig cfg = presets::multiGpu4x4();
    Network net(cfg);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (NodeId s = 0; s < cfg.numNodes(); ++s)
        for (NodeId d = 0; d < cfg.numNodes(); ++d)
            if (s != d)
                pairs.emplace_back(s, d);
    Cycles now = 0;
    size_t i = 0;
    for (auto _ : state) {
        const auto [src, dst] = pairs[i];
        benchmark::DoNotOptimize(net.routeDelay(now, src, dst, kSectorSize));
        if (++i == pairs.size())
            i = 0;
        now += 8;
    }
    label(state, "pairs", static_cast<double>(pairs.size()));
}
BENCHMARK(BM_NetworkRouteDelay);

void
BM_Crc32(benchmark::State &state)
{
    std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)));
    Rng rng(8);
    for (uint8_t &b : buf)
        b = static_cast<uint8_t>(rng.next());
    for (auto _ : state)
        benchmark::DoNotOptimize(serial::crc32(buf.data(), buf.size()));
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(512)->Arg(64 * 1024);

void
BM_FrameRoundTrip(benchmark::State &state)
{
    // One Place frame out and the cached Decision frame back over a
    // socket pair, each read through a FrameReader: the wire cost of a
    // cache hit without the server's threads.
    using namespace serve;
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        state.SkipWithError("socketpair failed");
        return;
    }
    PlacementRequest req;
    req.kernelSource = "kernel vecadd(A, B, C) {\n"
                       "    let i = blockIdx.x * blockDim.x + threadIdx.x;\n"
                       "    read A[i] : f32;\n    read B[i] : f32;\n"
                       "    write C[i] : f32;\n}";
    req.dims.grid = {64, 1};
    req.dims.block = {256, 1};
    req.argBytes = {4u << 20, 4u << 20, 4u << 20};
    ByteWriter w;
    req.encode(w);
    const std::string request = w.take();
    PlacementDecision d;
    d.scheduler = "kernel-wide";
    d.args = {{1, "A: chunked"}, {1, "B: chunked"}, {1, "C: chunked"}};
    DecisionCache cache(1);
    cache.put(d.key, d.encode());
    const std::string &reply = *cache.find(d.key);

    FrameReader client(sv[0]), server(sv[1]);
    Frame f;
    for (auto _ : state) {
        sendFrame(sv[0], MsgType::Place, request);
        if (server.read(f) != RecvStatus::Ok)
            state.SkipWithError("request lost");
        sendBytes(sv[1], reply);
        if (client.read(f, 1000) != RecvStatus::Ok)
            state.SkipWithError("reply lost");
        benchmark::DoNotOptimize(f.payload.data());
    }
    ::close(sv[0]);
    ::close(sv[1]);
}
BENCHMARK(BM_FrameRoundTrip);

} // namespace
} // namespace ladm

BENCHMARK_MAIN();
