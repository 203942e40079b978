/**
 * @file
 * Tests for the NUMA memory path: local vs remote service, caching,
 * MSHR merging, RTWICE/RONCE insertion, UVM first touch, traffic
 * classes, the kernel-boundary flush, and warp-step issue against
 * sector-by-sector issue.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/serial.hh"
#include "config/presets.hh"
#include "mem/placement.hh"
#include "sim/memory_system.hh"

namespace ladm
{
namespace
{

class MemorySystemTest : public ::testing::Test
{
  protected:
    MemorySystemTest() : cfg_(presets::multiGpu4x4()), mem_(cfg_) {}

    /** First SM of a node. */
    SmId
    smOf(NodeId n) const
    {
        return n * cfg_.smsPerChiplet;
    }

    SystemConfig cfg_;
    MemorySystem mem_;
};

TEST_F(MemorySystemTest, LocalAccessStaysOnNode)
{
    mem_.pageTable().place(0x10000, 4096, 2);
    const Cycles t = mem_.access(0, smOf(2), 0x10000, false);
    EXPECT_GT(t, 0u);
    EXPECT_EQ(mem_.fetchLocal(), 1u);
    EXPECT_EQ(mem_.fetchRemote(), 0u);
    EXPECT_EQ(mem_.network().interNodeBytes(), 0u);
}

TEST_F(MemorySystemTest, RemoteAccessCrossesFabric)
{
    mem_.pageTable().place(0x10000, 4096, 9);
    mem_.access(0, smOf(2), 0x10000, false);
    EXPECT_EQ(mem_.fetchLocal(), 0u);
    EXPECT_EQ(mem_.fetchRemote(), 1u);
    EXPECT_GT(mem_.network().interNodeBytes(), 0u);
    EXPECT_DOUBLE_EQ(mem_.offChipFraction(), 1.0);
}

TEST_F(MemorySystemTest, RemoteIsSlowerThanLocal)
{
    mem_.pageTable().place(0x10000, 4096, 2);
    mem_.pageTable().place(0x20000, 4096, 9);
    const Cycles local = mem_.access(0, smOf(2), 0x10000, false);
    const Cycles remote = mem_.access(0, smOf(2), 0x20000, false);
    EXPECT_GT(remote, local);
}

TEST_F(MemorySystemTest, SecondAccessHitsL1)
{
    mem_.pageTable().place(0x10000, 4096, 9);
    const Cycles t1 = mem_.access(0, smOf(2), 0x10000, false);
    const Cycles t2 = mem_.access(t1, smOf(2), 0x10000, false);
    EXPECT_EQ(t2, t1 + cfg_.l1LatencyCycles);
    EXPECT_EQ(mem_.l1Hits(), 1u);
    EXPECT_EQ(mem_.fetchRemote(), 1u); // no refetch
}

TEST_F(MemorySystemTest, PeerSmHitsSharedL2)
{
    mem_.pageTable().place(0x10000, 4096, 9);
    const Cycles t1 = mem_.access(0, smOf(2), 0x10000, false);
    // A different SM on the same node finds it in the node's L2.
    const Cycles t2 = mem_.access(t1, smOf(2) + 1, 0x10000, false);
    EXPECT_LT(t2 - t1, 300u);
    EXPECT_EQ(mem_.fetchRemote(), 1u);
}

TEST_F(MemorySystemTest, MshrMergesConcurrentMisses)
{
    mem_.pageTable().place(0x10000, 4096, 9);
    const Cycles t1 = mem_.access(0, smOf(2), 0x10000, false);
    // Another SM on the same node asks while the fetch is in flight.
    const Cycles t2 = mem_.access(1, smOf(2) + 3, 0x10000, false);
    EXPECT_EQ(t2, t1);
    EXPECT_EQ(mem_.mshrMerges(), 1u);
    EXPECT_EQ(mem_.fetchRemote(), 1u);
}

TEST_F(MemorySystemTest, FirstTouchMapsUnplacedPage)
{
    EXPECT_FALSE(mem_.pageTable().isMapped(0x50000));
    mem_.access(0, smOf(5), 0x50000, false);
    EXPECT_EQ(mem_.pageTable().lookup(0x50000), 5);
    EXPECT_EQ(mem_.uvmFaults(), 1u);
    EXPECT_EQ(mem_.fetchLocal(), 1u);
}

TEST_F(MemorySystemTest, PageFaultCostIsCharged)
{
    auto cfg = presets::multiGpu4x4();
    cfg.pageFaultCycles = 30000;
    MemorySystem mem(cfg);
    mem.pageTable().place(0x10000, 4096, 0);
    const Cycles mapped = mem.access(0, 0, 0x10000, false);
    const Cycles faulted = mem.access(0, 0, 0x90000, false);
    EXPECT_GE(faulted, mapped + 30000);
}

TEST_F(MemorySystemTest, RTwiceCachesAtHome)
{
    mem_.setInsertPolicy(L2InsertPolicy::RTwice);
    mem_.pageTable().place(0x10000, 4096, 9);
    mem_.access(0, smOf(2), 0x10000, false);
    EXPECT_TRUE(mem_.l2(9).probe(0x10000));
    EXPECT_TRUE(mem_.l2(2).probe(0x10000));
}

TEST_F(MemorySystemTest, ROnceBypassesHomeL2)
{
    mem_.setInsertPolicy(L2InsertPolicy::ROnce);
    mem_.pageTable().place(0x10000, 4096, 9);
    mem_.access(0, smOf(2), 0x10000, false);
    EXPECT_FALSE(mem_.l2(9).probe(0x10000));
    EXPECT_TRUE(mem_.l2(2).probe(0x10000)); // requester side still caches
}

TEST_F(MemorySystemTest, ROnceStillCachesLocalTraffic)
{
    mem_.setInsertPolicy(L2InsertPolicy::ROnce);
    mem_.pageTable().place(0x10000, 4096, 2);
    mem_.access(0, smOf(2), 0x10000, false);
    EXPECT_TRUE(mem_.l2(2).probe(0x10000));
}

TEST_F(MemorySystemTest, TrafficClassAccounting)
{
    mem_.pageTable().place(0x10000, 4096, 2);
    mem_.pageTable().place(0x20000, 4096, 9);
    mem_.access(0, smOf(2), 0x10000, false); // LOCAL-LOCAL at node 2
    mem_.access(0, smOf(2), 0x20000, false); // LOCAL-REMOTE at 2,
                                             // REMOTE-LOCAL at 9
    EXPECT_EQ(mem_.classAccesses(TrafficClass::LocalLocal), 1u);
    EXPECT_EQ(mem_.classAccesses(TrafficClass::LocalRemote), 1u);
    EXPECT_EQ(mem_.classAccesses(TrafficClass::RemoteLocal), 1u);
}

TEST_F(MemorySystemTest, FlushDropsCaches)
{
    mem_.pageTable().place(0x10000, 4096, 2);
    Cycles t = mem_.access(0, smOf(2), 0x10000, false);
    mem_.flushCaches();
    EXPECT_FALSE(mem_.l2(2).probe(0x10000));
    mem_.access(t + 10000, smOf(2), 0x10000, false);
    EXPECT_EQ(mem_.fetchLocal(), 2u); // refetched after the flush
}

TEST_F(MemorySystemTest, WritesAreWriteThroughL1)
{
    mem_.pageTable().place(0x10000, 4096, 2);
    mem_.access(0, smOf(2), 0x10000, true);
    mem_.access(1000, smOf(2), 0x10000, true);
    // Both writes reach the L2 level (no L1 write hits).
    EXPECT_EQ(mem_.l1Accesses(), 0u);
    EXPECT_GE(mem_.l2(2).accesses(), 2u);
}

// Regression: the requester-side L2 allocation decision must see the
// *resolved* home, not the pre-fault page-table lookup. With remote
// caching off and first-touch pages interleaved across nodes, a cold
// access whose page homes remotely used to slip into the requester's
// (memory-side) L2 because the pre-fault lookup returned "unmapped".
TEST_F(MemorySystemTest, ColdRemoteFirstTouchRespectsMemorySideL2)
{
    auto cfg = presets::multiGpu4x4();
    cfg.remoteCachingL2 = false;
    cfg.uvmFirstTouchInterleave = true;
    MemorySystem mem(cfg);

    // Page 0x50 homes at 0x50 % 16 == node 0; touch it from node 2.
    const Addr addr = 0x50000;
    EXPECT_FALSE(mem.pageTable().isMapped(addr));
    mem.access(0, smOf(2), addr, false);

    EXPECT_EQ(mem.pageTable().lookup(addr), 0);
    EXPECT_EQ(mem.fetchRemote(), 1u);
    // Memory-side L2: only the home may hold the line.
    EXPECT_FALSE(mem.l2(2).probe(addr));
    EXPECT_TRUE(mem.l2(0).probe(addr)); // RTWICE caches at home
}

// Regression: resetStats() must drop the outstanding-miss (MSHR) maps.
// A completion time recorded before the reset used to satisfy merges in
// the next measurement window, handing out a stale (huge) timestamp.
TEST_F(MemorySystemTest, ResetStatsDropsPendingMisses)
{
    mem_.pageTable().place(0x10000, 4096, 9);
    const Cycles t1 = mem_.access(0, smOf(2), 0x10000, false);
    ASSERT_GT(t1, 300u); // the remote fetch is genuinely in flight

    mem_.resetStats();

    // A different SM asks "while the old fetch would still be in
    // flight". The L2 line survives the reset, so this must be a cheap
    // L2 hit -- not a merge against the previous window's completion.
    const Cycles t2 = mem_.access(1, smOf(2) + 3, 0x10000, false);
    EXPECT_EQ(mem_.mshrMerges(), 0u);
    EXPECT_LT(t2, t1);
}

// Regression: resetStats() used to skip the bandwidth servers entirely,
// leaking the previous window's bytes into the next one; the naive fix
// (full reset()) would instead warp every link back to idle mid-run.
// The split contract: counters restart at zero, occupancy survives.
TEST_F(MemorySystemTest, ResetStatsClearsBytesButKeepsLinksBusy)
{
    mem_.pageTable().place(0x10000, 1 << 20, 9);
    for (int i = 0; i < 64; ++i)
        mem_.access(0, smOf(2), 0x10000 + static_cast<Addr>(i) * 4096,
                    false);
    ASSERT_GT(mem_.network().interNodeBytes(), 0u);
    ASSERT_EQ(mem_.fetchRemote(), 64u);

    mem_.resetStats();

    // Statistics restart at zero...
    EXPECT_EQ(mem_.fetchLocal(), 0u);
    EXPECT_EQ(mem_.fetchRemote(), 0u);
    EXPECT_EQ(mem_.network().interNodeBytes(), 0u);

    // ...but the fabric is still occupied: the same remote access on a
    // fresh machine is faster than one queued behind the backlog.
    MemorySystem fresh(cfg_);
    fresh.pageTable().place(0x10000, 1 << 20, 9);
    const Cycles behind = mem_.access(0, smOf(2), 0xF0000, false);
    const Cycles idle = fresh.access(0, smOf(2), 0xF0000, false);
    EXPECT_GT(behind, idle);
}

// Regression: a write used to skip the L1 entirely (write-through
// no-allocate), leaving a previously-read copy of the sector stale. The
// write must invalidate the matching L1 sector so the next read refetches.
TEST_F(MemorySystemTest, WriteInvalidatesL1Sector)
{
    mem_.pageTable().place(0x10000, 4096, 2);
    const Cycles t1 = mem_.access(0, smOf(2), 0x10000, false); // fills L1
    mem_.access(t1, smOf(2), 0x10000, true);                   // must drop it
    mem_.access(t1 + 1000, smOf(2), 0x10000, false);           // refetch
    EXPECT_EQ(mem_.l1Hits(), 0u);
    EXPECT_EQ(mem_.l1Accesses(), 2u); // writes don't count as L1 accesses
}

TEST_F(MemorySystemTest, MonolithicNeverGoesOffChip)
{
    auto cfg = presets::monolithic256();
    MemorySystem mem(cfg);
    placeContiguousChunks(mem.pageTable(), 0, 1 << 20, allNodes(1), 0);
    for (Addr a = 0; a < (1 << 20); a += 4096)
        mem.access(0, static_cast<SmId>(a / 4096 % 256), a, false);
    EXPECT_EQ(mem.fetchRemote(), 0u);
    EXPECT_EQ(mem.network().interNodeBytes(), 0u);
}

TEST_F(MemorySystemTest, CompletionIsMonotoneWithIssueTime)
{
    mem_.pageTable().place(0, 1 << 20, 9);
    Cycles prev = 0;
    for (int i = 0; i < 1000; ++i) {
        const Cycles now = static_cast<Cycles>(i);
        const Cycles done =
            mem_.access(now, smOf(2), static_cast<Addr>(i) * 32, false);
        EXPECT_GE(done, now);
        // Completions of same-cost accesses never regress in time.
        EXPECT_GE(done + 2000, prev);
        prev = done;
    }
}

uint64_t
digestOf(MemorySystem &mem)
{
    serial::Hasher h;
    mem.io(h);
    return h.value();
}

TEST(MemStep, StepMatchesPerSectorAccess)
{
    // One seeded stream of warp steps, issued through accessStep() on
    // one memory system and sector by sector through access() on
    // another: every step must complete at the same cycle, and both
    // machines must end in the same state. The steps mix coalesced
    // 4-sector lines, scattered sectors, writes, first touches of
    // unplaced pages, and a sector repeated within its step, which
    // merges into the miss its first copy put in flight.
    const SystemConfig cfg = presets::multiGpu4x4();
    constexpr Addr kPlaced = 0x1000000;
    constexpr Addr kUnplaced = 0x4000000;
    constexpr Bytes kSpan = 1 << 20;
    for (const L2InsertPolicy policy :
         {L2InsertPolicy::RTwice, L2InsertPolicy::ROnce}) {
        MemorySystem by_step(cfg), by_sector(cfg);
        for (MemorySystem *m : {&by_step, &by_sector}) {
            m->setInsertPolicy(policy);
            placeInterleaved(m->pageTable(), kPlaced, kSpan,
                             allNodes(cfg.numNodes()), cfg.pageSize);
        }
        Rng rng(policy == L2InsertPolicy::RTwice ? 31 : 32);
        std::vector<MemAccess> step;
        Cycles now = 0;
        uint64_t repeat_merges = 0;
        for (int s = 0; s < 20000; ++s) {
            step.clear();
            const uint64_t sites = 1 + rng.nextBounded(4);
            for (uint64_t k = 0; k < sites; ++k) {
                const uint64_t kind = rng.nextBounded(8);
                if (kind < 5) {
                    // Coalesced: one line's four sectors, a sixth of
                    // them on pages nobody placed (first touch).
                    const Addr base = kind == 0 ? kUnplaced : kPlaced;
                    const Addr line =
                        base + rng.nextBounded(kSpan / kLineSize) * kLineSize;
                    const bool write = rng.nextBounded(5) == 0;
                    for (Addr o = 0; o < kLineSize; o += kSectorSize)
                        step.push_back({line + o, write});
                } else {
                    for (int i = 0; i < 3; ++i) {
                        step.push_back({kPlaced + rng.nextBounded(kSpan),
                                        rng.nextBounded(3) == 0});
                    }
                }
            }
            const bool repeat = rng.nextBounded(4) == 0;
            if (repeat)
                step.push_back(step[rng.nextBounded(step.size())]);
            const auto sm = static_cast<SmId>(rng.nextBounded(16) *
                                              cfg.smsPerChiplet);

            const Cycles got = by_step.accessStep(
                now, sm, step.data(), step.data() + step.size());
            Cycles want = now;
            uint64_t merges_before_last = 0;
            for (const MemAccess &a : step) {
                merges_before_last = by_sector.mshrMerges();
                want = std::max(want,
                                by_sector.access(now, sm, a.addr, a.write));
            }
            ASSERT_EQ(got, want) << "step " << s;
            if (repeat)
                repeat_merges += by_sector.mshrMerges() - merges_before_last;
            now += rng.nextBounded(40);
        }

        EXPECT_EQ(by_step.l1Accesses(), by_sector.l1Accesses());
        EXPECT_EQ(by_step.l1Hits(), by_sector.l1Hits());
        EXPECT_EQ(by_step.l2Accesses(), by_sector.l2Accesses());
        EXPECT_EQ(by_step.l2Hits(), by_sector.l2Hits());
        EXPECT_EQ(by_step.fetchLocal(), by_sector.fetchLocal());
        EXPECT_EQ(by_step.fetchRemote(), by_sector.fetchRemote());
        EXPECT_EQ(by_step.mshrMerges(), by_sector.mshrMerges());
        EXPECT_EQ(by_step.uvmFaults(), by_sector.uvmFaults());
        EXPECT_EQ(by_step.writebackSectors(), by_sector.writebackSectors());
        EXPECT_EQ(by_step.delayNet(), by_sector.delayNet());
        EXPECT_EQ(digestOf(by_step), digestOf(by_sector));

        // The stream reached every path it was built for.
        EXPECT_GT(by_step.l1Hits(), 1000u);
        EXPECT_GT(by_step.fetchRemote(), 1000u);
        EXPECT_GT(by_step.uvmFaults(), 100u);
        EXPECT_GT(repeat_merges, 100u);
    }
}

} // namespace
} // namespace ladm
