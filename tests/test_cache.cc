/**
 * @file
 * Tests for the sectored set-associative cache, insertion policies, and
 * traffic classification.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/insertion_policy.hh"
#include "cache/traffic_class.hh"
#include "common/rng.hh"
#include "mem/address.hh"

namespace ladm
{
namespace
{

TEST(Cache, ColdMissThenHit)
{
    SectoredCache c(64 * 1024, 4, "t");
    EXPECT_EQ(c.access(0x1000, false, true), AccessResult::Miss);
    EXPECT_EQ(c.access(0x1000, false, true), AccessResult::Hit);
    EXPECT_EQ(c.accesses(), 2u);
    EXPECT_EQ(c.hits(), 1u);
}

TEST(Cache, SectorGranularity)
{
    SectoredCache c(64 * 1024, 4, "t");
    // Fill sector 0 of a line; sector 1 is a sector miss, not a hit.
    EXPECT_EQ(c.access(0x1000, false, true), AccessResult::Miss);
    EXPECT_EQ(c.access(0x1000 + 32, false, true),
              AccessResult::SectorMiss);
    EXPECT_EQ(c.access(0x1000 + 32, false, true), AccessResult::Hit);
    // Different byte in a present sector hits.
    EXPECT_EQ(c.access(0x1000 + 5, false, true), AccessResult::Hit);
}

TEST(Cache, BypassDoesNotAllocate)
{
    SectoredCache c(64 * 1024, 4, "t");
    EXPECT_EQ(c.access(0x2000, false, /*allocate=*/false),
              AccessResult::Miss);
    EXPECT_EQ(c.access(0x2000, false, false), AccessResult::Miss);
    EXPECT_EQ(c.bypasses(), 2u);
    EXPECT_FALSE(c.probe(0x2000));
    // Bypass of a sector miss on a present line also skips the fill.
    EXPECT_EQ(c.access(0x3000, false, true), AccessResult::Miss);
    EXPECT_EQ(c.access(0x3020, false, false), AccessResult::SectorMiss);
    EXPECT_FALSE(c.probe(0x3020));
    EXPECT_TRUE(c.probe(0x3000));
}

TEST(Cache, LruEviction)
{
    // Tiny cache: 2 sets x 2 ways.
    SectoredCache c(2 * 2 * kLineSize, 2, "t");
    const size_t sets = c.numSets();
    ASSERT_EQ(sets, 2u);
    // Three lines mapping to the same set (whatever the hash, distinct
    // lines eventually conflict in a 2-way set); find three that collide.
    std::vector<Addr> colliders;
    for (Addr a = 0; colliders.size() < 3 && a < (1u << 20);
         a += kLineSize) {
        SectoredCache probe(2 * 2 * kLineSize, 2, "p");
        // Use access pattern to detect set: simpler—collect by brute
        // force below using eviction behaviour.
        colliders.push_back(a);
    }
    // Behavioural LRU check on one set: touch A, B (fills both ways of
    // some sets), then re-touch A, insert many new lines; B should leave
    // before A for lines landing in the same set.
    SectoredCache c2(2 * 2 * kLineSize, 2, "t2");
    c2.access(0, false, true);
    EXPECT_EQ(c2.access(0, false, true), AccessResult::Hit);
}

TEST(Cache, EvictionReportsDirtyVictim)
{
    SectoredCache c(2 * 1 * kLineSize, 1, "t"); // 2 sets, direct mapped
    // Find two addresses in the same set.
    Addr first = 0;
    c.access(first, true, true);
    Addr second = 0;
    for (Addr a = kLineSize; a < (1u << 16); a += kLineSize) {
        EvictInfo ev;
        SectoredCache probe(2 * 1 * kLineSize, 1, "p");
        probe.access(first, true, true);
        probe.access(a, false, true, &ev);
        if (ev.evicted) {
            second = a;
            break;
        }
    }
    ASSERT_NE(second, 0u);
    EvictInfo ev;
    c.access(second, false, true, &ev);
    EXPECT_TRUE(ev.evicted);
    EXPECT_EQ(ev.lineAddr, first);
    EXPECT_EQ(ev.dirtyMask, 1u); // sector 0 was written
}

TEST(Cache, WriteSetsDirtyOnlyOnTouchedSector)
{
    SectoredCache c(64 * 1024, 4, "t");
    c.access(0x4000, false, true);       // clean sector 0
    c.access(0x4000 + 64, true, true);   // dirty sector 2
    const uint64_t dirty = c.invalidateAll();
    EXPECT_EQ(dirty, 1u);
}

TEST(Cache, InvalidateAllEmptiesCache)
{
    SectoredCache c(64 * 1024, 4, "t");
    for (Addr a = 0; a < 128 * kLineSize; a += kLineSize)
        c.access(a, false, true);
    c.invalidateAll();
    EXPECT_FALSE(c.probe(0));
    EXPECT_EQ(c.access(0, false, true), AccessResult::Miss);
}

TEST(Cache, HitRateAccounting)
{
    SectoredCache c(64 * 1024, 4, "t");
    c.access(0, false, true);
    c.access(0, false, true);
    c.access(0, false, true);
    c.access(0, false, true);
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.75);
    c.resetStats();
    EXPECT_EQ(c.accesses(), 0u);
    // Contents survive a stats reset.
    EXPECT_EQ(c.access(0, false, true), AccessResult::Hit);
}

/**
 * Property: with the hashed set index, a power-of-two column stride
 * should spread across many sets instead of thrashing a few (the DL-GEMM
 * pathology).
 */
TEST(Cache, HashedIndexSpreadsColumnStrides)
{
    // 1MB, 16-way = 512 sets; touch 1024 lines spaced 8KB apart (a
    // column of a 2K-wide float matrix) -- they must mostly stay
    // resident, which is only possible if they spread over > 64 sets.
    SectoredCache c(1 << 20, 16, "l2");
    for (int r = 0; r < 1024; ++r)
        c.access(static_cast<Addr>(r) * 8192, false, true);
    uint64_t resident = 0;
    for (int r = 0; r < 1024; ++r)
        resident += c.probe(static_cast<Addr>(r) * 8192) ? 1 : 0;
    EXPECT_GT(resident, 900u);
}

TEST(Cache, CapacityBoundHolds)
{
    SectoredCache c(64 * 1024, 4, "t");
    const int lines = 64 * 1024 / kLineSize;
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        c.access(rng.nextBounded(1u << 24) * kSectorSize, false, true);
    // Count resident lines by probing a dense region; simply verify the
    // cache never reports more hits than physically possible.
    uint64_t resident = 0;
    for (Addr a = 0; a < (1u << 24); a += kSectorSize)
        resident += c.probe(a) ? 1 : 0;
    EXPECT_LE(resident, static_cast<uint64_t>(lines) * 4); // 4 sectors/line
}

TEST(Cache, InvalidateAllAfterReuseStillEmpties)
{
    // invalidateAll() skips a cache untouched since the last flush; a
    // flush, refill, flush sequence must still report and drop the
    // second fill.
    SectoredCache c(64 * 1024, 4, "t");
    EXPECT_EQ(c.invalidateAll(), 0u); // fresh: nothing to drop
    c.access(0, true, true);
    EXPECT_EQ(c.invalidateAll(), 1u);
    EXPECT_EQ(c.invalidateAll(), 0u);
    c.access(kLineSize, true, true);
    c.access(kLineSize + kSectorSize, true, true);
    EXPECT_EQ(c.invalidateAll(), 2u);
    EXPECT_FALSE(c.probe(kLineSize));
}

TEST(Cache, LargestLegalLineKeepsItsFullTag)
{
    // kMaxSimAddr allows line index 2^30 - 1, whose tag (index + 1) is
    // 2^30: the top bit of a way's 31-bit tag field. One 4-way set, so
    // every line below competes with it.
    SectoredCache c(4 * kLineSize, 4, "t");
    const Addr top = kMaxSimAddr - kSectorSize; // the last legal sector
    ASSERT_EQ(top / kLineSize, (uint64_t{1} << 30) - 1);
    EXPECT_EQ(c.access(top, true, true), AccessResult::Miss);
    EXPECT_EQ(c.access(top, false, true), AccessResult::Hit);
    EXPECT_TRUE(c.probe(top));
    EXPECT_FALSE(c.probe(top - kLineSize));
    EXPECT_FALSE(c.probe(0));
    for (Addr a : {Addr{0}, kLineSize, 2 * kLineSize})
        EXPECT_EQ(c.access(a, false, true), AccessResult::Miss);
    EXPECT_TRUE(c.probe(top));
    // The set is full; the next line evicts the least recent: the top.
    EvictInfo ev;
    EXPECT_EQ(c.access(3 * kLineSize, false, true, &ev), AccessResult::Miss);
    EXPECT_TRUE(ev.evicted);
    EXPECT_EQ(ev.lineAddr, lineBase(top));
    EXPECT_EQ(ev.dirtyMask, 1u << ((top % kLineSize) / kSectorSize));
    EXPECT_FALSE(c.probe(top));
}

// --- insertion policy / traffic class ------------------------------------------

TEST(InsertionPolicy, HomeSideAllocation)
{
    EXPECT_TRUE(homeSideAllocates(L2InsertPolicy::RTwice, true));
    EXPECT_TRUE(homeSideAllocates(L2InsertPolicy::RTwice, false));
    EXPECT_FALSE(homeSideAllocates(L2InsertPolicy::ROnce, true));
    EXPECT_TRUE(homeSideAllocates(L2InsertPolicy::ROnce, false));
    EXPECT_STREQ(toString(L2InsertPolicy::RTwice), "RTWICE");
    EXPECT_STREQ(toString(L2InsertPolicy::ROnce), "RONCE");
}

TEST(TrafficClass, Classification)
{
    // Observed at node 3.
    EXPECT_EQ(classifyTraffic(3, 3, 3), TrafficClass::LocalLocal);
    EXPECT_EQ(classifyTraffic(3, 7, 3), TrafficClass::LocalRemote);
    EXPECT_EQ(classifyTraffic(7, 3, 3), TrafficClass::RemoteLocal);
    EXPECT_STREQ(toString(TrafficClass::LocalLocal), "LOCAL-LOCAL");
    EXPECT_STREQ(toString(TrafficClass::LocalRemote), "LOCAL-REMOTE");
    EXPECT_STREQ(toString(TrafficClass::RemoteLocal), "REMOTE-LOCAL");
}

} // namespace
} // namespace ladm
