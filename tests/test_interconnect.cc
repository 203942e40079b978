/**
 * @file
 * Tests for bandwidth servers and the fabric's three topologies.
 */

#include <gtest/gtest.h>

#include "common/bandwidth_server.hh"
#include "config/presets.hh"
#include "interconnect/network.hh"

namespace ladm
{
namespace
{

TEST(BandwidthServer, ServiceRate)
{
    BandwidthServer s(32.0, 0); // 32 B/cycle
    // 10 transfers of 320B issued at t=0: each occupies 10 cycles.
    Cycles total = 0;
    for (int i = 0; i < 10; ++i)
        total = s.transfer(0, 320);
    EXPECT_EQ(total, 100u);
    EXPECT_EQ(s.totalBytes(), 3200u);
    EXPECT_EQ(s.busyCycles(), 100u);
}

TEST(BandwidthServer, FixedLatencyAdds)
{
    BandwidthServer s(32.0, 50);
    EXPECT_EQ(s.transfer(0, 32), 0u + 1 + 50);
}

TEST(BandwidthServer, FractionalAccumulation)
{
    BandwidthServer s(64.0, 0); // 32B = 0.5 cycles
    // 8 sector transfers = 4 busy cycles total, not 0 and not 8.
    Cycles last = 0;
    for (int i = 0; i < 8; ++i)
        last = s.transfer(0, 32);
    EXPECT_EQ(s.busyCycles(), 4u);
    EXPECT_EQ(last, 4u);
}

TEST(BandwidthServer, IdleIsFree)
{
    BandwidthServer s(32.0, 0);
    s.transfer(0, 3200); // busy till 100
    // A transfer issued long after the backlog drains pays no queue.
    EXPECT_EQ(s.book(1000, 32), 1u);
}

TEST(BandwidthServer, MonotoneBookingQueues)
{
    BandwidthServer s(32.0, 0);
    EXPECT_EQ(s.book(0, 320), 10u);
    // Issued at t=5, must wait until the first transfer's slot ends.
    EXPECT_EQ(s.book(5, 320), 5u + 10);
}

// Regression: a measurement-window boundary must clear the byte/busy
// counters WITHOUT warping the server's availability back to cycle 0.
// Before resetStats() was split out of reset(), a window reset either
// left the previous window's bytes in the counters or let the next
// transfer start in the past on a still-occupied link.
TEST(BandwidthServer, ResetStatsPreservesTimingState)
{
    BandwidthServer s(32.0, 0);
    s.book(0, 3200); // occupies the server until cycle 100
    ASSERT_EQ(s.nextFree(), 100u);
    ASSERT_EQ(s.totalBytes(), 3200u);

    s.resetStats();
    EXPECT_EQ(s.totalBytes(), 0u);
    EXPECT_EQ(s.busyCycles(), 0u);
    EXPECT_EQ(s.nextFree(), 100u); // the backlog did not vanish

    // A transfer issued at cycle 0 still queues behind the backlog.
    EXPECT_EQ(s.book(0, 32), 100u + 1);
    EXPECT_EQ(s.totalBytes(), 32u); // only the new window's bytes
}

TEST(BandwidthServer, ResetClears)
{
    BandwidthServer s(32.0, 7);
    s.transfer(0, 6400);
    s.reset();
    EXPECT_EQ(s.totalBytes(), 0u);
    EXPECT_EQ(s.nextFree(), 0u);
    EXPECT_EQ(s.transfer(0, 32), 1u + 7);
}

/** A flat @p n-node ring whose segments carry @p seg_bpc bytes per
 *  cycle in each direction and take @p hop cycles each. */
SystemConfig
ringOf(int n, double seg_bpc, Cycles hop)
{
    SystemConfig cfg = presets::mcmRing(n, 1.0);
    cfg.clockGhz = 1.0;
    cfg.interChipletRingGBs = 2.0 * seg_bpc; // split over two directions
    cfg.ringHopLatencyCycles = hop;
    return cfg;
}

TEST(RingFabric, ShortestDirection)
{
    // 8-node ring, generous bandwidth so only hop latency matters.
    Network ring(ringOf(8, 1e9, /*hop=*/10));
    EXPECT_EQ(ring.routeDelay(0, 0, 0, 32), 0u);
    EXPECT_EQ(ring.routeDelay(0, 0, 1, 32), 10u);
    EXPECT_EQ(ring.routeDelay(0, 0, 4, 32), 40u); // either way: 4 hops
    EXPECT_EQ(ring.routeDelay(0, 0, 7, 32), 10u); // counter-clockwise
    EXPECT_EQ(ring.routeDelay(0, 6, 1, 32), 30u); // wraps
}

TEST(RingFabric, SegmentContention)
{
    Network ring(ringOf(4, 32.0, 0));
    // Saturate segment 0->1 with 100 transfers of 320B.
    Cycles last = 0;
    for (int i = 0; i < 100; ++i)
        last = ring.routeDelay(0, 0, 1, 320);
    EXPECT_EQ(last, 1000u);
    // The opposite direction is unaffected.
    EXPECT_EQ(ring.routeDelay(0, 1, 0, 320), 10u);
}

TEST(Network, MonolithicNeverRoutes)
{
    const auto cfg = presets::monolithic256();
    Network net(cfg);
    EXPECT_EQ(net.routeDelay(0, 0, 0, 32), 0u);
    EXPECT_EQ(net.interNodeBytes(), 0u);
}

TEST(Network, CrossbarCountsBytes)
{
    auto cfg = presets::multiGpuFlat(4, 90.0);
    Network net(cfg);
    net.routeDelay(0, 0, 1, 32);
    net.routeDelay(0, 2, 3, 32);
    net.routeDelay(0, 1, 1, 999); // local: not counted
    EXPECT_EQ(net.interNodeBytes(), 64u);
    EXPECT_EQ(net.interGpuBytes(), 64u); // flat: every node is a GPU
}

TEST(Network, HierarchicalDistinguishesGpuCrossings)
{
    const auto cfg = presets::multiGpu4x4();
    Network net(cfg);
    // Nodes 0 and 1 share GPU 0.
    net.routeDelay(0, 0, 1, 32);
    EXPECT_EQ(net.interNodeBytes(), 32u);
    EXPECT_EQ(net.interGpuBytes(), 0u);
    // Nodes 0 and 4 are on different GPUs.
    net.routeDelay(0, 0, 4, 32);
    EXPECT_EQ(net.interNodeBytes(), 64u);
    EXPECT_EQ(net.interGpuBytes(), 32u);
}

TEST(Network, HierarchicalIntraGpuIsCheaper)
{
    const auto cfg = presets::multiGpu4x4();
    Network net(cfg);
    const Cycles intra = net.routeDelay(0, 0, 1, 32);
    const Cycles inter = net.routeDelay(0, 0, 5, 32);
    EXPECT_LT(intra, inter);
}

TEST(Network, BandwidthScalingMatters)
{
    // Fig. 4's premise: more link bandwidth, less queueing delay.
    auto slow_cfg = presets::multiGpuFlat(4, 90.0);
    auto fast_cfg = presets::multiGpuFlat(4, 360.0);
    Network slow(slow_cfg);
    Network fast(fast_cfg);
    Cycles t_slow = 0, t_fast = 0;
    for (int i = 0; i < 1000; ++i) {
        t_slow = std::max(t_slow, slow.routeDelay(0, 0, 1, 128));
        t_fast = std::max(t_fast, fast.routeDelay(0, 0, 1, 128));
    }
    EXPECT_GT(t_slow, 3 * t_fast);
}

TEST(Network, ResetZeroesCounters)
{
    const auto cfg = presets::multiGpu4x4();
    Network net(cfg);
    net.routeDelay(0, 0, 9, 32);
    net.reset();
    EXPECT_EQ(net.interNodeBytes(), 0u);
    EXPECT_EQ(net.interGpuBytes(), 0u);
}

} // namespace
} // namespace ladm
