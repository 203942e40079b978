/**
 * @file
 * Tests for GpuSystem-level behaviour: the running clock across kernel
 * launches, boundary flushes, and hierarchical network accounting.
 */

#include <gtest/gtest.h>

#include "config/presets.hh"
#include "interconnect/network.hh"
#include "sched/kernel_wide.hh"
#include "sim/gpu_system.hh"

namespace ladm
{
namespace
{

class TinyTrace : public TraceSource
{
  public:
    bool
    warpStep(TbId tb, int warp, int64_t step,
             std::vector<MemAccess> &out) override
    {
        if (step >= 4)
            return false;
        out.push_back({static_cast<Addr>(tb) * 4096 +
                           static_cast<Addr>(step) * 32,
                       false});
        return true;
    }
};

TEST(GpuSystem, ClockAccumulatesAcrossKernels)
{
    const auto cfg = presets::multiGpu4x4();
    GpuSystem sys(cfg);
    sys.mem().pageTable().place(0, 1 << 26, 0);

    LaunchDims dims;
    dims.grid = {64, 1};
    dims.block = {128, 1};
    dims.loopTrips = 4;
    KernelWideScheduler sched;
    TinyTrace t1, t2;
    const auto a =
        sys.runKernel(dims, t1, sched.assign(dims, cfg),
                      L2InsertPolicy::RTwice);
    EXPECT_EQ(sys.now(), a.endCycle);
    const auto b =
        sys.runKernel(dims, t2, sched.assign(dims, cfg),
                      L2InsertPolicy::RTwice);
    EXPECT_GE(b.startCycle, a.endCycle);
    EXPECT_GT(b.endCycle, a.endCycle);
    EXPECT_EQ(sys.now(), b.endCycle);
}

TEST(GpuSystem, BoundaryFlushForcesRefetch)
{
    const auto cfg = presets::multiGpu4x4();
    GpuSystem sys(cfg);
    sys.mem().pageTable().place(0, 1 << 26, 0);
    LaunchDims dims;
    dims.grid = {16, 1};
    dims.block = {128, 1};
    dims.loopTrips = 4;
    KernelWideScheduler sched;
    TinyTrace t1, t2, t3;
    sys.runKernel(dims, t1, sched.assign(dims, cfg),
                  L2InsertPolicy::RTwice);
    const uint64_t after_first = sys.mem().fetchLocal();
    // Flushed relaunch refetches everything...
    sys.runKernel(dims, t2, sched.assign(dims, cfg),
                  L2InsertPolicy::RTwice, /*flush_caches=*/true);
    EXPECT_EQ(sys.mem().fetchLocal(), 2 * after_first);
    // ...an unflushed one hits warm caches.
    sys.runKernel(dims, t3, sched.assign(dims, cfg),
                  L2InsertPolicy::RTwice, /*flush_caches=*/false);
    EXPECT_LT(sys.mem().fetchLocal(), 3 * after_first);
}

TEST(HierarchicalNet, SwitchBytesCountOnlyGpuCrossings)
{
    const auto cfg = presets::multiGpu4x4();
    Network net(cfg);
    net.routeDelay(0, 0, 1, 32);  // same GPU: ring only
    EXPECT_EQ(net.switchBytes(), 0u);
    net.routeDelay(0, 0, 5, 32);  // cross GPU
    net.routeDelay(0, 15, 2, 64); // cross GPU
    EXPECT_EQ(net.switchBytes(), 96u);
    net.reset();
    EXPECT_EQ(net.switchBytes(), 0u);
}

TEST(GpuSystem, DgxPresetGeometry)
{
    const auto cfg = presets::dgx4();
    EXPECT_EQ(cfg.numNodes(), 4);
    EXPECT_EQ(cfg.totalSms(), 320);
    EXPECT_EQ(cfg.topology, Topology::Crossbar);
    GpuSystem sys(cfg); // constructible and validated
    EXPECT_EQ(sys.now(), 0u);
}

} // namespace
} // namespace ladm
