#include "sched/scheduler.hh"

#include "check/fault_plan.hh"

namespace ladm
{

std::vector<std::vector<TbId>>
TbScheduler::assign(const LaunchDims &dims, const SystemConfig &sys,
                    Cycles now) const
{
    auto queues = assignImpl(dims, sys);

    // Graceful degradation: no concrete policy knows about faults, so
    // the wrapper re-binds any queue aimed at a failed chiplet to that
    // node's healthy fallback (same choice MemorySystem re-homes pages
    // to, keeping placement and dispatch aligned). Fault-oblivious mode
    // leaves the queues alone: those TBs run on SMs whose HBM is dead.
    if (!sys.faultSpec.empty() && sys.faultDegradation) {
        const check::FaultPlan plan = check::FaultPlan::parse(
            sys.faultSpec);
        if (plan.anyChipletFaults()) {
            for (size_t n = 0; n < queues.size(); ++n) {
                const NodeId node = static_cast<NodeId>(n);
                if (queues[n].empty() || !plan.nodeFailed(now, node))
                    continue;
                const NodeId to = plan.fallbackNode(now, node, sys);
                auto &dst = queues[to];
                dst.insert(dst.end(), queues[n].begin(), queues[n].end());
                queues[n].clear();
            }
        }
    }
    return queues;
}

} // namespace ladm
