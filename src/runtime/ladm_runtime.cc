#include "runtime/ladm_runtime.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "common/sim_error.hh"
#include "kernel/datablock.hh"
#include "mem/placement.hh"
#include "runtime/lasp_placement.hh"
#include "sched/batched_rr.hh"
#include "sched/binding.hh"
#include "sched/kernel_wide.hh"
#include "telemetry/profile.hh"

namespace ladm
{

namespace
{

/** Build the Table II scheduler for the winning argument. */
std::shared_ptr<TbScheduler>
schedulerFor(const AccessClassification &cls, const ArrayAccess &access,
             const LaunchDims &dims, const SystemConfig &sys,
             Bytes page_size)
{
    switch (cls.type) {
      case LocalityType::NoLocality: {
        const Bytes stride = cls.strideBytes(dims, access.elemSize);
        if (dims.is2d()) {
            // 2-D grids (stencils, plane sweeps): contiguous launch
            // minimizes grid cuts; placement follows the map exactly.
            return std::make_shared<KernelWideScheduler>();
        }
        const Bytes db = std::max<Bytes>(datablockSize(access, dims), 1);
        Bytes span = page_size; // Eq. 2 default: one page per batch
        if (stride > 0) {
            // Match the stride-aware placement granule so batch k's
            // datablocks live on node k mod N (Eq. 1 coupling).
            span = strideInterleaveGranule(stride, sys.numNodes(),
                                           page_size);
        }
        const int64_t batch =
            std::max<int64_t>(1, static_cast<int64_t>(span / db));
        return std::make_shared<BatchedRrScheduler>(batch,
                                                    "lasp-align-aware");
      }
      case LocalityType::RowHoriz:
      case LocalityType::RowVert:
        return std::make_shared<RowBindingScheduler>();
      case LocalityType::ColHoriz:
      case LocalityType::ColVert:
        return std::make_shared<ColBindingScheduler>();
      case LocalityType::IntraThread:
      case LocalityType::Unclassified:
        return std::make_shared<KernelWideScheduler>();
    }
    ladm_panic("unhandled locality type");
}

} // namespace

LaunchPlan
LadmRuntime::prepareLaunch(const KernelDesc &kernel, const LaunchDims &dims,
                           const std::vector<uint64_t> &arg_pcs,
                           const MallocRegistry &reg, PageTable &pt)
{
    LADM_SCOPED_TIMER("runtime.prepare_launch");
    ladm_require(static_cast<int>(arg_pcs.size()) == kernel.numArgs,
                 "kernel '", kernel.name, "' expects ", kernel.numArgs,
                 " args, got ", arg_pcs.size());

    LaunchPlan plan;

    // Pass 1: bind arguments and pick the scheduler. The tie-break
    // (Section III-D2) favors the classified argument backed by the
    // largest allocation.
    const LocalityRow *winner = nullptr;
    Bytes winner_size = 0;

    for (int arg = 0; arg < kernel.numArgs; ++arg) {
        const Allocation &alloc = reg.byPc(arg_pcs[arg]);
        table_.bindArg(kernel.name, arg, arg_pcs[arg], alloc.base,
                       ceilDiv(alloc.size, pt.pageSize()));

        const LocalityRow *row = table_.summaryRowFor(kernel.name, arg);
        if (!row)
            continue;
        // Unclassified structures participate too: Table II row 7 has
        // its own decision (kernel-wide), and the paper's rule is simply
        // "favor the policy associated with the larger data structure".
        const bool better =
            !winner || (tieBreakLargest_ ? alloc.size > winner_size
                                         : false);
        if (better) {
            winner = row;
            winner_size = alloc.size;
        }
    }

    if (winner) {
        const ArrayAccess &access = kernel.accesses[winner->accessSite];
        plan.scheduler = schedulerFor(winner->cls, access, dims, sys_,
                                      pt.pageSize());
        plan.schedulerReason =
            std::string(toString(winner->cls.type)) + " access of largest "
            "structure (" + std::to_string(winner_size) + " B)";
        // CRB: bypass home-side insertion only for ITL kernels.
        plan.policy = winner->cls.type == LocalityType::IntraThread
                          ? L2InsertPolicy::ROnce
                          : L2InsertPolicy::RTwice;
    } else {
        plan.scheduler = std::make_shared<KernelWideScheduler>();
        plan.schedulerReason = "no classified accesses";
        plan.policy = L2InsertPolicy::RTwice;
    }

    if (forcedPolicy_)
        plan.policy = *forcedPolicy_;

    LADM_SCOPED_TIMER("runtime.place_args");
    // Pass 2: place every structure knowing the scheduler that will run,
    // so no-stride NL structures land page-exactly with their owners.
    const std::vector<NodeId> tb_node = plan.scheduler->nodeMap(dims, sys_);
    for (int arg = 0; arg < kernel.numArgs; ++arg) {
        const Allocation &alloc = reg.byPc(arg_pcs[arg]);
        const LocalityRow *row = table_.summaryRowFor(kernel.name, arg);
        if (!row) {
            // The kernel never dereferences this argument; nothing to do.
            plan.notes.push_back(alloc.name + ": untouched");
            continue;
        }
        const ArrayAccess &access = kernel.accesses[row->accessSite];
        std::string note = laspPlaceArg(pt, sys_, alloc, row->cls, access,
                                        dims, tb_node);
        plan.notes.push_back(alloc.name + " [" + toString(row->cls.type) +
                             "]: " + note);
    }
    return plan;
}

} // namespace ladm
