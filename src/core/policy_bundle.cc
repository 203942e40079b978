#include "core/policy_bundle.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "kernel/datablock.hh"
#include "mem/placement.hh"
#include "sched/baseline_rr.hh"
#include "sched/batched_rr.hh"
#include "sched/kernel_wide.hh"

namespace ladm
{

const char *
toString(Policy p)
{
    switch (p) {
      case Policy::BaselineRr: return "baseline-rr";
      case Policy::BatchFt: return "batch+ft";
      case Policy::KernelWide: return "kernel-wide";
      case Policy::Coda: return "h-coda";
      case Policy::CodaSubPage: return "coda-subpage";
      case Policy::LaspRtwice: return "lasp+rtwice";
      case Policy::LaspRonce: return "lasp+ronce";
      case Policy::Ladm: return "ladm";
    }
    return "?";
}

namespace
{

/** Round-robin pages, round-robin TBs [79]. */
class BaselineRrBundle : public PolicyBundle
{
  public:
    std::string name() const override { return "baseline-rr"; }

    LaunchPlan
    prepare(const KernelDesc &kernel, const LaunchDims &dims,
            const std::vector<uint64_t> &arg_pcs,
            const MallocRegistry &reg, PageTable &pt,
            const SystemConfig &sys) override
    {
        LaunchPlan plan;
        for (const uint64_t pc : arg_pcs) {
            const Allocation &a = reg.byPc(pc);
            placeInterleaved(pt, a.base, a.size,
                             allNodes(sys.numNodes()), pt.pageSize());
            plan.notes.push_back(a.name + ": page RR");
        }
        plan.scheduler = std::make_shared<BaselineRrScheduler>();
        plan.schedulerReason = "fixed policy";
        return plan;
    }
};

/** Static TB batches + first-touch paging (Batch+FT, MCM-GPU [5]). */
class BatchFtBundle : public PolicyBundle
{
  public:
    std::string name() const override { return "batch+ft"; }

    LaunchPlan
    prepare(const KernelDesc &kernel, const LaunchDims &dims,
            const std::vector<uint64_t> &arg_pcs,
            const MallocRegistry &reg, PageTable &pt,
            const SystemConfig &sys) override
    {
        // No proactive placement: UVM first-touch homes each page at the
        // node that faults it in.
        LaunchPlan plan;
        plan.notes.emplace_back("all structures: first-touch");
        plan.scheduler =
            std::make_shared<BatchedRrScheduler>(kBatch, "batch-ft");
        plan.schedulerReason = "static batch of 8";
        return plan;
    }

  private:
    static constexpr int64_t kBatch = 8;
};

/** Kernel-wide grid and data partitioning [51]. */
class KernelWideBundle : public PolicyBundle
{
  public:
    std::string name() const override { return "kernel-wide"; }

    LaunchPlan
    prepare(const KernelDesc &kernel, const LaunchDims &dims,
            const std::vector<uint64_t> &arg_pcs,
            const MallocRegistry &reg, PageTable &pt,
            const SystemConfig &sys) override
    {
        LaunchPlan plan;
        for (const uint64_t pc : arg_pcs) {
            const Allocation &a = reg.byPc(pc);
            placeContiguousChunks(pt, a.base, a.size,
                                  allNodes(sys.numNodes()), 0);
            plan.notes.push_back(a.name + ": contiguous chunks");
        }
        plan.scheduler = std::make_shared<KernelWideScheduler>();
        plan.schedulerReason = "fixed policy";
        return plan;
    }
};

/**
 * H-CODA [36]: index analysis computes the width of data one TB touches;
 * TB batches are sized so each batch consumes whole pages, and every
 * structure is round-robin interleaved at the matching granule. No
 * stride, sharing, or input-size awareness.
 */
class CodaBundle : public PolicyBundle
{
  public:
    /**
     * @param sub_page model CODA's proposed sub-page interleaving
     *                 hardware: structures are interleaved at the exact
     *                 batch-coverage granule with no page rounding.
     */
    explicit CodaBundle(bool sub_page = false) : subPage_(sub_page) {}

    std::string
    name() const override
    {
        return subPage_ ? "coda-subpage" : "h-coda";
    }

    LaunchPlan
    prepare(const KernelDesc &kernel, const LaunchDims &dims,
            const std::vector<uint64_t> &arg_pcs,
            const MallocRegistry &reg, PageTable &pt,
            const SystemConfig &sys) override
    {
        LaunchPlan plan;
        const Bytes page = pt.pageSize();

        // Representative datablock width per argument (first access).
        std::vector<Bytes> width(arg_pcs.size(), 0);
        Bytes ref_width = 0;
        Bytes ref_size = 0;
        for (const auto &acc : kernel.accesses) {
            if (acc.index.dependsOn(Var::DataDep))
                continue;
            const Bytes db = datablockSize(acc, dims);
            if (width[acc.arg] == 0)
                width[acc.arg] = db;
            const Bytes sz = reg.byPc(arg_pcs[acc.arg]).size;
            if (sz > ref_size) {
                ref_size = sz;
                ref_width = db;
            }
        }
        if (ref_width == 0)
            ref_width = page;

        // Page-aligned batch: enough TBs that one batch fills a page (or
        // one TB if a single datablock already spans a page).
        const Bytes batch_bytes = std::max(ref_width, page);
        const int64_t batch = std::max<int64_t>(
            1, static_cast<int64_t>(batch_bytes / ref_width));

        for (size_t i = 0; i < arg_pcs.size(); ++i) {
            const Allocation &a = reg.byPc(arg_pcs[i]);
            const Bytes w = width[i] ? width[i] : page;
            if (subPage_) {
                // The hardware mapping interleaves at exactly one
                // batch's coverage of this structure.
                const Bytes granule =
                    std::max<Bytes>(static_cast<Bytes>(batch) * w,
                                    kSectorSize);
                placeInterleavedSubPage(pt, a.base, a.size,
                                        allNodes(sys.numNodes()),
                                        granule);
                plan.notes.push_back(a.name + ": sub-page RR granule " +
                                     std::to_string(granule));
                continue;
            }
            const Bytes granule = roundUp(
                std::max<Bytes>(static_cast<Bytes>(batch) * w, page),
                page);
            placeInterleaved(pt, a.base, a.size,
                             allNodes(sys.numNodes()), granule);
            plan.notes.push_back(a.name + ": RR granule " +
                                 std::to_string(granule));
        }
        plan.scheduler =
            std::make_shared<BatchedRrScheduler>(batch, "coda-aligned");
        plan.schedulerReason =
            "page-aligned batch of " + std::to_string(batch);
        return plan;
    }

  private:
    bool subPage_;
};

/** The full LADM system (and its RTWICE/RONCE-forced ablations). */
class LadmBundle : public PolicyBundle
{
  public:
    explicit LadmBundle(Policy mode) : mode_(mode) {}

    std::string name() const override { return toString(mode_); }

    LaunchPlan
    prepare(const KernelDesc &kernel, const LaunchDims &dims,
            const std::vector<uint64_t> &arg_pcs,
            const MallocRegistry &reg, PageTable &pt,
            const SystemConfig &sys) override
    {
        if (!runtime_) {
            runtime_ = std::make_unique<LadmRuntime>(sys);
            if (mode_ == Policy::LaspRtwice)
                runtime_->setForcedPolicy(L2InsertPolicy::RTwice);
            else if (mode_ == Policy::LaspRonce)
                runtime_->setForcedPolicy(L2InsertPolicy::ROnce);
        }
        if (std::find(compiled_.begin(), compiled_.end(), kernel.name) ==
            compiled_.end()) {
            runtime_->compile(kernel);
            compiled_.push_back(kernel.name);
        }
        return runtime_->prepareLaunch(kernel, dims, arg_pcs, reg, pt);
    }

    bool runsLadm() const override { return true; }

  private:
    Policy mode_;
    std::unique_ptr<LadmRuntime> runtime_;
    std::vector<std::string> compiled_;
};

} // namespace

std::unique_ptr<PolicyBundle>
makeBundle(Policy p)
{
    switch (p) {
      case Policy::BaselineRr:
        return std::make_unique<BaselineRrBundle>();
      case Policy::BatchFt:
        return std::make_unique<BatchFtBundle>();
      case Policy::KernelWide:
        return std::make_unique<KernelWideBundle>();
      case Policy::Coda:
        return std::make_unique<CodaBundle>();
      case Policy::CodaSubPage:
        return std::make_unique<CodaBundle>(/*sub_page=*/true);
      case Policy::LaspRtwice:
      case Policy::LaspRonce:
      case Policy::Ladm:
        return std::make_unique<LadmBundle>(p);
    }
    ladm_panic("unknown policy");
}

} // namespace ladm
