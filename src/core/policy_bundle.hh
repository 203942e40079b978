/**
 * @file
 * PolicyBundle: one complete NUMA management technique -- a data
 * placement policy, a threadblock scheduling policy, and an L2 insertion
 * policy -- applied together at kernel-launch time. One bundle exists per
 * technique the paper evaluates (Table I and Figs. 4/9/10).
 */

#ifndef LADM_CORE_POLICY_BUNDLE_HH
#define LADM_CORE_POLICY_BUNDLE_HH

#include <memory>
#include <string>
#include <vector>

#include "config/system_config.hh"
#include "kernel/kernel_desc.hh"
#include "mem/page_table.hh"
#include "runtime/ladm_runtime.hh"
#include "runtime/malloc_registry.hh"

namespace ladm
{

/** The evaluated techniques. */
enum class Policy
{
    BaselineRr,  ///< round-robin pages + round-robin TBs [79]
    BatchFt,     ///< static TB batches + first-touch pages (MCM-GPU [5])
    KernelWide,  ///< kernel-wide grid & data chunks (NUMA-aware GPUs [51])
    Coda,        ///< alignment-aware batches + interleaved pages [36],
                 ///< hierarchical-aware variant (H-CODA)
    CodaSubPage, ///< CODA with its proposed sub-page interleaving
                 ///< hardware (fine-grained address mapping)
    LaspRtwice,  ///< LASP placement/scheduling, RTWICE caching
    LaspRonce,   ///< LASP placement/scheduling, RONCE caching
    Ladm,        ///< full system: LASP + CRB (the paper's LADM)
};

const char *toString(Policy p);

class PolicyBundle
{
  public:
    virtual ~PolicyBundle() = default;

    virtual std::string name() const = 0;

    /**
     * Place every allocation and build the TB scheduler + cache policy
     * for one kernel launch.
     */
    virtual LaunchPlan prepare(const KernelDesc &kernel,
                               const LaunchDims &dims,
                               const std::vector<uint64_t> &arg_pcs,
                               const MallocRegistry &reg, PageTable &pt,
                               const SystemConfig &sys) = 0;

    /**
     * True when prepare() runs the LADM runtime: its plan is a LASP/CRB
     * decision, traced as a launch:<kernel> instant.
     */
    virtual bool runsLadm() const { return false; }
};

std::unique_ptr<PolicyBundle> makeBundle(Policy p);

} // namespace ladm

#endif // LADM_CORE_POLICY_BUNDLE_HH
