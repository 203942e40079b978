/**
 * @file
 * Unified Virtual Memory first-touch model.
 *
 * Under Batch+FT [5], pages are not placed at allocation time; the first
 * access from any node page-faults the page in from system memory and homes
 * it at the faulting node, stalling the requesting SM for tens of
 * microseconds. The paper's "Batch+FT-optimal" configuration assumes this
 * fault costs zero cycles; both variants are supported via faultCycles.
 *
 * Besides the touching-node policy, the driver-style round-robin page
 * interleave (the classic CPU-NUMA alternative, and what CODA-like
 * baselines assume for unannotated data) is supported: faulted pages
 * then home at page-number mod node-count, which can be *remote* to the
 * toucher.
 */

#ifndef LADM_MEM_UVM_HH
#define LADM_MEM_UVM_HH

#include "common/types.hh"
#include "mem/page_table.hh"

namespace ladm
{

class Uvm
{
  public:
    /**
     * @param fault_cycles     SM-visible stall per page fault
     *                         (0 = optimal)
     * @param interleave_nodes > 1 homes faulted pages round-robin over
     *                         this many nodes instead of at the toucher
     */
    explicit Uvm(Cycles fault_cycles, int interleave_nodes = 1)
        : faultCycles_(fault_cycles), interleaveNodes_(interleave_nodes)
    {
    }

    /**
     * Resolve the home node of @p addr, faulting the page in if it is
     * unmapped (to @p toucher_node, or round-robin under interleave).
     * The resolved home can therefore be remote to the toucher; callers
     * must not assume first touch lands locally.
     *
     * @param[out] stall extra cycles the requester must absorb (0 on a
     *                   regular translation, faultCycles on first touch)
     * @return the page's home node after resolution
     */
    NodeId
    touch(PageTable &pt, Addr addr, NodeId toucher_node, Cycles &stall)
    {
        NodeId home = pt.lookup(addr);
        if (home != kInvalidNode) {
            stall = 0;
            return home;
        }
        NodeId target = toucher_node;
        if (interleaveNodes_ > 1) {
            target = static_cast<NodeId>(
                (addr / pt.pageSize()) %
                static_cast<uint64_t>(interleaveNodes_));
        }
        pt.place(addr, 1, target);
        ++faults_;
        stall = faultCycles_;
        return target;
    }

    uint64_t faults() const { return faults_; }
    void reset() { faults_ = 0; }

    /** Checkpoint the fault counter (snapshot/component_state.cc). */
    template <class Ar> void io(Ar &ar);

  private:
    Cycles faultCycles_;
    int interleaveNodes_;
    uint64_t faults_ = 0;
};

} // namespace ladm

#endif // LADM_MEM_UVM_HH
