/**
 * @file
 * Reactive page migration: the classic CPU-NUMA mechanism the paper's
 * Section II-A argues against for GPUs ("reactive work re-distribution
 * is intractable, and the cost of page migration in bandwidth-limited
 * GPU workloads is high"). Implemented so the proactive-vs-reactive
 * comparison can be made quantitatively.
 *
 * Heuristic: per page, track the current remote-requester streak; when
 * one remote node accumulates `threshold` consecutive remote fetches,
 * the page migrates there. The triggering access pays the migration
 * latency, and the page-sized copy occupies the fabric.
 */

#ifndef LADM_MEM_MIGRATION_HH
#define LADM_MEM_MIGRATION_HH

#include <unordered_map>

#include "common/types.hh"
#include "interconnect/network.hh"
#include "mem/address.hh"
#include "mem/page_table.hh"

namespace ladm
{

class MigrationEngine
{
  public:
    /**
     * @param threshold consecutive remote fetches from one node that
     *                  trigger a migration
     * @param latency   stall charged to the triggering access
     * @param page_size migrated unit
     */
    MigrationEngine(uint32_t threshold, Cycles latency, Bytes page_size)
        : threshold_(threshold), latency_(latency), pageSize_(page_size)
    {
    }

    /**
     * Observe a requester-side fetch of @p addr by @p requester whose
     * home is @p home. May rewrite the page table and occupy @p net with
     * the page copy.
     *
     * @return extra delay the triggering access must absorb (0 if no
     *         migration fired).
     */
    Cycles
    onFetch(PageTable &pt, Network &net, Cycles now, Addr addr,
            NodeId requester, NodeId home)
    {
        if (requester == home)
            return 0;
        const uint64_t page = pageOf(addr, pageSize_);
        Streak &s = streaks_[page];
        if (s.node == requester) {
            ++s.count;
        } else {
            s.node = requester;
            s.count = 1;
        }
        if (s.count < threshold_)
            return 0;

        // Migrate: remap the page and ship its contents.
        pt.place(page * pageSize_, pageSize_, requester);
        net.routeDelay(now, home, requester, pageSize_);
        streaks_.erase(page);
        ++migrations_;
        return latency_;
    }

    uint64_t migrations() const { return migrations_; }
    void reset()
    {
        streaks_.clear();
        migrations_ = 0;
    }

    /** Checkpoint streak tracking (snapshot/component_state.cc). */
    template <class Ar> void io(Ar &ar);

  private:
    struct Streak
    {
        NodeId node = kInvalidNode;
        uint32_t count = 0;
    };

    uint32_t threshold_;
    Cycles latency_;
    Bytes pageSize_;
    std::unordered_map<uint64_t, Streak> streaks_;
    uint64_t migrations_ = 0;
};

} // namespace ladm

#endif // LADM_MEM_MIGRATION_HH
