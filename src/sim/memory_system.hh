/**
 * @file
 * MemorySystem: the full NUMA memory path of the simulated machine.
 *
 * Request flow (dynamic shared L2 with remote caching, after Milic [51]):
 *
 *   SM --L1--> chiplet crossbar --> local L2 partition
 *        hit: done
 *        miss: translate (UVM first-touch may fault) -> home node
 *              home == local:  local HBM
 *              home != local:  request over fabric -> home L2
 *                              (insertion policy: RTWICE caches it,
 *                               RONCE bypasses) -> home HBM on miss
 *                              -> data response back over fabric
 *
 * Timing is computed forward through bandwidth servers at issue; the
 * caller (the execution engine) is handed the completion cycle. All the
 * traffic accounting for Figs. 10/11 lives here.
 */

#ifndef LADM_SIM_MEMORY_SYSTEM_HH
#define LADM_SIM_MEMORY_SYSTEM_HH

#include <array>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "cache/insertion_policy.hh"
#include "cache/traffic_class.hh"
#include "common/bandwidth_server.hh"
#include "common/types.hh"
#include "config/system_config.hh"
#include "interconnect/network.hh"
#include "mem/dram.hh"
#include "mem/host_memory.hh"
#include "mem/migration.hh"
#include "mem/page_table.hh"
#include "mem/uvm.hh"
#include "sim/mshr_table.hh"
#include "sim/trace_source.hh"

namespace ladm
{

namespace obs
{
class LatencyAttribution;
class LocalityHeatmap;
} // namespace obs

class MemorySystem
{
  public:
    explicit MemorySystem(const SystemConfig &cfg);

    /**
     * Issue one warp step's sector accesses [@p first, @p last) from SM
     * @p sm, all at cycle @p now, in order, each running every pipeline
     * stage inline. The L2-set and TLB prefetch hints go out only for
     * the first sector of each line.
     * @return the step's completion cycle: the latest of its accesses'
     *         (@p now for an empty step).
     */
    Cycles accessStep(Cycles now, SmId sm, const MemAccess *first,
                      const MemAccess *last);

    /** A one-sector step: the completion cycle of one access. */
    Cycles
    access(Cycles now, SmId sm, Addr addr, bool write)
    {
        const MemAccess one{addr, write};
        return accessStep(now, sm, &one, &one + 1);
    }

    /**
     * One sector access in flight through the pipeline stages (see
     * memory_system.cc). access() keeps it on the stack; a shard lane
     * parks it in a ShardOp at a split point and executeShardOps()
     * resumes it there.
     */
    struct Access
    {
        Cycles now = 0; ///< issue cycle: every resource is booked at it
        Addr addr = 0;  ///< sector base (line base for a writeback)
        NodeId node = 0; ///< requester
        NodeId home = kInvalidNode;
        bool write = false;
        bool mapped = false; ///< page was mapped before this access
        Cycles delay = 0;    ///< latency accrued so far
        /** Latency-attribution parts (written always, read by obs). */
        Cycles xbar = 0, fault = 0, net = 0, dram = 0;
    };

    // --- sharded (conservative-PDES) access path ---------------------------
    //
    // The sharded kernel engine partitions warps by NUMA node; each
    // shard thread calls shardAccess() for its own nodes only. It runs
    // the same stages as access() and stops at the first one that would
    // touch another node's state (the page table on a first touch, a
    // remote home's fabric legs and L2/DRAM, a remote-homed writeback).
    // That stage is deferred as a ShardOp and executeShardOps() runs it
    // -- with the same stage functions -- inside the engine's serial
    // barrier section, in an order independent of the shard count.

    enum class ShardOpKind : uint8_t
    {
        RemoteFetch,  ///< requester-L2 miss homed on another node
        Untranslated, ///< unmapped page: defer from translation onward
        Writeback,    ///< fire-and-forget dirty eviction to a remote home
    };

    /** One deferred cross-node operation. */
    struct ShardOp
    {
        Access acc;       ///< the access, frozen at its split point
        uint64_t seq = 0; ///< issue order within the lane
        ShardOpKind kind = ShardOpKind::RemoteFetch;
        Bytes bytes = 0; ///< writeback payload
        Cycles done = 0; ///< completion cycle; executeShardOps() fills
    };

    /** Sentinel "no deferred op" value in ShardAccess::op. */
    static constexpr uint32_t kShardNoOp = 0xFFFFFFFFu;

    /** shardAccess() result: either a completion cycle or an op index. */
    struct ShardAccess
    {
        Cycles done = 0;
        uint32_t op = kShardNoOp;
        bool deferred() const { return op != kShardNoOp; }
    };

    /**
     * Per-node access lane: this window's deferred-op outbox plus an
     * in-window merge map (same-sector accesses within one window join
     * the op already in flight, MSHR style). Owned by the engine, one
     * per node; only that node's shard thread may touch it between
     * barriers.
     */
    struct ShardLane
    {
        uint64_t seq = 0;
        std::vector<ShardOp> ops;
        std::unordered_map<Addr, uint32_t> inflight;
        /** Line of the lane's last access (prefetch hints only). */
        uint64_t lastLine = ~uint64_t{0};

        void
        clearWindow()
        {
            ops.clear();
            inflight.clear();
        }
    };

    /**
     * The node-exclusive stages of access(), callable concurrently from
     * shard threads as long as each node's lane has exactly one caller
     * and no serial-phase code runs simultaneously. Returns the
     * completion cycle, or the index of the deferred op it waits on.
     */
    ShardAccess shardAccess(ShardLane &lane, Cycles now, SmId sm,
                            Addr addr, bool write);

    /**
     * Serial barrier phase: sort this window's deferred ops from every
     * lane into canonical (time, requester node, issue seq) order and
     * execute them, filling each op's completion cycle. The canonical
     * order makes the result independent of how nodes were grouped into
     * shards.
     */
    void executeShardOps(std::vector<ShardOp *> &ops);

    /**
     * True when the sharded path models this configuration exactly:
     * fault injection, page migration, host-memory oversubscription and
     * the latency/heatmap observers all take locks-free shortcuts the
     * serial path must handle instead.
     */
    bool
    shardCompatible() const
    {
        return !chipletFaults_ && !cfg_.pageMigration && !host_ &&
               !obsLat_ && !obsHeat_;
    }

    /**
     * Name of the first feature blocking the sharded path, or nullptr
     * when shardCompatible(). Drives the engine's structured fallback
     * diagnostic so a silently-serial run is explainable.
     */
    const char *
    shardIncompatibleReason() const
    {
        if (chipletFaults_)
            return "fault injection (faultSpec)";
        if (cfg_.pageMigration)
            return "reactive page migration (pageMigration)";
        if (host_)
            return "host-memory oversubscription (hbmCapacityPerNode)";
        if (obsLat_)
            return "latency attribution observer (--obs-attribution)";
        if (obsHeat_)
            return "locality heatmap observer (--obs-heatmap)";
        return nullptr;
    }

    /** Set the L2 insertion policy for the next kernel (CRB decision). */
    void setInsertPolicy(L2InsertPolicy p) { policy_ = p; }
    L2InsertPolicy insertPolicy() const { return policy_; }

    /**
     * Kernel-boundary software coherence: invalidate every L1 and L2 and
     * drop outstanding-miss tracking (the inter-kernel locality loss the
     * paper attributes to [51]'s scheme).
     */
    void flushCaches();

    /**
     * Invariant check at a drain point (end of kernel, end of run): no
     * outstanding miss (MSHR entry) on any node may complete after
     * @p now. A violation means an entry leaked past the cycle every
     * warp supposedly retired at -- the engine handed out a completion
     * time nobody waited for.
     * @throws InvariantViolation listing the first leaked sectors.
     */
    void checkDrained(Cycles now) const;

    /**
     * Test hook: plant an in-flight miss (sector @p addr on @p node
     * completing at @p readyAt) so tests can prove checkDrained() catches
     * a leak. Never called by the simulator itself.
     */
    void debugInjectPending(NodeId node, Addr addr, Cycles readyAt);

    /** The page table placement policies write into. */
    PageTable &pageTable() { return pageTable_; }
    const PageTable &pageTable() const { return pageTable_; }

    // --- statistics ---------------------------------------------------------
    /** Requester-side L2 misses served by local HBM. */
    uint64_t
    fetchLocal() const
    {
        return sumCtr(&NodeCounters::fetchLocal);
    }
    /** Requester-side L2 misses that crossed a chiplet boundary. */
    uint64_t
    fetchRemote() const
    {
        return sumCtr(&NodeCounters::fetchRemote);
    }
    /** Per-node variants: misses issued by node @p n's SMs. */
    uint64_t fetchLocal(NodeId n) const { return ctr_[n].fetchLocal; }
    uint64_t fetchRemote(NodeId n) const { return ctr_[n].fetchRemote; }
    /** Fraction [0,1] of fetches that left the node (Fig. 10 metric). */
    double offChipFraction() const;

    /**
     * Publish the whole memory path into the hierarchical registry:
     * per-node groups ("node3.l2", "node3.mem", "node3.l1", "node3.xbar"),
     * machine-wide aggregates ("mem.*", "uvm.*", traffic classes), the
     * interconnect ("net.*"), and derived formulas (off-chip fraction,
     * hit rates, link utilization when @p now is provided). Pull-based:
     * registration has no effect on simulation speed.
     */
    void registerStats(telemetry::StatRegistry &reg,
                       std::function<Cycles()> now = {});

    /**
     * Arm the observability hooks (obs::Observer's pillars). Either may
     * be null; with both null every hook on the access path reduces to
     * one untaken inline branch (the TraceEmitter discipline).
     */
    void
    attachObserver(obs::LatencyAttribution *lat, obs::LocalityHeatmap *heat)
    {
        obsLat_ = lat;
        obsHeat_ = heat;
    }

    uint64_t l2Accesses() const;
    uint64_t l2Hits() const;
    uint64_t l2SectorMisses() const;
    uint64_t l1Hits() const { return sumCtr(&NodeCounters::l1Hits); }
    uint64_t l1Accesses() const
    {
        return sumCtr(&NodeCounters::l1Accesses);
    }
    uint64_t uvmFaults() const { return uvm_.faults(); }
    uint64_t mshrMerges() const
    {
        return sumCtr(&NodeCounters::mshrMerges);
    }
    Cycles delayXbar() const { return sumCtr(&NodeCounters::delayXbar); }
    Cycles delayNet() const { return sumCtr(&NodeCounters::delayNet); }
    Cycles delayDram() const { return sumCtr(&NodeCounters::delayDram); }
    uint64_t writebackSectors() const
    {
        return sumCtr(&NodeCounters::writebackSectors);
    }

    /** Per-traffic-class L2 accesses / hits (Fig. 11). */
    uint64_t classAccesses(TrafficClass c) const
    {
        uint64_t v = 0;
        for (const NodeCounters &n : ctr_)
            v += n.clsAcc[static_cast<int>(c)];
        return v;
    }
    uint64_t classHits(TrafficClass c) const
    {
        uint64_t v = 0;
        for (const NodeCounters &n : ctr_)
            v += n.clsHit[static_cast<int>(c)];
        return v;
    }

    const Network &network() const { return net_; }
    /** Record the fabric's link-transfer spans into @p tr (null = off). */
    void attachTracer(telemetry::TraceEmitter *tr) { net_.attachTracer(tr); }
    const SectoredCache &l2(NodeId n) const { return l2_[n]; }
    /** Aggregate DRAM accesses / busy cycles over a node's channels. */
    uint64_t dramAccesses(NodeId n) const;
    Cycles dramBusyCycles(NodeId n) const;
    uint64_t pageMigrations() const { return migration_.migrations(); }
    uint64_t hostDemandFaults() const
    {
        return host_ ? host_->demandFaults() : 0;
    }
    uint64_t hostPrefetches() const
    {
        return host_ ? host_->prefetches() : 0;
    }
    uint64_t hostEvictions() const
    {
        return host_ ? host_->evictions() : 0;
    }

    // --- fault injection ----------------------------------------------------
    /** Pages rescued off failed chiplets (faultDegradation on). */
    uint64_t rehomedPages() const
    {
        return sumCtr(&NodeCounters::rehomedPages);
    }
    /** Accesses that crawled to a failed home (faultDegradation off). */
    uint64_t failedNodeAccesses() const
    {
        return sumCtr(&NodeCounters::failedNodeAccesses);
    }

    /**
     * Reset all statistics and the outstanding-miss (MSHR) tracking --
     * a completion time from a previous measurement window must not
     * satisfy merges in the next one. Cache *contents* survive.
     */
    void resetStats();

    /**
     * Checkpoint the whole memory path -- page table, UVM, caches, DRAM
     * channels, crossbars, fabric, MSHR tables, per-node counters
     * (snapshot/component_state.cc). Must be called at an engine safe
     * point (no access in flight).
     */
    template <class Ar> void io(Ar &ar);

  private:
    /**
     * Per-requesting-node statistics. Splitting the aggregates by node
     * (indexed by the requester, summed by the getters) keeps the
     * sharded engine's parallel phases free of shared counter writes;
     * the cache-line alignment stops shards from false-sharing
     * neighbours. Serial results are bit-identical: integer sums are
     * order-independent.
     */
    struct alignas(64) NodeCounters
    {
        uint64_t fetchLocal = 0;
        uint64_t fetchRemote = 0;
        Cycles delayXbar = 0;
        Cycles delayNet = 0;
        Cycles delayDram = 0;
        uint64_t l1Hits = 0;
        uint64_t l1Accesses = 0;
        uint64_t mshrMerges = 0;
        uint64_t writebackSectors = 0;
        uint64_t rehomedPages = 0;
        uint64_t failedNodeAccesses = 0;
        std::array<uint64_t, kNumTrafficClasses> clsAcc{};
        std::array<uint64_t, kNumTrafficClasses> clsHit{};

        template <class Ar> void io(Ar &ar);
    };

    template <typename T>
    T
    sumCtr(T NodeCounters::*member) const
    {
        T v = 0;
        for (const NodeCounters &n : ctr_)
            v += n.*member;
        return v;
    }

    // Pipeline stages (memory_system.cc). The serial path runs them all
    // inline; a shard lane passes itself as @p lane to the one stage
    // that may defer from the parallel phase (requesterL2's writeback).
    // Forced inline: split into functions, they must still compile to
    // one straight-line access path in each caller.
    [[gnu::always_inline]] inline bool frontEnd(Access &a, SmId sm,
                                                bool new_line,
                                                MshrTable::Ref &mshr,
                                                Cycles &done);
    [[gnu::always_inline]] inline Cycles tail(Access &a,
                                              MshrTable::Ref mshr);
    [[gnu::always_inline]] inline void translate(Access &a);
    [[gnu::always_inline]] inline bool requesterL2(Access &a,
                                                   ShardLane *lane);
    [[gnu::always_inline]] inline bool issueFetch(Access &a);
    [[gnu::always_inline]] inline void remoteLeg(Access &a);
    [[gnu::always_inline]] inline Cycles finish(Access &a,
                                                MshrTable::Ref mshr);

    /** Early-out inline: the overwhelmingly common clean case is free. */
    void
    evict(Cycles now, NodeId node, const EvictInfo &ev, ShardLane *lane)
    {
        if (!ev.evicted || ev.dirtyMask == 0)
            return;
        evictDirty(now, node, ev, lane);
    }
    void evictDirty(Cycles now, NodeId node, const EvictInfo &ev,
                    ShardLane *lane);
    /** Fire-and-forget: the writeback books bandwidth, nobody waits. */
    void writeback(Cycles now, NodeId node, NodeId home, Addr line,
                   Bytes bytes);
    /** Park @p a in @p lane as a @p kind op the access now waits on. */
    static ShardAccess defer(ShardLane &lane, const Access &a,
                             ShardOpKind kind);

    void
    countClass(NodeId origin, NodeId home, NodeId here, bool hit)
    {
        const int c = static_cast<int>(classifyTraffic(origin, home, here));
        ++ctr_[origin].clsAcc[c];
        if (hit)
            ++ctr_[origin].clsHit[c];
    }

    /**
     * Cold helper: decompose a completed access for attribution. @p l2s
     * is the number of L2s it passed, @p wait its MSHR wait.
     */
    void obsRecord(const Access &a, int l2s, Cycles wait, Cycles total);

    const SystemConfig cfg_;
    PageTable pageTable_;
    Uvm uvm_;

    /**
     * Channel-interleave at line granularity with a spreading hash. The
     * channel count is hoisted to a member and, when a power of two (the
     * default), the modulo reduces to a mask -- identical arithmetic.
     */
    Dram &
    dramFor(NodeId node, Addr addr)
    {
        const uint64_t line = addr / kLineSize;
        const uint64_t h = line ^ (line >> 7);
        const size_t chan = static_cast<size_t>(
            dramChanMask_ ? (h & dramChanMask_)
                          : (h % static_cast<uint64_t>(dramChannels_)));
        return dram_[static_cast<size_t>(node) * dramChannels_ + chan];
    }

    std::vector<SectoredCache> l1_;     // per SM
    std::vector<SectoredCache> l2_;     // per node
    std::vector<Dram> dram_;            // per node x channel
    std::vector<BandwidthServer> xbar_; // per node SM<->L2 crossbar
    MigrationEngine migration_;
    std::unique_ptr<HostMemory> host_; // oversubscription model (opt.)
    Network net_;
    L2InsertPolicy policy_ = L2InsertPolicy::RTwice;
    /** Fast-path gate: faultSpec has chiplet failures to police. */
    bool chipletFaults_ = false;

    /** Outstanding-miss table per node: sector -> data-ready cycle. */
    std::vector<MshrTable> pending_;
    /** nodeOfSm() hoisted into a table, built once per topology. */
    std::vector<NodeId> smNode_;
    /** max(1, cfg.dramChannelsPerChiplet), hoisted for dramFor(). */
    int dramChannels_ = 1;
    /** dramChannels_ - 1 when it is a power of two, else 0 (slow path). */
    uint64_t dramChanMask_ = 0;

    /** Control-message size for remote read requests / write acks. */
    static constexpr Bytes kCtrlBytes = 8;

    /** Per-requesting-node counters; getters sum across nodes. */
    std::vector<NodeCounters> ctr_;

    /** Observability pillars, armed by attachObserver (null = off). */
    obs::LatencyAttribution *obsLat_ = nullptr;
    obs::LocalityHeatmap *obsHeat_ = nullptr;
};

} // namespace ladm

#endif // LADM_SIM_MEMORY_SYSTEM_HH
