#include "sim/memory_system.hh"

#include <algorithm>
#include <cstdio>

#include "check/invariants.hh"
#include "common/bitutils.hh"
#include "common/logging.hh"
#include "mem/address.hh"
#include "obs/attribution.hh"
#include "obs/heatmap.hh"
#include "telemetry/stat_registry.hh"

namespace ladm
{

MemorySystem::MemorySystem(const SystemConfig &cfg)
    : cfg_(cfg), pageTable_(cfg.pageSize),
      uvm_(cfg.pageFaultCycles,
           cfg.uvmFirstTouchInterleave ? cfg.numNodes() : 1),
      migration_(cfg.migrationThreshold, cfg.migrationLatencyCycles,
                 cfg.pageSize),
      net_(cfg)
{
    cfg_.validate();
    chipletFaults_ = net_.faultPlan().anyChipletFaults();
    const int nodes = cfg_.numNodes();
    const int sms = cfg_.totalSms();
    const int channels = std::max(1, cfg_.dramChannelsPerChiplet);
    dramChannels_ = channels;
    if (isPowerOfTwo(static_cast<uint64_t>(channels)))
        dramChanMask_ = static_cast<uint64_t>(channels) - 1;

    ctr_.assign(nodes, NodeCounters{});

    l1_.reserve(sms);
    smNode_.resize(sms);
    for (int s = 0; s < sms; ++s) {
        l1_.emplace_back(cfg_.l1SizePerSm, cfg_.l1Assoc,
                         "l1.sm" + std::to_string(s));
        smNode_[s] = cfg_.nodeOfSm(s);
    }

    l2_.reserve(nodes);
    dram_.reserve(static_cast<size_t>(nodes) * channels);
    xbar_.reserve(nodes);
    pending_.resize(nodes);
    const double chan_bpc =
        cfg_.bytesPerCycle(cfg_.memBwPerChipletGBs) / channels;
    const double xbar_bpc = cfg_.bytesPerCycle(cfg_.intraChipletXbarGBs);
    for (int n = 0; n < nodes; ++n) {
        l2_.emplace_back(cfg_.l2SizePerChiplet, cfg_.l2Assoc,
                         "l2.node" + std::to_string(n));
        for (int c = 0; c < channels; ++c)
            dram_.emplace_back(chan_bpc, cfg_.dramLatencyCycles);
        xbar_.emplace_back(xbar_bpc, Cycles{0});
    }
    if (cfg_.hbmCapacityPerNode > 0) {
        host_ = std::make_unique<HostMemory>(
            nodes, cfg_.hbmCapacityPerNode,
            cfg_.bytesPerCycle(cfg_.hostLinkGBs), cfg_.hostFaultCycles,
            cfg_.pageSize);
    }
}

uint64_t
MemorySystem::dramAccesses(NodeId n) const
{
    uint64_t v = 0;
    for (int c = 0; c < dramChannels_; ++c)
        v += dram_[static_cast<size_t>(n) * dramChannels_ + c].accesses();
    return v;
}

Cycles
MemorySystem::dramBusyCycles(NodeId n) const
{
    Cycles v = 0;
    for (int c = 0; c < dramChannels_; ++c)
        v += dram_[static_cast<size_t>(n) * dramChannels_ + c]
                 .busyCycles();
    return v;
}

// --- the access pipeline ---------------------------------------------------
//
// One sector access runs five stages, each written once:
//
//   1. frontEnd     L1, SM<->L2 crossbar, MSHR probe
//   2. translate    page home, UVM first-touch fault, failed chiplets
//   3. requesterL2  the requester's L2 partition (+ dirty victim)
//   4. issueFetch   local HBM -- or remoteLeg: fabric out, home L2,
//                   home HBM, fabric back
//   5. finish       record the miss in the MSHR table
//
// accessStep() runs them all inline for each sector of a warp step in
// turn; access() is its one-sector case. shardAccess() runs the
// node-exclusive ones in a shard thread and splits at exactly three
// points, each parked as a ShardOp that executeShardOps() finishes with
// the same stage functions in the serial barrier: an unmapped page defers
// tail() (stages 2-5; the fault mutates the machine-global page table),
// a remote home defers remoteLeg() + finish(), and a remote-homed dirty
// victim defers writeback(). A deferred op keeps its issue cycle, so
// the bandwidth servers see the same booking times the serial engine
// would have produced, modulo the simultaneity order documented in
// docs/performance.md.
//
// The issue time `now` is globally monotone (the engine processes warp
// events in time order), so every bandwidth resource along the path is
// booked at `now` and contributes a delay; see the ordering contract in
// common/bandwidth_server.hh. Booking downstream resources at their
// actual (future) arrival times instead would interleave non-monotone
// timestamps and manufacture phantom serialization.

Cycles
MemorySystem::accessStep(Cycles now, SmId sm, const MemAccess *first,
                         const MemAccess *last)
{
    const NodeId node = smNode_[sm];
    Cycles step_done = now;
    uint64_t prev_line = ~uint64_t{0};
    for (; first != last; ++first) {
        Access a{.now = now,
                 .addr = sectorBase(first->addr),
                 .node = node,
                 .write = first->write};
        const uint64_t line = a.addr / kLineSize;
        MshrTable::Ref mshr{};
        Cycles done = 0;
        if (!frontEnd(a, sm, line != prev_line, mshr, done))
            done = tail(a, mshr);
        prev_line = line;
        step_done = std::max(step_done, done);
    }
    return step_done;
}

/** Stages 2-5, inline: access() and a deferred Untranslated op. */
Cycles
MemorySystem::tail(Access &a, MshrTable::Ref mshr)
{
    translate(a);
    if (requesterL2(a, nullptr))
        return a.now + a.delay;
    if (!issueFetch(a))
        remoteLeg(a);
    return finish(a, mshr);
}

/**
 * Stage 1. True when the access completed here -- an L1 hit, or a merge
 * into a miss already in flight -- with its completion cycle in @p done.
 * Otherwise @p mshr locates the sector's MSHR line slot for finish().
 * @p new_line is false when the previous access touched the same line.
 */
bool
MemorySystem::frontEnd(Access &a, SmId sm, bool new_line,
                       MshrTable::Ref &mshr, Cycles &done)
{
    const NodeId node = a.node;

    // Start pulling the structures an L1 miss will probe -- the MSHR
    // slot, the L2 tag set, and the translation TLB entry -- while the
    // L1 lookup runs. All pure prefetch hints, no architectural effect.
    // All three are per line: a sector of the previous access's line
    // finds them pulled already.
    if (new_line) {
        pending_[node].prefetch(a.addr);
        l2_[node].prefetchSet(a.addr);
        pageTable_.prefetch(a.addr);
    }

    // L1: reads allocate; writes are write-through no-allocate with
    // write-invalidate (GPU L1s do not hold dirty global data, and a
    // matching sector must not serve stale data to later reads).
    NodeCounters &ctr = ctr_[node];
    if (!a.write) {
        ++ctr.l1Accesses;
        if (l1_[sm].access(a.addr, false, true) == AccessResult::Hit) {
            ++ctr.l1Hits;
            if (obsLat_)
                obsRecord(a, 0, 0, cfg_.l1LatencyCycles);
            done = a.now + cfg_.l1LatencyCycles;
            return true;
        }
    } else {
        l1_[sm].invalidateSector(a.addr);
    }

    // SM <-> L2 crossbar within the chiplet.
    a.xbar = xbar_[node].book(a.now, kSectorSize);
    ctr.delayXbar += a.xbar;
    a.delay = cfg_.l1LatencyCycles + a.xbar;

    // Outstanding-miss merge (MSHR): if this sector is already in flight
    // from this node, ride along. A stale (expired) entry is NOT erased
    // here: the insertAt() in finish() overwrites it in place, so the
    // probe chain is walked once per access, not three times. Nothing
    // between here and there may mutate this table.
    const MshrTable &pend = pending_[node];
    mshr = pend.locate(a.addr);
    if (mshr.found) {
        const Cycles ready = pend.readyAt(mshr);
        if (ready > a.now + a.delay) {
            ++ctr.mshrMerges;
            if (obsLat_)
                obsRecord(a, 0, ready - a.now - a.delay, ready - a.now);
            done = ready;
            return true;
        }
    }
    return false;
}

/** Stage 2: resolve the home node; a first touch faults the page in. */
void
MemorySystem::translate(Access &a)
{
    // Translate before the requester-side L2 decision: whether this L2
    // may hold the line depends on where the page *actually* homes, so
    // a first touch must resolve (and possibly fault) the home up
    // front. Deciding from the pre-fault lookup wrongly allocated
    // remote-homed first-touch lines in the requester's L2 even with
    // remote caching off. A hit on an unmapped page is impossible (a
    // line only enters the L2 through this miss path, which maps the
    // page), so the fault stall charged on the hit return is zero in
    // practice.
    const NodeId mapped_home = pageTable_.lookup(a.addr);
    a.mapped = mapped_home != kInvalidNode;
    a.home = a.mapped ? mapped_home
                      : uvm_.touch(pageTable_, a.addr, a.node, a.fault);

    // Failed chiplet (fault injection): its HBM stack is gone. With
    // graceful degradation the page is rescued to a healthy node on first
    // access -- one page transfer, then business as usual. Without it the
    // access crawls to the dead stack over the maintenance path at
    // kSeveredResidualFactor of DRAM speed, every time.
    if (chipletFaults_ && net_.faultPlan().nodeFailed(a.now, a.home)) {
        NodeCounters &ctr = ctr_[a.node];
        if (cfg_.faultDegradation) {
            const NodeId to =
                net_.faultPlan().fallbackNode(a.now, a.home, cfg_);
            // Rescue the WHOLE page: re-home it (which also drops its
            // translation-TLB entry) and invalidate every sector of it
            // still cached on the dead chiplet -- not just the sector
            // being touched. Leftover sibling sectors would otherwise
            // keep serving hits from a failed node's L2.
            pageTable_.place(a.addr, 1, to); // expands to the whole page
            const Addr page = roundDown(a.addr, cfg_.pageSize);
            l2_[a.home].invalidateRange(page, page + cfg_.pageSize);
            a.fault += net_.routeDelay(a.now, a.home, to, cfg_.pageSize);
            ++ctr.rehomedPages;
            a.home = to;
        } else {
            a.fault += cfg_.dramLatencyCycles *
                       static_cast<Cycles>(
                           1.0 / check::kSeveredResidualFactor);
            ++ctr.failedNodeAccesses;
        }
    }
    a.delay += a.fault;
}

/**
 * Stage 3: the requester-side L2. True on a hit. A dirty victim is
 * written back inline -- or, from a shard lane (@p lane set), deferred
 * into it when the victim homes on another node.
 */
bool
MemorySystem::requesterL2(Access &a, ShardLane *lane)
{
    // The dynamic shared L2 [51] caches whatever its own SMs touch;
    // without remote caching it only holds local-homed lines
    // (memory-side L2).
    const bool alloc = cfg_.remoteCachingL2 || a.home == a.node;
    EvictInfo ev;
    const bool hit =
        l2_[a.node].access(a.addr, a.write, alloc, &ev) == AccessResult::Hit;
    countClass(a.node, a.home, a.node, hit);
    a.delay += cfg_.l2LatencyCycles;
    if (hit) {
        if (obsLat_)
            obsRecord(a, 1, 0, a.delay);
        return true;
    }
    evict(a.now, a.node, ev, lane);
    return false;
}

/**
 * Stage 4, first half: count the fetch; a local-homed one reads the
 * node's HBM. False when the remote leg still has to run. Migration,
 * host residency and the heatmap are serial-only (shardCompatible()).
 */
bool
MemorySystem::issueFetch(Access &a)
{
    if (cfg_.pageMigration) {
        a.delay += migration_.onFetch(pageTable_, net_, a.now, a.addr,
                                      a.node, a.home);
    }
    if (host_) {
        // Oversubscription: the page must be device-resident at its
        // home. A page that was already mapped before this access was
        // placed proactively (LASP prefetch); an unmapped one is being
        // first-touched right now, i.e. a reactive demand fault.
        a.delay += host_->ensureResident(a.now, a.addr, a.home, a.mapped);
    }
    // Mirrors the fetchLocal/fetchRemote increments below one-for-one;
    // the heatmap conservation check depends on this adjacency.
    if (obsHeat_)
        obsHeat_->recordFetch(a.node, a.home, a.addr);
    if (a.home != a.node) {
        ++ctr_[a.node].fetchRemote;
        return false;
    }
    ++ctr_[a.node].fetchLocal;
    a.dram = dramFor(a.node, a.addr).book(a.now, kSectorSize);
    ctr_[a.node].delayDram += a.dram;
    a.delay += a.dram;
    return true;
}

/**
 * Stage 4, remote half: request out over the fabric, the home's L2
 * (insertion policy: RTWICE caches it, RONCE bypasses), the home's HBM
 * on a miss, and the response back. Read: small request out, sector
 * back. Write: sector out, ack back.
 */
void
MemorySystem::remoteLeg(Access &a)
{
    NodeCounters &ctr = ctr_[a.node];
    a.net = net_.routeDelay(a.now, a.node, a.home,
                            a.write ? kSectorSize : kCtrlBytes);
    EvictInfo ev;
    const bool hit =
        l2_[a.home].access(a.addr, a.write,
                           homeSideAllocates(policy_, true),
                           &ev) == AccessResult::Hit;
    countClass(a.node, a.home, a.home, hit);
    evict(a.now, a.home, ev, nullptr);
    a.delay += cfg_.l2LatencyCycles;
    if (!hit) {
        a.dram = dramFor(a.home, a.addr).book(a.now, kSectorSize);
        ctr.delayDram += a.dram;
        a.delay += a.dram;
    }
    a.net += net_.routeDelay(a.now, a.home, a.node,
                             a.write ? kCtrlBytes : kSectorSize);
    ctr.delayNet += a.net;
    a.delay += a.net;
}

/** Stage 5: the miss is in flight until its completion cycle. */
Cycles
MemorySystem::finish(Access &a, MshrTable::Ref mshr)
{
    if (obsLat_)
        obsRecord(a, a.home == a.node ? 1 : 2, 0, a.delay);
    const Cycles done = a.now + a.delay;
    pending_[a.node].insertAt(mshr, a.addr, done, a.now);
    return done;
}

void
MemorySystem::evictDirty(Cycles now, NodeId node, const EvictInfo &ev,
                         ShardLane *lane)
{
    const int dirty = __builtin_popcount(ev.dirtyMask);
    ctr_[node].writebackSectors += dirty;
    const Bytes bytes = static_cast<Bytes>(dirty) * kSectorSize;
    // A shard thread may not fill the shared translation TLB.
    NodeId home = lane ? pageTable_.lookupNoFill(ev.lineAddr)
                       : pageTable_.lookup(ev.lineAddr);
    if (home == kInvalidNode)
        home = node;
    if (lane && home != node) {
        lane->ops.push_back({.acc = {.now = now,
                                     .addr = ev.lineAddr,
                                     .node = node,
                                     .home = home,
                                     .write = true},
                             .seq = lane->seq++,
                             .kind = ShardOpKind::Writeback,
                             .bytes = bytes});
        return;
    }
    writeback(now, node, home, ev.lineAddr, bytes);
}

void
MemorySystem::writeback(Cycles now, NodeId node, NodeId home, Addr line,
                        Bytes bytes)
{
    if (home != node)
        net_.routeDelay(now, node, home, bytes);
    dramFor(home, line).book(now, bytes);
}

void
MemorySystem::obsRecord(const Access &a, int l2s, Cycles wait, Cycles total)
{
    using obs::LatComponent;
    obs::AccessSample s;
    s.node = a.node;
    // A remote fetch's fabric legs attribute to one component: ring when
    // requester and home share a GPU, inter-GPU link otherwise (a
    // cross-GPU route's ring segments ride along).
    LatComponent fabric = LatComponent::Ring;
    if (a.home != kInvalidNode) {
        s.trafficClass =
            static_cast<int>(classifyTraffic(a.node, a.home, a.node));
        if (cfg_.gpuOfNode(a.node) != cfg_.gpuOfNode(a.home))
            fabric = LatComponent::GpuLink;
    }
    auto comp = [&s](LatComponent c) -> Cycles & {
        return s.comp[static_cast<size_t>(c)];
    };
    comp(LatComponent::L1) = cfg_.l1LatencyCycles;
    comp(LatComponent::Xbar) = a.xbar;
    comp(LatComponent::MshrWait) = wait;
    comp(LatComponent::FaultStall) = a.fault;
    comp(LatComponent::L2) = cfg_.l2LatencyCycles * static_cast<Cycles>(l2s);
    comp(fabric) = a.net;
    comp(LatComponent::Dram) = a.dram;
    // Residual (migration, host-memory residency) keeps the decomposition
    // summing to the end-to-end latency exactly.
    const Cycles known = cfg_.l1LatencyCycles + a.xbar + wait + a.fault +
                         comp(LatComponent::L2) + a.net + a.dram;
    comp(LatComponent::Other) = total > known ? total - known : 0;
    comp(LatComponent::Total) = total;
    obsLat_->record(s);
}

void
MemorySystem::registerStats(telemetry::StatRegistry &reg,
                            std::function<Cycles()> now)
{
    // Every leaf but the fractions is a Counter over an integer reading.
    auto counter = [&reg](const std::string &path, auto read) {
        reg.gauge(path, [read] { return static_cast<double>(read()); },
                  StatKind::Counter);
    };
    const int sms_per_node = cfg_.smsPerChiplet;
    // L1s aggregated per node: per-SM leaves would be 6x totalSms()
    // gauges of noise for a stat nobody reads individually.
    auto l1_sum = [this, sms_per_node](NodeId n, auto stat) {
        uint64_t v = 0;
        for (int s = 0; s < sms_per_node; ++s)
            v += (l1_[n * sms_per_node + s].*stat)();
        return v;
    };

    for (NodeId n = 0; n < cfg_.numNodes(); ++n) {
        const std::string node = "node" + std::to_string(n);
        l2_[n].registerStats(reg, node + ".l2");
        counter(node + ".mem.fetch_local",
                [this, n] { return fetchLocal(n); });
        counter(node + ".mem.fetch_remote",
                [this, n] { return fetchRemote(n); });
        reg.formula(node + ".mem.remote_fraction", [this, n] {
            const uint64_t total = fetchLocal(n) + fetchRemote(n);
            return total ? static_cast<double>(fetchRemote(n)) / total
                         : 0.0;
        });
        counter(node + ".mem.dram_accesses",
                [this, n] { return dramAccesses(n); });
        counter(node + ".mem.dram_busy_cycles",
                [this, n] { return dramBusyCycles(n); });
        counter(node + ".xbar.bytes",
                [this, n] { return xbar_[n].totalBytes(); });
        counter(node + ".l1.accesses", [l1_sum, n] {
            return l1_sum(n, &SectoredCache::accesses);
        });
        counter(node + ".l1.hits",
                [l1_sum, n] { return l1_sum(n, &SectoredCache::hits); });
    }

    counter("mem.fetch_local", [this] { return fetchLocal(); });
    counter("mem.fetch_remote", [this] { return fetchRemote(); });
    reg.formula("mem.offchip_fraction",
                [this] { return offChipFraction(); });
    counter("mem.l1_accesses", [this] { return l1Accesses(); });
    counter("mem.l1_hits", [this] { return l1Hits(); });
    counter("mem.l2_accesses", [this] { return l2Accesses(); });
    counter("mem.l2_hits", [this] { return l2Hits(); });
    counter("mem.mshr_merges", [this] { return mshrMerges(); });
    counter("mem.writeback_sectors", [this] { return writebackSectors(); });
    counter("mem.delay_xbar", [this] { return delayXbar(); });
    counter("mem.delay_net", [this] { return delayNet(); });
    counter("mem.delay_dram", [this] { return delayDram(); });
    for (int i = 0; i < kNumTrafficClasses; ++i) {
        const auto c = static_cast<TrafficClass>(i);
        const std::string cls = std::string("mem.class.") + toString(c);
        counter(cls + ".accesses", [this, c] { return classAccesses(c); });
        counter(cls + ".hits", [this, c] { return classHits(c); });
    }
    if (chipletFaults_) {
        counter("mem.fault.rehomed_pages",
                [this] { return rehomedPages(); });
        counter("mem.fault.failed_node_accesses",
                [this] { return failedNodeAccesses(); });
    }
    counter("uvm.faults", [this] { return uvmFaults(); });
    counter("uvm.page_migrations", [this] { return pageMigrations(); });
    if (host_) {
        counter("host.demand_faults", [this] { return hostDemandFaults(); });
        counter("host.prefetches", [this] { return hostPrefetches(); });
        counter("host.evictions", [this] { return hostEvictions(); });
    }
    net_.registerStats(reg, std::move(now));
}

void
MemorySystem::checkDrained(Cycles now) const
{
    std::vector<Diagnostic> diags;
    constexpr size_t kMaxListed = 8;
    size_t leaked = 0;
    for (size_t n = 0; n < pending_.size(); ++n) {
        pending_[n].forEach([&](Addr addr, Cycles ready) {
            if (ready <= now)
                return;
            ++leaked;
            if (diags.size() < kMaxListed) {
                char hex[24];
                std::snprintf(hex, sizeof(hex), "sector 0x%llx",
                              static_cast<unsigned long long>(addr));
                diags.push_back(
                    {"node" + std::to_string(n) + ".mshr", hex,
                     "completes at cycle " + std::to_string(ready) +
                         " > drain cycle " + std::to_string(now),
                     "a completion time was handed out that nobody "
                     "waited for"});
            }
        });
    }
    if (!diags.empty()) {
        throw InvariantViolation(
            "memory system not drained: " + std::to_string(leaked) +
                " outstanding miss(es) outlive the drain point",
            std::move(diags));
    }
}

void
MemorySystem::debugInjectPending(NodeId node, Addr addr, Cycles readyAt)
{
    pending_[node].insert(sectorBase(addr), readyAt, 0);
}

void
MemorySystem::flushCaches()
{
    for (size_t s = 0; s < l1_.size(); ++s)
        ctr_[smNode_[s]].writebackSectors += l1_[s].invalidateAll();
    for (size_t n = 0; n < l2_.size(); ++n)
        ctr_[n].writebackSectors += l2_[n].invalidateAll();
    for (auto &p : pending_)
        p.clear();
}

double
MemorySystem::offChipFraction() const
{
    const uint64_t remote = fetchRemote();
    const uint64_t total = fetchLocal() + remote;
    return total ? static_cast<double>(remote) / total : 0.0;
}

uint64_t
MemorySystem::l2Accesses() const
{
    uint64_t v = 0;
    for (const auto &c : l2_)
        v += c.accesses();
    return v;
}

uint64_t
MemorySystem::l2Hits() const
{
    uint64_t v = 0;
    for (const auto &c : l2_)
        v += c.hits();
    return v;
}

uint64_t
MemorySystem::l2SectorMisses() const
{
    uint64_t v = 0;
    for (const auto &c : l2_)
        v += c.sectorMisses() + c.lineMisses();
    return v;
}

void
MemorySystem::resetStats()
{
    ctr_.assign(ctr_.size(), NodeCounters{});
    uvm_.reset();
    migration_.reset();
    if (host_)
        host_->resetStats();
    for (auto &c : l1_)
        c.resetStats();
    for (auto &c : l2_)
        c.resetStats();
    // Bandwidth servers and the network: clear byte/busy statistics but
    // keep timing state (next-free cycles). Zeroing the timing too would
    // warp link availability back to cycle 0 mid-run; skipping the
    // servers entirely (the old behaviour) leaked utilization from
    // before the measurement window into it.
    for (auto &x : xbar_)
        x.resetStats();
    for (auto &d : dram_)
        d.resetStats();
    net_.resetStats();
    // Outstanding-miss state belongs to the measurement window: a stale
    // completion time surviving into the next window would satisfy
    // merges with timestamps from the previous one.
    for (auto &p : pending_)
        p.clear();
}

// --- sharded (conservative-PDES) access path -----------------------------

MemorySystem::ShardAccess
MemorySystem::shardAccess(ShardLane &lane, Cycles now, SmId sm, Addr addr,
                          bool write)
{
    Access a{.now = now,
             .addr = sectorBase(addr),
             .node = smNode_[sm],
             .write = write};
    const uint64_t line = a.addr / kLineSize;
    const bool new_line = line != lane.lastLine;
    lane.lastLine = line;
    MshrTable::Ref mshr{};
    Cycles done = 0;
    if (frontEnd(a, sm, new_line, mshr, done))
        return {done, kShardNoOp};
    // In-window join: the sector is already being fetched by an earlier
    // access in this window; ride the deferred op instead of issuing a
    // second fetch (the MSHR entry only appears once the op executes).
    if (const auto it = lane.inflight.find(a.addr);
        it != lane.inflight.end()) {
        ++ctr_[a.node].mshrMerges;
        return {0, it->second};
    }
    // Split: a first touch mutates the machine-global page table. A
    // shard thread may not fill the shared translation TLB either.
    a.home = pageTable_.lookupNoFill(a.addr);
    if (a.home == kInvalidNode)
        return defer(lane, a, ShardOpKind::Untranslated);
    // Split, inside: a dirty victim homed on another node.
    if (requesterL2(a, &lane))
        return {a.now + a.delay, kShardNoOp};
    // Split: a remote home's fabric legs and L2/DRAM.
    if (!issueFetch(a))
        return defer(lane, a, ShardOpKind::RemoteFetch);
    return {finish(a, mshr), kShardNoOp};
}

MemorySystem::ShardAccess
MemorySystem::defer(ShardLane &lane, const Access &a, ShardOpKind kind)
{
    const auto idx = static_cast<uint32_t>(lane.ops.size());
    lane.ops.push_back({.acc = a, .seq = lane.seq++, .kind = kind});
    lane.inflight.emplace(a.addr, idx);
    return {0, idx};
}

void
MemorySystem::executeShardOps(std::vector<ShardOp *> &ops)
{
    // Canonical order: (issue time, requester node, issue seq). Lane seq
    // numbers are per-node issue order, so this order -- and with it
    // every booking, cache mutation and page-table fault below -- is a
    // pure function of the node-level simulation, independent of how
    // nodes were grouped into shards. That is what makes shards=2 and
    // shards=4 produce bit-identical metrics.
    std::sort(ops.begin(), ops.end(),
              [](const ShardOp *x, const ShardOp *y) {
                  if (x->acc.now != y->acc.now)
                      return x->acc.now < y->acc.now;
                  if (x->acc.node != y->acc.node)
                      return x->acc.node < y->acc.node;
                  return x->seq < y->seq;
              });
    // The MSHR slot located in the parallel phase is stale by now: later
    // accesses of the window may have rebuilt the table.
    for (ShardOp *op : ops) {
        Access &a = op->acc;
        switch (op->kind) {
        case ShardOpKind::Writeback:
            writeback(a.now, a.node, a.home, a.addr, op->bytes);
            break;
        case ShardOpKind::Untranslated:
            // An earlier op this window may have mapped the page; the
            // serial-phase lookup resolves either way, faulting on true
            // first touch.
            op->done = tail(a, pending_[a.node].locate(a.addr));
            break;
        case ShardOpKind::RemoteFetch:
            remoteLeg(a);
            op->done = finish(a, pending_[a.node].locate(a.addr));
            break;
        }
    }
}

} // namespace ladm
