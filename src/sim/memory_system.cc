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
      net_(makeNetwork(cfg)),
      migration_(cfg.migrationThreshold, cfg.migrationLatencyCycles,
                 cfg.pageSize)
{
    cfg_.validate();
    chipletFaults_ = net_->faultPlan().anyChipletFaults();
    const int nodes = cfg_.numNodes();
    const int sms = cfg_.totalSms();
    const int channels = std::max(1, cfg_.dramChannelsPerChiplet);
    dramChannels_ = channels;
    if (isPowerOfTwo(static_cast<uint64_t>(channels)))
        dramChanMask_ = static_cast<uint64_t>(channels) - 1;

    fetchLocal_.assign(nodes, 0);
    fetchRemote_.assign(nodes, 0);
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

void
MemorySystem::handleDirtyEviction(Cycles now, NodeId node,
                                  const EvictInfo &ev)
{
    const int dirty = __builtin_popcount(ev.dirtyMask);
    ctr_[node].writebackSectors += dirty;
    const Bytes bytes = static_cast<Bytes>(dirty) * kSectorSize;
    NodeId home = pageTable_.lookup(ev.lineAddr);
    if (home == kInvalidNode)
        home = node;
    // Fire-and-forget: the writeback consumes bandwidth but nobody waits.
    if (home != node)
        net_->routeDelay(now, node, home, bytes);
    dramFor(home, ev.lineAddr).book(now, bytes);
}

Cycles
MemorySystem::access(Cycles now, SmId sm, Addr addr, bool write)
{
    // The issue time `now` is globally monotone (the engine processes
    // warp events in time order), so every bandwidth resource along the
    // path is booked at `now` and contributes a delay; see the ordering
    // contract in common/bandwidth_server.hh. Booking downstream
    // resources at their actual (future) arrival times instead would
    // interleave non-monotone timestamps and manufacture phantom
    // serialization.
    addr = sectorBase(addr);
    const NodeId node = smNode_[sm];

    // Start pulling the structures an L1 miss will probe -- the MSHR
    // slot, the L2 tag set, and the translation TLB entry -- while the
    // L1 lookup runs. All pure prefetch hints, no architectural effect.
    pending_[node].prefetch(addr);
    l2_[node].prefetchSet(addr);
    pageTable_.prefetch(addr);

    // L1: reads allocate; writes are write-through no-allocate with
    // write-invalidate (GPU L1s do not hold dirty global data, and a
    // matching sector must not serve stale data to later reads).
    NodeCounters &ctr = ctr_[node];
    if (!write) {
        ++ctr.l1Accesses;
        if (l1_[sm].access(addr, false, true) == AccessResult::Hit) {
            ++ctr.l1Hits;
            if (obsLat_)
                obsL1Hit(node);
            return now + cfg_.l1LatencyCycles;
        }
    } else {
        l1_[sm].invalidateSector(addr);
    }
    Cycles delay = cfg_.l1LatencyCycles;

    // SM <-> L2 crossbar within the chiplet.
    Cycles obs_xbar = 0;
    {
        const Cycles d = xbar_[node].book(now, kSectorSize);
        ctr.delayXbar += d;
        delay += d;
        obs_xbar = d;
    }

    // Outstanding-miss merge (MSHR): if this sector is already in flight
    // from this node, ride along. A stale (expired) entry is NOT erased
    // here: the insertAt() at the end of the miss path overwrites it in
    // place, so the probe chain is walked once per access, not three
    // times. Nothing between here and there may mutate this table.
    auto &pend = pending_[node];
    const MshrTable::Ref mshr = pend.locate(addr);
    if (mshr.found) {
        const Cycles ready = pend.readyAt(mshr);
        if (ready > now + delay) {
            ++ctr.mshrMerges;
            if (obsLat_)
                obsMerge(node, obs_xbar, ready - now - delay, ready - now);
            return ready;
        }
    }

    // Translate before the requester-side L2 decision: whether this L2
    // may hold the line depends on where the page *actually* homes, so
    // a first touch must resolve (and possibly fault) the home up
    // front. Deciding from the pre-fault lookup wrongly allocated
    // remote-homed first-touch lines in the requester's L2 even with
    // remote caching off. A hit on an unmapped page is impossible (a
    // line only enters the L2 through this miss path, which maps the
    // page), so the fault stall charged on the hit return is zero in
    // practice.
    const NodeId mapped_home = pageTable_.lookup(addr);
    Cycles fault_stall = 0;
    NodeId home =
        mapped_home != kInvalidNode
            ? mapped_home
            : uvm_.touch(pageTable_, addr, node, fault_stall);

    // Failed chiplet (fault injection): its HBM stack is gone. With
    // graceful degradation the page is rescued to a healthy node on first
    // access -- one page transfer, then business as usual. Without it the
    // access crawls to the dead stack over the maintenance path at
    // kSeveredResidualFactor of DRAM speed, every time.
    if (chipletFaults_ &&
        net_->faultPlan().nodeFailed(now, home)) {
        if (cfg_.faultDegradation) {
            const NodeId to =
                net_->faultPlan().fallbackNode(now, home, cfg_);
            // Rescue the WHOLE page: re-home it (which also drops its
            // translation-TLB entry) and invalidate every sector of it
            // still cached on the dead chiplet -- not just the sector
            // being touched. Leftover sibling sectors would otherwise
            // keep serving hits from a failed node's L2.
            pageTable_.place(addr, 1, to); // expands to the whole page
            const Addr page = roundDown(addr, cfg_.pageSize);
            l2_[home].invalidateRange(page, page + cfg_.pageSize);
            fault_stall += net_->routeDelay(now, home, to, cfg_.pageSize);
            ++ctr.rehomedPages;
            home = to;
        } else {
            fault_stall += cfg_.dramLatencyCycles *
                           static_cast<Cycles>(
                               1.0 / check::kSeveredResidualFactor);
            ++ctr.failedNodeAccesses;
        }
    }

    // Requester-side L2: the dynamic shared L2 [51] caches whatever its
    // own SMs touch; without remote caching it only holds local-homed
    // lines (memory-side L2).
    const bool req_alloc = cfg_.remoteCachingL2 || home == node;
    EvictInfo ev;
    const AccessResult r2 = l2_[node].access(addr, write, req_alloc, &ev);
    if (r2 == AccessResult::Hit) {
        countClass(node, home, node, true);
        if (obsLat_) {
            obsL2Hit(node, home, obs_xbar, fault_stall,
                     delay + fault_stall + cfg_.l2LatencyCycles);
        }
        return now + delay + fault_stall + cfg_.l2LatencyCycles;
    }

    delay += fault_stall + cfg_.l2LatencyCycles;
    countClass(node, home, node, false);
    handleEviction(now, node, ev);

    // Latency-attribution component accumulators: plain locals on the
    // (already expensive) miss path; zero-valued and dead when obs is off.
    Cycles obs_l2 = cfg_.l2LatencyCycles;
    Cycles obs_ring = 0, obs_link = 0, obs_dram = 0;

    if (cfg_.pageMigration) {
        delay += migration_.onFetch(pageTable_, *net_, now, addr, node,
                                    home);
    }

    if (host_) {
        // Oversubscription: the page must be device-resident at its
        // home. A page that was already mapped before this access was
        // placed proactively (LASP prefetch); an unmapped one is being
        // first-touched right now, i.e. a reactive demand fault.
        delay += host_->ensureResident(
            now, addr, home, /*proactive=*/mapped_home != kInvalidNode);
    }

    // Mirrors the fetchLocal_/fetchRemote_ increments below one-for-one;
    // the heatmap conservation check depends on this adjacency.
    if (obsHeat_)
        obsHeat_->recordFetch(node, home, addr);

    if (home == node) {
        ++fetchLocal_[node];
        const Cycles d = dramFor(node, addr).book(now, kSectorSize);
        ctr.delayDram += d;
        delay += d;
        obs_dram = d;
    } else {
        ++fetchRemote_[node];
        // Both fabric legs of a remote fetch attribute to one component:
        // ring when requester and home share a GPU, inter-GPU link
        // otherwise (a cross-GPU route's ring segments ride along).
        const bool same_gpu = cfg_.gpuOfNode(node) == cfg_.gpuOfNode(home);
        Cycles &leg = same_gpu ? obs_ring : obs_link;
        // Read: small request out, sector back. Write: sector out, ack
        // back.
        {
            const Cycles d = net_->routeDelay(now, node, home,
                                              write ? kSectorSize
                                                    : kCtrlBytes);
            ctr.delayNet += d;
            delay += d;
            leg += d;
        }

        const bool alloc = homeSideAllocates(policy_, true);
        EvictInfo ev_home;
        const AccessResult r3 = l2_[home].access(addr, write, alloc,
                                                 &ev_home);
        countClass(node, home, home, r3 == AccessResult::Hit);
        handleEviction(now, home, ev_home);
        delay += cfg_.l2LatencyCycles;
        obs_l2 += cfg_.l2LatencyCycles;
        if (r3 != AccessResult::Hit) {
            const Cycles d = dramFor(home, addr).book(now, kSectorSize);
            ctr.delayDram += d;
            delay += d;
            obs_dram = d;
        }

        {
            const Cycles d = net_->routeDelay(now, home, node,
                                              write ? kCtrlBytes
                                                    : kSectorSize);
            ctr.delayNet += d;
            delay += d;
            leg += d;
        }
    }

    if (obsLat_) {
        obsMiss(node, home, obs_xbar, fault_stall, obs_l2, obs_ring,
                obs_link, obs_dram, delay);
    }

    const Cycles done = now + delay;
    pend.insertAt(mshr, addr, done, now);
    return done;
}

void
MemorySystem::obsL1Hit(NodeId node)
{
    obs::AccessSample s;
    s.node = node;
    s.comp[static_cast<size_t>(obs::LatComponent::L1)] =
        cfg_.l1LatencyCycles;
    s.comp[static_cast<size_t>(obs::LatComponent::Total)] =
        cfg_.l1LatencyCycles;
    obsLat_->record(s);
}

void
MemorySystem::obsMerge(NodeId node, Cycles xbar, Cycles wait, Cycles total)
{
    obs::AccessSample s;
    s.node = node;
    s.comp[static_cast<size_t>(obs::LatComponent::L1)] =
        cfg_.l1LatencyCycles;
    s.comp[static_cast<size_t>(obs::LatComponent::Xbar)] = xbar;
    s.comp[static_cast<size_t>(obs::LatComponent::MshrWait)] = wait;
    s.comp[static_cast<size_t>(obs::LatComponent::Total)] = total;
    obsLat_->record(s);
}

void
MemorySystem::obsL2Hit(NodeId node, NodeId home, Cycles xbar, Cycles fault,
                       Cycles total)
{
    obs::AccessSample s;
    s.node = node;
    s.trafficClass = static_cast<int>(classifyTraffic(node, home, node));
    s.comp[static_cast<size_t>(obs::LatComponent::L1)] =
        cfg_.l1LatencyCycles;
    s.comp[static_cast<size_t>(obs::LatComponent::Xbar)] = xbar;
    s.comp[static_cast<size_t>(obs::LatComponent::FaultStall)] = fault;
    s.comp[static_cast<size_t>(obs::LatComponent::L2)] =
        cfg_.l2LatencyCycles;
    s.comp[static_cast<size_t>(obs::LatComponent::Total)] = total;
    obsLat_->record(s);
}

void
MemorySystem::obsMiss(NodeId node, NodeId home, Cycles xbar, Cycles fault,
                      Cycles l2, Cycles ring, Cycles link, Cycles dram,
                      Cycles total)
{
    obs::AccessSample s;
    s.node = node;
    s.trafficClass = static_cast<int>(classifyTraffic(node, home, node));
    s.comp[static_cast<size_t>(obs::LatComponent::L1)] =
        cfg_.l1LatencyCycles;
    s.comp[static_cast<size_t>(obs::LatComponent::Xbar)] = xbar;
    s.comp[static_cast<size_t>(obs::LatComponent::FaultStall)] = fault;
    s.comp[static_cast<size_t>(obs::LatComponent::L2)] = l2;
    s.comp[static_cast<size_t>(obs::LatComponent::Ring)] = ring;
    s.comp[static_cast<size_t>(obs::LatComponent::GpuLink)] = link;
    s.comp[static_cast<size_t>(obs::LatComponent::Dram)] = dram;
    // Residual (migration, host-memory residency) keeps the decomposition
    // summing to the end-to-end latency exactly.
    const Cycles known = cfg_.l1LatencyCycles + xbar + fault + l2 + ring +
                         link + dram;
    s.comp[static_cast<size_t>(obs::LatComponent::Other)] =
        total > known ? total - known : 0;
    s.comp[static_cast<size_t>(obs::LatComponent::Total)] = total;
    obsLat_->record(s);
}

void
MemorySystem::registerStats(telemetry::StatRegistry &reg,
                            std::function<Cycles()> now)
{
    using telemetry::StatRegistry;
    const StatKind acc = StatKind::Counter;
    const int nodes = cfg_.numNodes();
    const int sms_per_node = cfg_.smsPerChiplet;

    for (NodeId n = 0; n < nodes; ++n) {
        const std::string node = "node" + std::to_string(n);
        l2_[n].registerStats(reg, node + ".l2");
        reg.gauge(node + ".mem.fetch_local",
                  [this, n] {
                      return static_cast<double>(fetchLocal_[n]);
                  },
                  acc);
        reg.gauge(node + ".mem.fetch_remote",
                  [this, n] {
                      return static_cast<double>(fetchRemote_[n]);
                  },
                  acc);
        reg.formula(node + ".mem.remote_fraction", [this, n] {
            const uint64_t total = fetchLocal_[n] + fetchRemote_[n];
            return total ? static_cast<double>(fetchRemote_[n]) / total
                         : 0.0;
        });
        reg.gauge(node + ".mem.dram_accesses",
                  [this, n] {
                      return static_cast<double>(dramAccesses(n));
                  },
                  acc);
        reg.gauge(node + ".mem.dram_busy_cycles",
                  [this, n] {
                      return static_cast<double>(dramBusyCycles(n));
                  },
                  acc);
        reg.gauge(node + ".xbar.bytes",
                  [this, n] {
                      return static_cast<double>(xbar_[n].totalBytes());
                  },
                  acc);
        // L1s aggregated per node: per-SM leaves would be 6x totalSms()
        // gauges of noise for a stat nobody reads individually.
        reg.gauge(node + ".l1.accesses",
                  [this, n, sms_per_node] {
                      uint64_t v = 0;
                      for (int s = 0; s < sms_per_node; ++s)
                          v += l1_[n * sms_per_node + s].accesses();
                      return static_cast<double>(v);
                  },
                  acc);
        reg.gauge(node + ".l1.hits",
                  [this, n, sms_per_node] {
                      uint64_t v = 0;
                      for (int s = 0; s < sms_per_node; ++s)
                          v += l1_[n * sms_per_node + s].hits();
                      return static_cast<double>(v);
                  },
                  acc);
    }

    reg.gauge("mem.fetch_local",
              [this] { return static_cast<double>(fetchLocal()); }, acc);
    reg.gauge("mem.fetch_remote",
              [this] { return static_cast<double>(fetchRemote()); }, acc);
    reg.formula("mem.offchip_fraction",
                [this] { return offChipFraction(); });
    reg.gauge("mem.l1_accesses",
              [this] { return static_cast<double>(l1Accesses()); }, acc);
    reg.gauge("mem.l1_hits",
              [this] { return static_cast<double>(l1Hits()); }, acc);
    reg.gauge("mem.l2_accesses",
              [this] { return static_cast<double>(l2Accesses()); }, acc);
    reg.gauge("mem.l2_hits",
              [this] { return static_cast<double>(l2Hits()); }, acc);
    reg.gauge("mem.mshr_merges",
              [this] { return static_cast<double>(mshrMerges()); }, acc);
    reg.gauge("mem.writeback_sectors",
              [this] {
                  return static_cast<double>(writebackSectors());
              },
              acc);
    reg.gauge("mem.delay_xbar",
              [this] { return static_cast<double>(delayXbar()); }, acc);
    reg.gauge("mem.delay_net",
              [this] { return static_cast<double>(delayNet()); }, acc);
    reg.gauge("mem.delay_dram",
              [this] { return static_cast<double>(delayDram()); }, acc);
    for (int c = 0; c < kNumTrafficClasses; ++c) {
        const std::string cls =
            std::string("mem.class.") +
            toString(static_cast<TrafficClass>(c));
        reg.gauge(cls + ".accesses",
                  [this, c] {
                      return static_cast<double>(classAccesses(
                          static_cast<TrafficClass>(c)));
                  },
                  acc);
        reg.gauge(cls + ".hits",
                  [this, c] {
                      return static_cast<double>(classHits(
                          static_cast<TrafficClass>(c)));
                  },
                  acc);
    }
    if (chipletFaults_) {
        reg.gauge("mem.fault.rehomed_pages",
                  [this] {
                      return static_cast<double>(rehomedPages());
                  },
                  acc);
        reg.gauge("mem.fault.failed_node_accesses",
                  [this] {
                      return static_cast<double>(failedNodeAccesses());
                  },
                  acc);
    }
    reg.gauge("uvm.faults",
              [this] { return static_cast<double>(uvmFaults()); }, acc);
    reg.gauge("uvm.page_migrations",
              [this] { return static_cast<double>(pageMigrations()); },
              acc);
    if (host_) {
        reg.gauge("host.demand_faults",
                  [this] {
                      return static_cast<double>(hostDemandFaults());
                  },
                  acc);
        reg.gauge("host.prefetches",
                  [this] {
                      return static_cast<double>(hostPrefetches());
                  },
                  acc);
        reg.gauge("host.evictions",
                  [this] {
                      return static_cast<double>(hostEvictions());
                  },
                  acc);
    }
    net_->registerStats(reg, std::move(now));
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
MemorySystem::checkStampHeadroom() const
{
    for (const SectoredCache &c : l1_)
        c.checkStampHeadroom();
    for (const SectoredCache &c : l2_)
        c.checkStampHeadroom();
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

uint64_t
MemorySystem::fetchLocal() const
{
    uint64_t v = 0;
    for (const uint64_t n : fetchLocal_)
        v += n;
    return v;
}

uint64_t
MemorySystem::fetchRemote() const
{
    uint64_t v = 0;
    for (const uint64_t n : fetchRemote_)
        v += n;
    return v;
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
    fetchLocal_.assign(fetchLocal_.size(), 0);
    fetchRemote_.assign(fetchRemote_.size(), 0);
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
    net_->resetStats();
    // Outstanding-miss state belongs to the measurement window: a stale
    // completion time surviving into the next window would satisfy
    // merges with timestamps from the previous one.
    for (auto &p : pending_)
        p.clear();
}

// --- sharded (conservative-PDES) access path -----------------------------
//
// The contract mirrors access() step for step. Everything up to (and
// including) the requester-side L2 for a *mapped* address touches only
// node-exclusive state -- the SM's L1, the node's crossbar server, MSHR
// table, L2 partition and DRAM channels -- and runs in the parallel
// phase. Three things cross nodes and are deferred: the fabric legs plus
// home-side L2/DRAM of a remote fetch, everything after translation for
// an unmapped page (the UVM first touch mutates the page table), and a
// dirty eviction homed remotely. Timestamps stay honest: a deferred op
// executes with its original issue time, so the bandwidth servers see
// the same booking times the serial engine would have produced, modulo
// the simultaneity order documented in docs/performance.md.

MemorySystem::ShardAccess
MemorySystem::shardAccess(ShardLane &lane, Cycles now, SmId sm, Addr addr,
                          bool write)
{
    addr = sectorBase(addr);
    const NodeId node = smNode_[sm];
    NodeCounters &ctr = ctr_[node];

    pending_[node].prefetch(addr);
    l2_[node].prefetchSet(addr);
    pageTable_.prefetch(addr);

    if (!write) {
        ++ctr.l1Accesses;
        if (l1_[sm].access(addr, false, true) == AccessResult::Hit) {
            ++ctr.l1Hits;
            return {now + cfg_.l1LatencyCycles, kShardNoOp};
        }
    } else {
        l1_[sm].invalidateSector(addr);
    }
    Cycles delay = cfg_.l1LatencyCycles;
    {
        const Cycles d = xbar_[node].book(now, kSectorSize);
        ctr.delayXbar += d;
        delay += d;
    }

    auto &pend = pending_[node];
    const MshrTable::Ref mshr = pend.locate(addr);
    if (mshr.found) {
        const Cycles ready = pend.readyAt(mshr);
        if (ready > now + delay) {
            ++ctr.mshrMerges;
            return {ready, kShardNoOp};
        }
    }
    // In-window join: the sector is already being fetched by an earlier
    // access in this window; ride the deferred op instead of issuing a
    // second fetch (the MSHR entry only appears once the op executes).
    if (const auto it = lane.inflight.find(addr);
        it != lane.inflight.end()) {
        ++ctr.mshrMerges;
        return {0, it->second};
    }

    const NodeId home = pageTable_.lookupNoFill(addr);
    if (home == kInvalidNode) {
        // First touch: the UVM fault mutates the page table, which is
        // machine-global. Defer everything from translation onward.
        const auto idx = static_cast<uint32_t>(lane.ops.size());
        lane.ops.push_back({now, lane.seq++, addr, node, kInvalidNode,
                            ShardOpKind::Untranslated, write, delay, 0,
                            0});
        lane.inflight.emplace(addr, idx);
        return {0, idx};
    }

    const bool req_alloc = cfg_.remoteCachingL2 || home == node;
    EvictInfo ev;
    const AccessResult r2 = l2_[node].access(addr, write, req_alloc, &ev);
    if (r2 == AccessResult::Hit) {
        countClass(node, home, node, true);
        return {now + delay + cfg_.l2LatencyCycles, kShardNoOp};
    }
    delay += cfg_.l2LatencyCycles;
    countClass(node, home, node, false);
    shardHandleEviction(lane, now, node, ev);

    if (home == node) {
        ++fetchLocal_[node];
        const Cycles d = dramFor(node, addr).book(now, kSectorSize);
        ctr.delayDram += d;
        delay += d;
        const Cycles done = now + delay;
        pend.insertAt(mshr, addr, done, now);
        return {done, kShardNoOp};
    }

    ++fetchRemote_[node];
    const auto idx = static_cast<uint32_t>(lane.ops.size());
    lane.ops.push_back({now, lane.seq++, addr, node, home,
                        ShardOpKind::RemoteFetch, write, delay, 0, 0});
    lane.inflight.emplace(addr, idx);
    return {0, idx};
}

void
MemorySystem::shardHandleEviction(ShardLane &lane, Cycles now, NodeId node,
                                  const EvictInfo &ev)
{
    if (!ev.evicted || ev.dirtyMask == 0)
        return;
    const int dirty = __builtin_popcount(ev.dirtyMask);
    ctr_[node].writebackSectors += dirty;
    const Bytes bytes = static_cast<Bytes>(dirty) * kSectorSize;
    NodeId home = pageTable_.lookupNoFill(ev.lineAddr);
    if (home == kInvalidNode)
        home = node;
    if (home == node) {
        dramFor(node, ev.lineAddr).book(now, bytes);
        return;
    }
    // Fire-and-forget: nobody waits on a writeback, but the fabric and
    // home DRAM bookings are cross-node, so they ride the barrier.
    lane.ops.push_back({now, lane.seq++, ev.lineAddr, node, home,
                        ShardOpKind::Writeback, true, 0, bytes, 0});
}

void
MemorySystem::execRemoteLeg(ShardOp &op)
{
    const NodeId node = op.node;
    const NodeId home = op.home;
    NodeCounters &ctr = ctr_[node];
    Cycles delay = op.partial;
    {
        const Cycles d = net_->routeDelay(
            op.time, node, home, op.write ? kSectorSize : kCtrlBytes);
        ctr.delayNet += d;
        delay += d;
    }
    const bool alloc = homeSideAllocates(policy_, true);
    EvictInfo ev_home;
    const AccessResult r3 =
        l2_[home].access(op.addr, op.write, alloc, &ev_home);
    countClass(node, home, home, r3 == AccessResult::Hit);
    handleEviction(op.time, home, ev_home);
    delay += cfg_.l2LatencyCycles;
    if (r3 != AccessResult::Hit) {
        const Cycles d = dramFor(home, op.addr).book(op.time, kSectorSize);
        ctr.delayDram += d;
        delay += d;
    }
    {
        const Cycles d = net_->routeDelay(
            op.time, home, node, op.write ? kCtrlBytes : kSectorSize);
        ctr.delayNet += d;
        delay += d;
    }
    op.done = op.time + delay;
    pending_[node].insert(op.addr, op.done, op.time);
}

void
MemorySystem::finishShardFetch(ShardOp &op)
{
    const NodeId node = op.node;
    const NodeId home = op.home;
    const bool req_alloc = cfg_.remoteCachingL2 || home == node;
    EvictInfo ev;
    const AccessResult r2 =
        l2_[node].access(op.addr, op.write, req_alloc, &ev);
    if (r2 == AccessResult::Hit) {
        countClass(node, home, node, true);
        op.done = op.time + op.partial + cfg_.l2LatencyCycles;
        return;
    }
    op.partial += cfg_.l2LatencyCycles;
    countClass(node, home, node, false);
    handleEviction(op.time, node, ev);
    if (home == node) {
        ++fetchLocal_[node];
        const Cycles d = dramFor(node, op.addr).book(op.time, kSectorSize);
        ctr_[node].delayDram += d;
        op.partial += d;
        op.done = op.time + op.partial;
        pending_[node].insert(op.addr, op.done, op.time);
        return;
    }
    ++fetchRemote_[node];
    execRemoteLeg(op);
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
              [](const ShardOp *a, const ShardOp *b) {
                  if (a->time != b->time)
                      return a->time < b->time;
                  if (a->node != b->node)
                      return a->node < b->node;
                  return a->seq < b->seq;
              });
    for (ShardOp *op : ops) {
        switch (op->kind) {
        case ShardOpKind::Writeback:
            net_->routeDelay(op->time, op->node, op->home, op->bytes);
            dramFor(op->home, op->addr).book(op->time, op->bytes);
            op->done = op->time;
            break;
        case ShardOpKind::Untranslated: {
            // An earlier op this window may have mapped the page; the
            // serial-phase lookup (TLB fill allowed: we are exclusive
            // here) resolves either way, faulting on true first touch.
            Cycles fault_stall = 0;
            const NodeId mapped = pageTable_.lookup(op->addr);
            op->home = mapped != kInvalidNode
                           ? mapped
                           : uvm_.touch(pageTable_, op->addr, op->node,
                                        fault_stall);
            op->partial += fault_stall;
            finishShardFetch(*op);
            break;
        }
        case ShardOpKind::RemoteFetch:
            execRemoteLeg(*op);
            break;
        }
    }
}

} // namespace ladm
