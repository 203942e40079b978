/**
 * @file
 * saveState()/loadState() definitions for every checkpointable simulator
 * component, gathered in one translation unit so the checkpoint format
 * has a single home: reading this file top to bottom walks the kMemory /
 * kRegistry payload byte for byte.
 *
 * Conventions:
 *
 *  - Configuration-derived members (sizes, associativities, latencies,
 *    bucket widths) are NOT serialized; the config fingerprint in the
 *    header guarantees the restoring run derives identical values. Where
 *    cheap, a count is written anyway and validated on load so a
 *    fingerprint collision surfaces as a SimError, not memory stomping.
 *  - Structs with padding (WarpEvent, TlbEntry, ...) are
 *    serialized field-wise; only padding-free trivially-copyable structs
 *    go through Writer::vec's raw memcpy.
 *  - Hash maps are written in iteration order. That order is not
 *    deterministic, but it is never behavior-relevant: both maps here
 *    (page exceptions, migration streaks) are key-probed only, and the
 *    restored map answers every probe identically.
 */

#include <algorithm>
#include <string>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "common/sim_error.hh"
#include "common/stats.hh"
#include "interconnect/crossbar.hh"
#include "interconnect/hierarchical.hh"
#include "interconnect/network.hh"
#include "interconnect/ring.hh"
#include "mem/dram.hh"
#include "mem/migration.hh"
#include "mem/page_table.hh"
#include "mem/uvm.hh"
#include "obs/timeline.hh"
#include "sim/event_queue.hh"
#include "sim/memory_system.hh"
#include "sim/mshr_table.hh"
#include "telemetry/stat_registry.hh"

namespace ladm
{

namespace
{

/** Structural mismatch AFTER the CRC/fingerprint checks passed. */
[[noreturn]] void
badState(const std::string &what)
{
    throw SimError(
        SimError::Kind::Config, "checkpoint state mismatch",
        {{"checkpoint.state", what,
          "restored structure must match the constructed simulator",
          "the checkpoint was written by a different configuration or "
          "build; re-run without --resume"}});
}

void
expectCount(uint64_t got, uint64_t want, const char *what)
{
    if (got != want) {
        badState(std::string(what) + ": checkpoint has " +
                 std::to_string(got) + ", simulator has " +
                 std::to_string(want));
    }
}

} // namespace

// --- common/bandwidth_server.hh --------------------------------------------

void
BandwidthServer::saveState(serial::Writer &w) const
{
    w.u64(nextFree_);
    w.f64(fracBusy_);
    w.u64(totalBytes_);
    w.u64(busyCycles_);
}

void
BandwidthServer::loadState(serial::Reader &r)
{
    nextFree_ = r.u64();
    fracBusy_ = r.f64();
    totalBytes_ = r.u64();
    busyCycles_ = r.u64();
}

// --- common/rng.hh ----------------------------------------------------------

void
Rng::saveState(serial::Writer &w) const
{
    for (const uint64_t s : state_)
        w.u64(s);
}

void
Rng::loadState(serial::Reader &r)
{
    for (uint64_t &s : state_)
        s = r.u64();
}

// --- common/stats.hh --------------------------------------------------------

void
Counter::saveState(serial::Writer &w) const
{
    w.u64(value_);
}

void
Counter::loadState(serial::Reader &r)
{
    value_ = r.u64();
}

void
Average::saveState(serial::Writer &w) const
{
    w.f64(sum_);
    w.u64(count_);
}

void
Average::loadState(serial::Reader &r)
{
    sum_ = r.f64();
    count_ = r.u64();
}

void
Histogram::saveState(serial::Writer &w) const
{
    w.u64(bucketWidth_);
    w.vec(buckets_);
    w.u64(overflow_);
    w.u64(total_);
    w.f64(sum_);
    w.u64(max_);
}

void
Histogram::loadState(serial::Reader &r)
{
    bucketWidth_ = r.u64();
    r.vec(buckets_);
    overflow_ = r.u64();
    total_ = r.u64();
    sum_ = r.f64();
    max_ = r.u64();
}

void
LogHistogram::saveState(serial::Writer &w) const
{
    for (const uint64_t b : buckets_)
        w.u64(b);
    w.u64(total_);
    w.f64(sum_);
    w.u64(min_);
    w.u64(max_);
}

void
LogHistogram::loadState(serial::Reader &r)
{
    for (uint64_t &b : buckets_)
        b = r.u64();
    total_ = r.u64();
    sum_ = r.f64();
    min_ = r.u64();
    max_ = r.u64();
}

void
StatGroup::saveState(serial::Writer &w) const
{
    w.u64(counters_.size());
    for (const auto &[name, c] : counters_) {
        w.str(name);
        c.saveState(w);
    }
    w.u64(averages_.size());
    for (const auto &[name, a] : averages_) {
        w.str(name);
        a.saveState(w);
    }
    w.u64(histograms_.size());
    for (const auto &[name, h] : histograms_) {
        w.str(name);
        h.saveState(w);
    }
    w.u64(logHistograms_.size());
    for (const auto &[name, h] : logHistograms_) {
        w.str(name);
        h.saveState(w);
    }
}

void
StatGroup::loadState(serial::Reader &r)
{
    // Lazily-registered entries are re-created here; entries the
    // restoring process registered but the checkpoint lacks keep their
    // fresh (zero) state.
    for (uint64_t n = r.u64(); n; --n)
        counters_[r.str()].loadState(r);
    for (uint64_t n = r.u64(); n; --n)
        averages_[r.str()].loadState(r);
    for (uint64_t n = r.u64(); n; --n)
        histograms_[r.str()].loadState(r);
    for (uint64_t n = r.u64(); n; --n)
        logHistograms_[r.str()].loadState(r);
}

// --- telemetry/stat_registry.hh --------------------------------------------

namespace telemetry
{

void
Snapshot::saveState(serial::Writer &w) const
{
    w.u64(values.size());
    for (const auto &[path, s] : values) {
        w.str(path);
        w.f64(s.value);
        w.u8(static_cast<uint8_t>(s.kind));
    }
}

void
Snapshot::loadState(serial::Reader &r)
{
    values.clear();
    for (uint64_t n = r.u64(); n; --n) {
        std::string path = r.str();
        Sample s;
        s.value = r.f64();
        s.kind = static_cast<StatKind>(r.u8());
        values.emplace(std::move(path), s);
    }
}

void
StatRegistry::saveState(serial::Writer &w) const
{
    w.u64(groups_.size());
    for (const auto &[path, g] : groups_) {
        w.str(path);
        g.saveState(w);
    }
}

void
StatRegistry::loadState(serial::Reader &r)
{
    for (uint64_t n = r.u64(); n; --n) {
        const std::string path = r.str();
        group(path).loadState(r);
    }
}

} // namespace telemetry

// --- obs/timeline.hh --------------------------------------------------------

namespace obs
{

void
Timeline::saveState(serial::Writer &w) const
{
    w.u64(static_cast<uint64_t>(paths_.size()));
    w.u64(windowCycles_);
    w.u64(windowStart_);
    w.u64(nextAt_);
    w.u64(merges_);
    w.u8(finished_ ? 1 : 0);
    w.vec(lastVals_);
    w.u64(windows_.size());
    for (const TimelineWindow &win : windows_) {
        w.u64(win.start);
        w.u64(win.end);
        w.vec(win.delta);
    }
}

void
Timeline::loadState(serial::Reader &r)
{
    expectCount(r.u64(), paths_.size(), "timeline paths");
    windowCycles_ = r.u64();
    windowStart_ = r.u64();
    nextAt_ = r.u64();
    merges_ = r.u64();
    finished_ = r.u8() != 0;
    r.vec(lastVals_);
    windows_.resize(r.u64());
    for (TimelineWindow &win : windows_) {
        win.start = r.u64();
        win.end = r.u64();
        r.vec(win.delta);
    }
}

} // namespace obs

// --- sim/event_queue.hh -----------------------------------------------------

void
EventQueue::saveState(serial::Writer &w) const
{
    w.u8(mode_ == Mode::Calendar ? 1 : 0);
    w.u64(size_);
    // The heap vector's STRUCTURAL order (not just its multiset of
    // events) is serialized: equal-time pops follow the array layout.
    w.u64(heap_.size());
    for (const WarpEvent &e : heap_) {
        w.u64(e.time);
        w.u32(e.warp);
    }
    if (mode_ != Mode::Calendar)
        return;
    w.u64(cursor_);
    w.u64(yearStart_);
    w.u64(inYear_);
    w.u64(seq_);
    w.u64(overflow_.size());
    for (const Entry &e : overflow_) {
        w.u64(e.time);
        w.u64(e.seq);
        w.u32(e.warp);
    }
    w.u64(buckets_.size());
    for (const auto &b : buckets_) {
        w.u64(b.size());
        for (const Entry &e : b) {
            w.u64(e.time);
            w.u64(e.seq);
            w.u32(e.warp);
        }
    }
}

void
EventQueue::loadState(serial::Reader &r)
{
    expectCount(r.u8(), mode_ == Mode::Calendar ? 1 : 0,
                "event queue mode");
    size_ = r.u64();
    heap_.resize(r.u64());
    for (WarpEvent &e : heap_) {
        e.time = r.u64();
        e.warp = r.u32();
    }
    if (mode_ != Mode::Calendar)
        return;
    cursor_ = r.u64();
    yearStart_ = r.u64();
    inYear_ = r.u64();
    seq_ = r.u64();
    overflow_.resize(r.u64());
    for (Entry &e : overflow_) {
        e.time = r.u64();
        e.seq = r.u64();
        e.warp = r.u32();
    }
    expectCount(r.u64(), buckets_.size(), "calendar buckets");
    for (auto &b : buckets_) {
        b.resize(r.u64());
        for (Entry &e : b) {
            e.time = r.u64();
            e.seq = r.u64();
            e.warp = r.u32();
        }
    }
}

// --- sim/mshr_table.hh ------------------------------------------------------

void
MshrTable::saveState(serial::Writer &w) const
{
    w.vec(slots_); // Slot is {u32, u32}: no padding
    w.u64(size_);
    w.u64(base_);
}

void
MshrTable::loadState(serial::Reader &r)
{
    std::vector<Slot> slots;
    r.vec(slots);
    const size_t n = slots.size();
    if (n < kMinCapacity || (n & (n - 1)) != 0)
        badState("MSHR table geometry");
    reset(n);
    slots_ = std::move(slots);
    size_ = r.u64();
    base_ = r.u64();
    const auto live = std::count_if(slots_.begin(), slots_.end(),
                                    [](const Slot &s) { return s.key; });
    if (static_cast<size_t>(live) != size_)
        badState("MSHR table occupancy");
}

// --- cache/cache.hh ---------------------------------------------------------

void
SectoredCache::saveState(serial::Writer &w) const
{
    w.vec(ways_); // Way is {u64, u64}: no padding
    w.u64(useClock_);
    w.u64(accesses_);
    w.u64(hits_);
    w.u64(sectorMisses_);
    w.u64(lineMisses_);
    w.u64(bypasses_);
}

void
SectoredCache::loadState(serial::Reader &r)
{
    const size_t ways = ways_.size();
    r.vec(ways_);
    expectCount(ways_.size(), ways, "cache ways");
    populated_ = true;
    useClock_ = r.u64();
    accesses_ = r.u64();
    hits_ = r.u64();
    sectorMisses_ = r.u64();
    lineMisses_ = r.u64();
    bypasses_ = r.u64();
}

// --- mem/page_table.hh ------------------------------------------------------

void
PageTable::saveState(serial::Writer &w) const
{
    w.u64(gen_);
    w.u64(segments_.size());
    for (const auto &[start, s] : segments_) {
        w.u64(start);
        w.u64(s.end);
        w.u64(s.anchor);
        w.u64(s.gen);
        w.u8(static_cast<uint8_t>(s.kind));
        w.u32(static_cast<uint32_t>(s.node));
        w.u64(s.granule);
        w.vec(s.nodes);
    }
    w.u64(exceptions_.size());
    for (const auto &[page, e] : exceptions_) {
        w.u64(page);
        w.u32(static_cast<uint32_t>(e.node));
        w.u64(e.gen);
    }
    // The TLB and its counters ride along: they are published stats, so
    // a cold-TLB restore would diverge from the uninterrupted run.
    for (const TlbEntry &e : tlb_) {
        w.u64(e.tag);
        w.u32(static_cast<uint32_t>(e.node));
    }
    w.u64(tlbHits_);
    w.u64(tlbMisses_);
    w.u64(tlbFlushes_);
}

void
PageTable::loadState(serial::Reader &r)
{
    gen_ = r.u64();
    segments_.clear();
    for (uint64_t n = r.u64(); n; --n) {
        const Addr start = r.u64();
        Segment s;
        s.end = r.u64();
        s.anchor = r.u64();
        s.gen = r.u64();
        s.kind = static_cast<SegKind>(r.u8());
        s.node = static_cast<NodeId>(r.u32());
        s.granule = r.u64();
        r.vec(s.nodes);
        segments_.emplace_hint(segments_.end(), start, std::move(s));
    }
    exceptions_.clear();
    const uint64_t num_exc = r.u64();
    exceptions_.reserve(static_cast<size_t>(num_exc));
    for (uint64_t n = num_exc; n; --n) {
        const uint64_t page = r.u64();
        PageExc e;
        e.node = static_cast<NodeId>(r.u32());
        e.gen = r.u64();
        exceptions_.emplace(page, e);
    }
    for (TlbEntry &e : tlb_) {
        e.tag = r.u64();
        e.node = static_cast<NodeId>(r.u32());
    }
    tlbHits_ = r.u64();
    tlbMisses_ = r.u64();
    tlbFlushes_ = r.u64();
}

// --- mem/dram.hh, mem/uvm.hh, mem/migration.hh ------------------------------

void
Dram::saveState(serial::Writer &w) const
{
    server_.saveState(w);
    w.u64(accesses_);
}

void
Dram::loadState(serial::Reader &r)
{
    server_.loadState(r);
    accesses_ = r.u64();
}

void
Uvm::saveState(serial::Writer &w) const
{
    w.u64(faults_);
}

void
Uvm::loadState(serial::Reader &r)
{
    faults_ = r.u64();
}

void
MigrationEngine::saveState(serial::Writer &w) const
{
    w.u64(streaks_.size());
    for (const auto &[page, s] : streaks_) {
        w.u64(page);
        w.u32(static_cast<uint32_t>(s.node));
        w.u32(s.count);
    }
    w.u64(migrations_);
}

void
MigrationEngine::loadState(serial::Reader &r)
{
    streaks_.clear();
    const uint64_t n = r.u64();
    streaks_.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
        const uint64_t page = r.u64();
        Streak s;
        s.node = static_cast<NodeId>(r.u32());
        s.count = r.u32();
        streaks_.emplace(page, s);
    }
    migrations_ = r.u64();
}

// --- interconnect ----------------------------------------------------------

void
Network::saveState(serial::Writer &w) const
{
    w.u64(interNodeBytes_);
    w.u64(interGpuBytes_);
    w.u64(severedCrossings_);
}

void
Network::loadState(serial::Reader &r)
{
    interNodeBytes_ = r.u64();
    interGpuBytes_ = r.u64();
    severedCrossings_ = r.u64();
}

void
CrossbarNet::saveState(serial::Writer &w) const
{
    Network::saveState(w);
    for (const Link &l : egress_)
        l.saveState(w);
    for (const Link &l : ingress_)
        l.saveState(w);
}

void
CrossbarNet::loadState(serial::Reader &r)
{
    Network::loadState(r);
    for (Link &l : egress_)
        l.loadState(r);
    for (Link &l : ingress_)
        l.loadState(r);
}

void
RingFabric::saveState(serial::Writer &w) const
{
    for (const Link &l : cw_)
        l.saveState(w);
    for (const Link &l : ccw_)
        l.saveState(w);
}

void
RingFabric::loadState(serial::Reader &r)
{
    for (Link &l : cw_)
        l.loadState(r);
    for (Link &l : ccw_)
        l.loadState(r);
}

void
RingNet::saveState(serial::Writer &w) const
{
    Network::saveState(w);
    ring_.saveState(w);
}

void
RingNet::loadState(serial::Reader &r)
{
    Network::loadState(r);
    ring_.loadState(r);
}

void
HierarchicalNet::saveState(serial::Writer &w) const
{
    Network::saveState(w);
    for (const RingFabric &f : rings_)
        f.saveState(w);
    for (const Link &l : gpuEgress_)
        l.saveState(w);
    for (const Link &l : gpuIngress_)
        l.saveState(w);
}

void
HierarchicalNet::loadState(serial::Reader &r)
{
    Network::loadState(r);
    for (RingFabric &f : rings_)
        f.loadState(r);
    for (Link &l : gpuEgress_)
        l.loadState(r);
    for (Link &l : gpuIngress_)
        l.loadState(r);
}

// --- sim/memory_system.hh ---------------------------------------------------

void
MemorySystem::saveState(serial::Writer &w) const
{
    pageTable_.saveState(w);
    uvm_.saveState(w);
    w.u64(l1_.size());
    for (const SectoredCache &c : l1_)
        c.saveState(w);
    w.u64(l2_.size());
    for (const SectoredCache &c : l2_)
        c.saveState(w);
    w.u64(dram_.size());
    for (const Dram &d : dram_)
        d.saveState(w);
    w.u64(xbar_.size());
    for (const BandwidthServer &b : xbar_)
        b.saveState(w);
    migration_.saveState(w);
    net_->saveState(w);
    w.u8(static_cast<uint8_t>(policy_));
    w.u64(pending_.size());
    for (const MshrTable &t : pending_)
        t.saveState(w);
    w.u64(ctr_.size());
    for (const NodeCounters &c : ctr_) {
        w.u64(c.fetchLocal);
        w.u64(c.fetchRemote);
        w.u64(c.delayXbar);
        w.u64(c.delayNet);
        w.u64(c.delayDram);
        w.u64(c.l1Hits);
        w.u64(c.l1Accesses);
        w.u64(c.mshrMerges);
        w.u64(c.writebackSectors);
        w.u64(c.rehomedPages);
        w.u64(c.failedNodeAccesses);
        for (const uint64_t v : c.clsAcc)
            w.u64(v);
        for (const uint64_t v : c.clsHit)
            w.u64(v);
    }
}

void
MemorySystem::loadState(serial::Reader &r)
{
    pageTable_.loadState(r);
    uvm_.loadState(r);
    expectCount(r.u64(), l1_.size(), "L1 caches");
    for (SectoredCache &c : l1_)
        c.loadState(r);
    expectCount(r.u64(), l2_.size(), "L2 caches");
    for (SectoredCache &c : l2_)
        c.loadState(r);
    expectCount(r.u64(), dram_.size(), "DRAM channels");
    for (Dram &d : dram_)
        d.loadState(r);
    expectCount(r.u64(), xbar_.size(), "crossbars");
    for (BandwidthServer &b : xbar_)
        b.loadState(r);
    migration_.loadState(r);
    net_->loadState(r);
    policy_ = static_cast<L2InsertPolicy>(r.u8());
    expectCount(r.u64(), pending_.size(), "MSHR tables");
    for (MshrTable &t : pending_)
        t.loadState(r);
    expectCount(r.u64(), ctr_.size(), "node counters");
    for (NodeCounters &c : ctr_) {
        c.fetchLocal = r.u64();
        c.fetchRemote = r.u64();
        c.delayXbar = r.u64();
        c.delayNet = r.u64();
        c.delayDram = r.u64();
        c.l1Hits = r.u64();
        c.l1Accesses = r.u64();
        c.mshrMerges = r.u64();
        c.writebackSectors = r.u64();
        c.rehomedPages = r.u64();
        c.failedNodeAccesses = r.u64();
        for (uint64_t &v : c.clsAcc)
            v = r.u64();
        for (uint64_t &v : c.clsHit)
            v = r.u64();
    }
}

} // namespace ladm
