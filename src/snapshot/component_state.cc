/**
 * @file
 * io() field lists for every checkpointable simulator component,
 * gathered in one translation unit so the checkpoint format has a single
 * home: reading this file top to bottom walks the kMemory / kRegistry
 * payload byte for byte. Each list runs under all three archives
 * (common/serial.hh): it writes a checkpoint, restores one, and hashes
 * the state for GpuSystem::stateDigest(), so a field is added once.
 *
 * Conventions:
 *
 *  - Configuration-derived members (sizes, associativities, latencies)
 *    are NOT serialized; the config fingerprint in the header
 *    guarantees the restoring run derives identical values.
 *    Containers the configuration sizes go through ar.fixed(), which
 *    stores the length and refuses a mismatch on load, so a fingerprint
 *    collision surfaces as a SimError, not memory stomping.
 *  - Structs with padding or floating point (WarpEvent, TlbEntry, ...)
 *    list their fields; only padding-free trivially-copyable structs
 *    travel as raw bytes (a static_assert in the archive enforces it).
 *  - Hash maps (page exceptions, migration streaks) are visited in
 *    sorted key order, so equal maps write and hash equal bytes however
 *    they were built.
 */

#include <algorithm>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "common/stats.hh"
#include "interconnect/network.hh"
#include "mem/dram.hh"
#include "mem/migration.hh"
#include "mem/page_table.hh"
#include "mem/uvm.hh"
#include "obs/timeline.hh"
#include "sim/event_queue.hh"
#include "sim/memory_system.hh"
#include "sim/mshr_table.hh"
#include "telemetry/session.hh"
#include "telemetry/stat_registry.hh"

namespace ladm
{

// --- common/bandwidth_server.hh, common/rng.hh, common/stats.hh ------------

template <class Ar>
void
BandwidthServer::io(Ar &ar)
{
    ar(nextFree_, fracBusy_, totalBytes_, busyCycles_);
}

template <class Ar>
void
Rng::io(Ar &ar)
{
    ar(state_);
}

template <class Ar>
void
Counter::io(Ar &ar)
{
    ar(value_);
}

template <class Ar>
void
Histogram::io(Ar &ar)
{
    ar(bucketWidth_, buckets_, overflow_, total_, sum_, max_);
}

template <class Ar>
void
LogHistogram::io(Ar &ar)
{
    ar(buckets_, total_, sum_, min_, max_);
}

template <class Ar>
void
StatGroup::io(Ar &ar)
{
    // Lazily-registered entries are re-created on load; entries the
    // restoring process registered but the checkpoint lacks keep their
    // fresh (zero) state.
    ar.merge(counters_);
    ar.merge(histograms_);
    ar.merge(logHistograms_);
}

// --- telemetry/stat_registry.hh, telemetry/session.hh ----------------------

namespace telemetry
{

template <class Ar>
void
Sample::io(Ar &ar)
{
    ar(value);
    ar.choice(kind, StatKind::Formula);
}

template <class Ar>
void
Snapshot::io(Ar &ar)
{
    ar(values);
}

template <class Ar>
void
StatRegistry::io(Ar &ar)
{
    ar.merge(groups_, [this](const std::string &path) -> StatGroup & {
        return group(path);
    });
}

template <class Ar>
void
KernelRecord::io(Ar &ar)
{
    ar(index, startCycle, endCycle, stats);
}

} // namespace telemetry

// --- obs/timeline.hh --------------------------------------------------------

namespace obs
{

template <class Ar>
void
TimelineWindow::io(Ar &ar)
{
    ar(start, end, delta);
}

template <class Ar>
void
Timeline::io(Ar &ar)
{
    ar.fixed(paths_, "timeline paths");
    ar(windowCycles_, windowStart_, nextAt_, merges_, finished_, lastVals_,
       windows_);
}

} // namespace obs

// --- sim/event_queue.hh -----------------------------------------------------

template <class Ar>
void
WarpEvent::io(Ar &ar)
{
    ar(time, warp);
}

template <class Ar>
void
QueuedEvent::io(Ar &ar)
{
    ar(time, seq, warp);
}

template <class Key>
template <class Ar>
void
EventQueue<Key>::io(Ar &ar)
{
    // The heap's STRUCTURAL order (not just its multiset of events) is
    // serialized, in array order: equal-time 8-byte entries pop by the
    // layout. A load re-packs each entry, so the entry width's limits
    // (pack()) refuse what the queue could not have held.
    std::vector<QueuedEvent> heap;
    if constexpr (!Ar::kLoading) {
        heap.reserve(size_);
        for (size_t i = 1; i <= size_; ++i)
            heap.push_back({timeOf(heap_[i]), seqOf(heap_[i]),
                            slotOf(heap_[i])});
    }
    ar(seq_, heap);
    if constexpr (Ar::kLoading) {
        size_ = heap.size();
        heap_.resize(1);
        for (const QueuedEvent &ev : heap)
            heap_.push_back(pack(ev.time, ev.seq, ev.warp));
    }
}

// --- sim/mshr_table.hh ------------------------------------------------------

template <class Ar>
void
MshrTable::io(Ar &ar)
{
    ar(keys_, offs_, size_, base_);
    if constexpr (Ar::kLoading) {
        const size_t n = keys_.size();
        ar.expect(n >= kMinCapacity && (n & (n - 1)) == 0, true,
                  "MSHR table geometry");
        ar.expect(offs_.size(), n * kSectorsPerLine,
                  "MSHR table offsets per line");
        indexFor(n);
        memo_ = 0;
        // A sweep keeps any slot with a nonzero offset, so an empty slot
        // must hold none; the memo is exact only if no key repeats.
        std::vector<uint32_t> keys;
        size_t stray = 0;
        for (size_t i = 0; i < n; ++i) {
            if (keys_[i] != 0)
                keys.push_back(keys_[i]);
            else
                for (size_t s = 0; s < kSectorsPerLine; ++s)
                    stray += offs_[i * kSectorsPerLine + s] != 0;
        }
        ar.expect(keys.size(), size_, "MSHR table occupancy");
        ar.expect(size_ * 4 <= n * 3, true, "MSHR table load");
        ar.expect(stray, 0, "MSHR offsets in empty slots");
        std::sort(keys.begin(), keys.end());
        ar.expect(std::adjacent_find(keys.begin(), keys.end()) ==
                      keys.end(),
                  true, "MSHR table keys unique");
    }
}

// --- cache/cache.hh ---------------------------------------------------------

template <class Ar>
void
SectoredCache::io(Ar &ar)
{
    ar.fixed(ways_, "cache ways");
    ar(useClock_, accesses_, hits_, sectorMisses_, lineMisses_, bypasses_);
    if constexpr (Ar::kLoading) {
        populated_ = true;
        memo_ = 0;
    }
}

// --- mem/page_table.hh ------------------------------------------------------

template <class Ar>
void
PageTable::Segment::io(Ar &ar)
{
    ar(end, anchor, gen);
    ar.choice(kind, SegKind::RowBlocked);
    ar(node, granule, nodes);
}

template <class Ar>
void
PageTable::PageExc::io(Ar &ar)
{
    ar(node, gen);
}

template <class Ar>
void
PageTable::TlbEntry::io(Ar &ar)
{
    ar(tag, node);
}

template <class Ar>
void
PageTable::io(Ar &ar)
{
    // The TLB and its counters ride along: they are published stats, so
    // a cold-TLB restore would diverge from the uninterrupted run.
    ar(gen_, segments_, exceptions_);
    ar.fixed(tlb_, "TLB entries");
    ar(tlbHits_, tlbMisses_, tlbFlushes_);
}

// --- mem/dram.hh, mem/uvm.hh, mem/migration.hh ------------------------------

template <class Ar>
void
Dram::io(Ar &ar)
{
    ar(server_, accesses_);
}

template <class Ar>
void
Uvm::io(Ar &ar)
{
    ar(faults_);
}

template <class Ar>
void
MigrationEngine::io(Ar &ar)
{
    ar(streaks_, migrations_);
}

// --- interconnect ----------------------------------------------------------

template <class Ar>
void
Link::io(Ar &ar)
{
    ar(server_);
}

template <class Ar>
void
Network::io(Ar &ar)
{
    ar(interNodeBytes_, interGpuBytes_, severedCrossings_);
    ar.fixed(links_, "fabric links");
}

// --- sim/memory_system.hh ---------------------------------------------------

template <class Ar>
void
MemorySystem::NodeCounters::io(Ar &ar)
{
    ar(fetchLocal, fetchRemote, delayXbar, delayNet, delayDram, l1Hits,
       l1Accesses, mshrMerges, writebackSectors, rehomedPages,
       failedNodeAccesses, clsAcc, clsHit);
}

template <class Ar>
void
MemorySystem::io(Ar &ar)
{
    ar(pageTable_, uvm_);
    ar.fixed(l1_, "L1 caches");
    ar.fixed(l2_, "L2 caches");
    ar.fixed(dram_, "DRAM channels");
    ar.fixed(xbar_, "crossbars");
    ar(migration_);
    ar(net_);
    ar.choice(policy_, L2InsertPolicy::ROnce);
    ar.fixed(pending_, "MSHR tables");
    ar.fixed(ctr_, "node counters");
}

// The types whose io() other translation units reach.
LADM_SERIAL_INSTANTIATE(Rng);
LADM_SERIAL_INSTANTIATE(Histogram);
LADM_SERIAL_INSTANTIATE(telemetry::Snapshot);
LADM_SERIAL_INSTANTIATE(telemetry::StatRegistry);
LADM_SERIAL_INSTANTIATE(telemetry::KernelRecord);
LADM_SERIAL_INSTANTIATE(obs::Timeline);
LADM_SERIAL_INSTANTIATE(WarpEvent);
LADM_SERIAL_INSTANTIATE(EventQueue<uint64_t>);
LADM_SERIAL_INSTANTIATE(EventQueue<uint128_t>);
LADM_SERIAL_INSTANTIATE(SectoredCache);
LADM_SERIAL_INSTANTIATE(MshrTable);
LADM_SERIAL_INSTANTIATE(PageTable);
LADM_SERIAL_INSTANTIATE(MemorySystem);

} // namespace ladm
