/**
 * @file
 * SystemConfig: every hardware parameter of the simulated hierarchical
 * NUMA-GPU (Table III of the paper), plus derived helpers.
 *
 * The machine is numGpus discrete GPUs joined by an inter-GPU switch; each
 * GPU holds chipletsPerGpu chiplets joined by an on-package ring; each
 * chiplet holds smsPerChiplet SMs, one L2 partition and one HBM stack.
 * One chiplet == one NUMA node for placement purposes.
 */

#ifndef LADM_CONFIG_SYSTEM_CONFIG_HH
#define LADM_CONFIG_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_error.hh"
#include "common/types.hh"

namespace ladm
{

/**
 * Which telemetry sinks a run writes. Each field has a flag and an LADM_*
 * variable in the shared option table (config/options.hh, listed in
 * README.md); docs/observability.md describes the sinks. With no sink
 * selected every hook in the simulator reduces to an inline predicate,
 * so tier-1 runtime is unaffected.
 */
struct TelemetryOptions
{
    std::string statsJsonPath;
    std::string statsCsvPath;
    std::string statsTextPath;
    std::string traceOutPath;
    uint32_t traceSampleEvery = 64;
    uint64_t traceMaxEvents = 1'000'000;

    std::string timelineOutPath;
    uint64_t timelineWindowCycles = 10'000;
    uint32_t timelineMaxWindows = 512;
    /** Comma-separated registry paths; empty = default curated set. */
    std::string timelinePaths;
    bool obsAttribution = false;
    bool obsHeatmap = false;
    uint32_t obsHotPages = 20;

    bool
    anyStatsSink() const
    {
        return !statsJsonPath.empty() || !statsCsvPath.empty() ||
               !statsTextPath.empty();
    }
    bool traceEnabled() const { return !traceOutPath.empty(); }
    bool timelineEnabled() const { return !timelineOutPath.empty(); }
    /** Any time-resolved observability pillar armed? */
    bool
    obsActive() const
    {
        return timelineEnabled() || obsAttribution || obsHeatmap;
    }
    bool
    anySink() const
    {
        return anyStatsSink() || traceEnabled() || obsActive();
    }

    /** The telemetry options as given by flag or LADM_* variable. */
    static TelemetryOptions resolve();
};

/** Interconnect topology joining the NUMA nodes. */
enum class Topology
{
    /** Single node; every access is local (hypothetical monolithic GPU). */
    Monolithic,
    /** Flat crossbar/switch between all nodes (NVSwitch-like). */
    Crossbar,
    /** Flat bi-directional ring between all nodes (MCM-like). */
    Ring,
    /** Ring of chiplets within each GPU + crossbar between GPUs (Fig. 1). */
    Hierarchical,
};

/** All hardware parameters of one simulated system. */
struct SystemConfig
{
    std::string name = "multi-gpu-4x4";

    // --- organization -----------------------------------------------------
    int numGpus = 4;
    int chipletsPerGpu = 4;
    int smsPerChiplet = 16;
    Topology topology = Topology::Hierarchical;

    // --- SM ---------------------------------------------------------------
    double clockGhz = 1.4;
    int warpSize = 32;
    int warpSlotsPerSm = 64;
    int maxResidentTbsPerSm = 16;
    /** Core-model cycles between two dependent memory ops of one warp. */
    Cycles computeGapCycles = 4;
    /**
     * Loop iterations a warp may have in flight: real kernels issue the
     * next tile's loads while the previous iteration's are outstanding
     * (scoreboarding / software pipelining). Depth 1 = fully blocking.
     */
    int warpPipelineDepth = 3;
    /**
     * Event-loop shards for the conservative-PDES engine: the kernel
     * engine partitions warps by NUMA node across this many worker
     * threads synchronized on conservative time windows whose width is
     * the minimum cross-node link latency (the lookahead). 0 resolves
     * from --shards / LADM_SHARDS (default 1); 1 is the
     * bit-exact single-thread reference; values above numNodes() clamp.
     * Sharding falls back to the serial loop when the run needs
     * serial-only machinery (obs attribution/heatmap, fault injection,
     * page migration, host memory). See docs/performance.md.
     */
    int shards = 0;

    // --- caches -----------------------------------------------------------
    Bytes l1SizePerSm = 64 * 1024;
    int l1Assoc = 4;
    Cycles l1LatencyCycles = 28;

    Bytes l2SizePerChiplet = 1024 * 1024;
    int l2Assoc = 16;
    int l2BanksPerChiplet = 16;
    Cycles l2LatencyCycles = 120;
    /**
     * Dynamic shared L2 with remote caching [51]: the requester-side L2
     * may hold remote-homed lines. Disabling it reverts to a memory-side
     * L2 that only caches its own HBM's data (the ablation behind the
     * paper's "remote caching improves GEMM by 4.8x" observation).
     */
    bool remoteCachingL2 = true;

    // --- memory -----------------------------------------------------------
    Bytes pageSize = 4096;
    double memBwPerChipletGBs = 180.0;
    Cycles dramLatencyCycles = 220;
    /** HBM pseudo-channels per chiplet sharing memBwPerChipletGBs. */
    int dramChannelsPerChiplet = 8;

    // --- reactive page migration (off by default; the CPU-NUMA baseline
    //     Section II-A argues against) --------------------------------------
    bool pageMigration = false;
    uint32_t migrationThreshold = 64;
    Cycles migrationLatencyCycles = 5000;

    /**
     * Software L2 coherence [51]: invalidate all caches at kernel
     * boundaries. Setting false models an HMG-style hardware-coherent
     * hierarchy [66] that preserves inter-kernel locality.
     */
    bool flushL2BetweenKernels = true;

    // --- UVM oversubscription (Section VI future work) ---------------------
    /**
     * Device-resident capacity per node; 0 disables the host-memory
     * model. When data exceeds it, pages fault in from host memory over
     * the host link, evicting the oldest resident pages (FIFO).
     */
    Bytes hbmCapacityPerNode = 0;
    /** Host link (PCIe/NVLink-to-host) bandwidth shared by all nodes. */
    double hostLinkGBs = 32.0;
    /**
     * Fixed stall for a *reactive* (demand) host fault; proactively
     * placed pages stream in at host-link bandwidth without it, the
     * LASP-prefetch extension the paper sketches in Section VI.
     */
    Cycles hostFaultCycles = 28000;

    // --- interconnect bandwidths (GB/s) ------------------------------------
    /** Aggregate SM<->L2 crossbar within one chiplet. */
    double intraChipletXbarGBs = 720.0;
    /** Per-GPU inter-chiplet ring bandwidth. */
    double interChipletRingGBs = 720.0;
    /** Per-link inter-GPU switch bandwidth (each direction). */
    double interGpuLinkGBs = 180.0;
    /** Aggregate crossbar bandwidth of the monolithic configuration. */
    double monolithicXbarGBs = 11200.0;

    // --- interconnect latencies -------------------------------------------
    Cycles ringHopLatencyCycles = 32;
    Cycles switchLatencyCycles = 128;

    // --- UVM --------------------------------------------------------------
    /**
     * Cost of servicing a first-touch page fault from system memory
     * (the paper cites 20-50 microseconds of SM stall). Zero models the
     * "Batch+FT-optimal" configuration used in Fig. 4.
     */
    Cycles pageFaultCycles = 0;
    /**
     * Home faulted pages round-robin across the nodes (the driver-style
     * page interleave of the CPU-NUMA playbook) instead of at the
     * touching node. A first touch can then resolve to a *remote* home,
     * which the L2 allocation decision must respect.
     */
    bool uvmFirstTouchInterleave = false;

    // --- robustness / fault injection ---------------------------------------
    /**
     * Scripted NUMA-fabric faults (check::FaultPlan grammar, e.g.
     * "link:0-1:0.25@1000;chiplet:5:fail@0"). Empty = healthy machine;
     * the interconnect models, MemorySystem and the schedulers all
     * consult the parsed plan. See docs/robustness.md.
     */
    std::string faultSpec;
    /**
     * Graceful degradation under faults: re-home pages off failed
     * chiplets on first access and re-bind their threadblocks to healthy
     * nodes at launch. Disabling models a fault-oblivious runtime (the
     * ablation bench_fault_sweep contrasts).
     */
    bool faultDegradation = true;

    // --- derived ------------------------------------------------------------
    int numNodes() const { return numGpus * chipletsPerGpu; }
    int totalSms() const { return numNodes() * smsPerChiplet; }

    NodeId nodeOfSm(SmId sm) const { return sm / smsPerChiplet; }
    GpuId gpuOfNode(NodeId n) const { return n / chipletsPerGpu; }
    ChipletId chipletOfNode(NodeId n) const { return n % chipletsPerGpu; }
    NodeId nodeOf(GpuId g, ChipletId c) const
    {
        return g * chipletsPerGpu + c;
    }

    /** Convert a GB/s figure to bytes per core cycle. */
    double bytesPerCycle(double gbs) const { return gbs / clockGhz; }

    /** shards, with 0 resolved from --shards / LADM_SHARDS (default 1). */
    int resolvedShards() const;

    /**
     * Check every parameter for consistency.
     * @throws SimError(Kind::Config) carrying one Diagnostic (field,
     *         value, constraint, fix hint) per violation -- recoverable,
     *         so a SweepRunner worker reports a bad grid point as that
     *         job's error instead of killing the sweep.
     */
    void validate() const;

    /** validate() without the throw: every violation as a Diagnostic. */
    std::vector<Diagnostic> validateCollect() const;
};

} // namespace ladm

#endif // LADM_CONFIG_SYSTEM_CONFIG_HH
