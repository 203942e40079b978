#include "config/system_config.hh"

#include "check/fault_plan.hh"
#include "common/bitutils.hh"
#include "config/options.hh"

namespace ladm
{

TelemetryOptions
TelemetryOptions::resolve()
{
    TelemetryOptions o;
    o.statsJsonPath = opt::str(opt::kStatsJson);
    o.statsCsvPath = opt::str(opt::kStatsCsv);
    o.statsTextPath = opt::str(opt::kStatsText);
    o.traceOutPath = opt::str(opt::kTraceOut);
    o.traceSampleEvery = static_cast<uint32_t>(
        opt::whole(opt::kTraceSample, o.traceSampleEvery));
    o.traceMaxEvents = opt::whole(opt::kTraceMaxEvents, o.traceMaxEvents);
    o.timelineOutPath = opt::str(opt::kTimelineOut);
    o.timelineWindowCycles =
        opt::whole(opt::kTimelineWindow, o.timelineWindowCycles);
    o.timelineMaxWindows = static_cast<uint32_t>(
        opt::whole(opt::kTimelineMaxWindows, o.timelineMaxWindows));
    o.timelinePaths = opt::str(opt::kTimelinePaths);
    o.obsAttribution = opt::on(opt::kObsAttribution);
    o.obsHeatmap = opt::on(opt::kObsHeatmap);
    o.obsHotPages =
        static_cast<uint32_t>(opt::whole(opt::kObsHotPages, o.obsHotPages));
    return o;
}

int
SystemConfig::resolvedShards() const
{
    const uint64_t n = shards > 0 ? static_cast<uint64_t>(shards)
                                  : opt::whole(opt::kShards, 1);
    if (n < 1)
        return 1;
    const uint64_t cap = static_cast<uint64_t>(numNodes());
    return static_cast<int>(n < cap ? n : cap);
}

std::vector<Diagnostic>
SystemConfig::validateCollect() const
{
    std::vector<Diagnostic> diags;
    auto bad = [&](const char *field, const std::string &value,
                   const std::string &constraint, const std::string &hint) {
        diags.push_back({std::string("system.") + field, value, constraint,
                         hint});
    };
    auto positiveCount = [&](const char *field, int v,
                             const char *what) {
        if (v < 1) {
            bad(field, std::to_string(v), "must be >= 1",
                std::string("a machine needs at least one ") + what);
        }
    };
    auto positiveBw = [&](const char *field, double v) {
        if (v <= 0.0) {
            bad(field, std::to_string(v),
                "bandwidth must be > 0 GB/s",
                "zero or negative bandwidth makes transfer time "
                "undefined; pick a positive figure");
        }
    };

    positiveCount("numGpus", numGpus, "GPU");
    positiveCount("chipletsPerGpu", chipletsPerGpu, "chiplet per GPU");
    positiveCount("smsPerChiplet", smsPerChiplet, "SM per chiplet");
    positiveCount("dramChannelsPerChiplet", dramChannelsPerChiplet,
                  "HBM pseudo-channel");

    if (numGpus >= 1 && chipletsPerGpu >= 1 && smsPerChiplet >= 1) {
        if (topology == Topology::Monolithic && numNodes() != 1) {
            bad("topology", "Monolithic",
                "monolithic topology requires exactly one node, got " +
                    std::to_string(numNodes()),
                "set numGpus = chipletsPerGpu = 1 (fold the SMs into "
                "smsPerChiplet) or pick a NUMA topology");
        }
        if (topology == Topology::Hierarchical && chipletsPerGpu < 2) {
            bad("topology", "Hierarchical",
                "hierarchical topology needs >= 2 chiplets per GPU for "
                "the package ring",
                "raise chipletsPerGpu, or use Crossbar for flat "
                "multi-GPU machines");
        }
        if (topology == Topology::Ring && numNodes() < 2) {
            bad("topology", "Ring", "a ring needs >= 2 nodes",
                "raise numGpus or chipletsPerGpu, or use Monolithic");
        }
    }

    if (!isPowerOfTwo(pageSize) || pageSize < kLineSize) {
        bad("pageSize", std::to_string(pageSize),
            "interleave granularity must be a power of two >= the " +
                std::to_string(kLineSize) + "-byte line",
            "use 4096 (or another power of two)");
    }
    if (l1Assoc < 1 || l2Assoc < 1) {
        bad("l1Assoc/l2Assoc",
            std::to_string(l1Assoc) + "/" + std::to_string(l2Assoc),
            "cache associativity must be >= 1", "use a direct-mapped (1) "
            "or set-associative (>1) figure");
    }
    if (l2Assoc >= 1 &&
        l2SizePerChiplet % (static_cast<Bytes>(l2Assoc) * kLineSize) !=
            0) {
        bad("l2SizePerChiplet", std::to_string(l2SizePerChiplet),
            "L2 size must divide evenly into assoc * line sets",
            "make it a multiple of l2Assoc * " +
                std::to_string(kLineSize));
    }
    if (clockGhz <= 0.0) {
        bad("clockGhz", std::to_string(clockGhz), "clock must be > 0",
            "set the core clock in GHz, e.g. 1.4");
    }
    positiveBw("memBwPerChipletGBs", memBwPerChipletGBs);
    positiveBw("intraChipletXbarGBs", intraChipletXbarGBs);
    positiveBw("interChipletRingGBs", interChipletRingGBs);
    positiveBw("interGpuLinkGBs", interGpuLinkGBs);
    positiveBw("monolithicXbarGBs", monolithicXbarGBs);
    if (hbmCapacityPerNode > 0)
        positiveBw("hostLinkGBs", hostLinkGBs);
    if (warpSize < 1 || warpSlotsPerSm < 1 || maxResidentTbsPerSm < 1) {
        bad("warpSize/warpSlotsPerSm/maxResidentTbsPerSm",
            std::to_string(warpSize) + "/" +
                std::to_string(warpSlotsPerSm) + "/" +
                std::to_string(maxResidentTbsPerSm),
            "warp and residency parameters must be >= 1",
            "typical values: warpSize 32, warpSlotsPerSm 64, "
            "maxResidentTbsPerSm 16");
    }
    if (warpPipelineDepth < 1) {
        bad("warpPipelineDepth", std::to_string(warpPipelineDepth),
            "pipeline depth must be >= 1 (1 = fully blocking)",
            "use 1-4");
    }
    if (shards < 0) {
        bad("shards", std::to_string(shards),
            "shard count must be >= 0 (0 = resolve from LADM_SHARDS)",
            "use 1 for the serial reference or 2+ for the PDES engine");
    }

    if (!faultSpec.empty()) {
        try {
            const check::FaultPlan plan = check::FaultPlan::parse(
                faultSpec);
            for (Diagnostic &d : plan.validateAgainst(*this))
                diags.push_back(std::move(d));
        } catch (const SimError &e) {
            for (const Diagnostic &d : e.diagnostics())
                diags.push_back(d);
        }
    }
    return diags;
}

void
SystemConfig::validate() const
{
    std::vector<Diagnostic> diags = validateCollect();
    if (!diags.empty()) {
        throw SimError(SimError::Kind::Config,
                       "system '" + name + "' failed validation",
                       std::move(diags));
    }
}

} // namespace ladm
