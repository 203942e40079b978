#include "serve/decision.hh"

#include "cache/insertion_policy.hh"
#include "common/serial.hh"
#include "compiler/parser.hh"
#include "config/presets.hh"
#include "mem/page_table.hh"
#include "runtime/ladm_runtime.hh"
#include "runtime/malloc_registry.hh"
#include "snapshot/snapshot.hh"

namespace ladm
{
namespace serve
{

namespace
{

/** Default allocation size when the request omits argBytes entries:
 *  one element per thread, the common dense-kernel shape. */
uint64_t
defaultArgBytes(const LaunchDims &dims)
{
    const int64_t threads = dims.numTbs() * dims.threadsPerTb();
    return static_cast<uint64_t>(threads > 0 ? threads : 1) * 4;
}

} // namespace

void
PlacementRequest::encode(ByteWriter &w) const
{
    w.str(kernelSource);
    w.str(topology);
    w.i64(dims.grid.x);
    w.i64(dims.grid.y);
    w.i64(dims.block.x);
    w.i64(dims.block.y);
    w.i64(dims.loopTrips);
    w.u32(static_cast<uint32_t>(argBytes.size()));
    for (uint64_t b : argBytes)
        w.u64(b);
    w.u32(deadlineUs);
}

PlacementRequest
PlacementRequest::decode(ByteReader &r)
{
    PlacementRequest req;
    req.kernelSource = r.str();
    req.topology = r.str();
    req.dims.grid.x = r.i64();
    req.dims.grid.y = r.i64();
    req.dims.block.x = r.i64();
    req.dims.block.y = r.i64();
    req.dims.loopTrips = r.i64();
    const uint32_t n = r.count(sizeof(uint64_t));
    req.argBytes.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        req.argBytes.push_back(r.u64());
    req.deadlineUs = r.u32();
    return req;
}

std::string
PlacementDecision::encode() const
{
    ByteWriter w;
    w.u64(key.irHash);
    w.u64(key.fingerprint);
    w.str(scheduler);
    w.u8(policy);
    w.str(schedulerReason);
    w.u32(static_cast<uint32_t>(args.size()));
    for (const ArgDecision &a : args) {
        w.u8(a.tableRow);
        w.str(a.note);
    }
    return w.take();
}

PlacementDecision
PlacementDecision::decode(std::string_view bytes)
{
    ByteReader r(bytes);
    PlacementDecision d;
    d.key.irHash = r.u64();
    d.key.fingerprint = r.u64();
    d.scheduler = r.str();
    d.policy = r.u8();
    d.schedulerReason = r.str();
    const uint32_t n = r.count(1 + sizeof(uint32_t)); // row + note length
    d.args.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        ArgDecision a;
        a.tableRow = r.u8();
        a.note = r.str();
        d.args.push_back(std::move(a));
    }
    return d;
}

std::string
decisionReply(std::string_view encoded, bool degraded, bool cached)
{
    ByteWriter w;
    w.u8(degraded ? 1 : 0);
    w.u8(cached ? 1 : 0);
    w.str(encoded);
    return w.take();
}

uint64_t
requestIrHash(const PlacementRequest &req)
{
    // Kernel text and argument sizes hash without length prefixes: the
    // key journals were written under.
    serial::Hasher h;
    h.bytes(req.kernelSource.data(), req.kernelSource.size());
    h(req.dims.grid.x, req.dims.grid.y, req.dims.block.x, req.dims.block.y,
      req.dims.loopTrips);
    h.bytes(req.argBytes.data(), req.argBytes.size() * sizeof(uint64_t));
    // deadlineUs deliberately excluded: the decision does not depend on
    // how long the caller is willing to wait for it.
    return h.value();
}

SystemConfig
resolveTopology(const std::string &name, const std::string &fallback)
{
    const std::string &n = name.empty() ? fallback : name;
    if (n == "multi-gpu-4x4")
        return presets::multiGpu4x4();
    if (n == "monolithic-256")
        return presets::monolithic256();
    if (n == "dgx-4")
        return presets::dgx4();
    throw SimError(SimError::Kind::Usage, "unknown topology preset",
                   {{"request.topology", n,
                     "must be one of multi-gpu-4x4, monolithic-256, "
                     "dgx-4 (or empty for the server default)",
                     "name a known preset",
                     ErrCode::BadRequest}});
}

PlacementDecision
computeDecision(const PlacementRequest &req, const SystemConfig &cfg)
{
    const KernelDesc kernel = parseKernel(req.kernelSource);
    if (!req.argBytes.empty() &&
        static_cast<int>(req.argBytes.size()) != kernel.numArgs) {
        throw SimError(
            SimError::Kind::Usage, "argBytes does not match the kernel",
            {{"request.argBytes", std::to_string(req.argBytes.size()),
              "must be empty or have exactly one entry per kernel "
              "parameter (" +
                  std::to_string(kernel.numArgs) + ")",
              "send one allocation size per kernel argument",
              ErrCode::BadRequest}});
    }
    if (req.dims.numTbs() <= 0 || req.dims.threadsPerTb() <= 0) {
        throw SimError(SimError::Kind::Usage, "empty launch geometry",
                       {{"request.dims",
                         std::to_string(req.dims.numTbs()) + " TBs x " +
                             std::to_string(req.dims.threadsPerTb()) +
                             " threads",
                         "grid and block extents must be positive",
                         "send the real launch dims",
                         ErrCode::BadRequest}});
    }

    // Synthesize the runtime-side state the driver would hold at launch:
    // one registered allocation per pointer argument.
    MallocRegistry reg(cfg.pageSize);
    std::vector<uint64_t> arg_pcs;
    arg_pcs.reserve(kernel.numArgs);
    for (int arg = 0; arg < kernel.numArgs; ++arg) {
        const uint64_t bytes = arg < static_cast<int>(req.argBytes.size())
                                   ? std::max<uint64_t>(req.argBytes[arg], 1)
                                   : defaultArgBytes(req.dims);
        const uint64_t pc = 0x1000 + arg;
        reg.mallocManaged(pc, bytes, "arg" + std::to_string(arg));
        arg_pcs.push_back(pc);
    }

    PageTable pt(cfg.pageSize);
    LadmRuntime rt(cfg);
    rt.compile(kernel);
    const LaunchPlan plan =
        rt.prepareLaunch(kernel, req.dims, arg_pcs, reg, pt);

    PlacementDecision d;
    d.key.irHash = requestIrHash(req);
    d.key.fingerprint = snapshot::configFingerprint(cfg);
    d.scheduler = plan.scheduler ? plan.scheduler->name() : "none";
    d.policy = plan.policy == L2InsertPolicy::ROnce ? 1 : 0;
    d.schedulerReason = plan.schedulerReason;
    d.args.reserve(kernel.numArgs);
    for (int arg = 0; arg < kernel.numArgs; ++arg) {
        PlacementDecision::ArgDecision a;
        const auto cls = rt.table().argSummary(kernel.name, arg);
        a.tableRow =
            cls ? static_cast<uint8_t>(tableRow(cls->type)) : 0;
        a.note = arg < static_cast<int>(plan.notes.size())
                     ? plan.notes[arg]
                     : "";
        d.args.push_back(std::move(a));
    }
    return d;
}

PlacementDecision
heuristicDecision(const PlacementRequest &req, const SystemConfig &cfg)
{
    PlacementDecision d;
    d.key.irHash = requestIrHash(req);
    d.key.fingerprint = snapshot::configFingerprint(cfg);
    // Closed-form rule: no classification, no parsing. 2-D grids keep
    // adjacency with kernel-wide contiguous chunks; 1-D grids spread
    // bandwidth with page round-robin. RTWICE is the safe CRB default
    // (RONCE only ever wins for ITL kernels, which we cannot detect
    // without the classifier).
    const bool grid2d = req.dims.is2d();
    d.scheduler = grid2d ? "kernel-wide" : "batched-rr";
    d.policy = 0; // RTWICE
    d.schedulerReason =
        "degraded heuristic: classifier unavailable; grid-shape default";
    const int nargs = static_cast<int>(req.argBytes.size());
    d.args.reserve(nargs);
    for (int arg = 0; arg < nargs; ++arg) {
        PlacementDecision::ArgDecision a;
        a.tableRow = 0;
        a.note = "arg" + std::to_string(arg) +
                 (grid2d ? ": kernel-wide contiguous chunks across " +
                               std::to_string(cfg.numNodes()) + " nodes"
                         : ": page round-robin interleave across " +
                               std::to_string(cfg.numNodes()) + " nodes");
        d.args.push_back(std::move(a));
    }
    return d;
}

} // namespace serve
} // namespace ladm
