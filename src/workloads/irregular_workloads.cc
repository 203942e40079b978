/**
 * @file
 * Irregular workload models: graph analytics over synthetic CSR inputs
 * (PageRank, BFS, SSSP, SpMV), the random-locality microbenchmark of
 * Young et al. [84], and the unclassified benchmarks (B+tree, LBM,
 * StreamCluster). Their traces are data-dependent, so each has a custom
 * TraceSource; the kernel descriptors still carry the symbolic index
 * shapes the compiler sees (DataDep terms where indices are opaque).
 */

#include <algorithm>
#include <bit>

#include "common/bitutils.hh"
#include "mem/address.hh"
#include "workloads/catalog.hh"
#include "workloads/csr_walk.hh"
#include "workloads/graph_gen.hh"
#include "workloads/simple_workload.hh"

namespace ladm
{
namespace workloads
{

using namespace dsl;
using detail::SimpleWorkload;
using detail::gtid;
using detail::scaled;

namespace
{

uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Append a sector access, deduplicating against this step's batch. */
void
pushSector(std::vector<MemAccess> &out, Addr addr, bool write)
{
    const Addr sec = sectorBase(addr);
    for (const auto &a : out)
        if (a.addr == sec && a.write == write)
            return;
    out.push_back({sec, write});
}

/** Graph workload: SimpleWorkload plumbing + a CSR walk trace. */
class GraphWorkload : public SimpleWorkload
{
  public:
    GraphWorkload(std::string name, CsrGraph graph, int64_t block_x,
                  bool weighted, bool writes_val)
        : SimpleWorkload(std::move(name), LocalityType::IntraThread),
          graph_(std::move(graph)), weighted_(weighted),
          writesVal_(writes_val)
    {
        const int64_t v = graph_.numVertices;
        const int64_t e = graph_.numEdges();
        argRow_ = addArray(static_cast<Bytes>(v + 1) * 8, "rowptr");
        argCol_ = addArray(static_cast<Bytes>(e) * 4, "colidx");
        argVal_ = addArray(static_cast<Bytes>(v) * 4, "values");
        if (weighted_)
            argWt_ = addArray(static_cast<Bytes>(e) * 4, "weights");
        argOut_ = addArray(static_cast<Bytes>(v) * 4, "out");

        addAccess(argRow_, gtid(), false, 8, AccessFreq::Once,
                  "rowptr[v]");
        addAccess(argCol_, Expr::dataDep() + m, false, 4,
                  AccessFreq::Auto, "col[row[v]+m]");
        if (weighted_)
            addAccess(argWt_, Expr::dataDep() + m, false, 4,
                      AccessFreq::Auto, "wt[row[v]+m]");
        addAccess(argVal_, Expr::dataDep(), writesVal_, 4,
                  AccessFreq::Auto, "val[col[e]]");
        addAccess(argOut_, gtid(), true, 4, AccessFreq::Once, "out[v]");
        setDims(ceilDiv(v, block_x), 1, block_x, 1, 0);
    }

    std::unique_ptr<TraceSource>
    makeTrace(const MallocRegistry &reg) override
    {
        CsrLayout layout;
        layout.rowBase = reg.byPc(argPcs_[argRow_]).base;
        layout.colBase = reg.byPc(argPcs_[argCol_]).base;
        layout.valBase = reg.byPc(argPcs_[argVal_]).base;
        if (weighted_)
            layout.edgeValBase = reg.byPc(argPcs_[argWt_]).base;
        layout.writesVal = writesVal_;
        return std::make_unique<CsrWalkTrace>(graph_, dims_, layout);
    }

  private:
    CsrGraph graph_;
    bool weighted_;
    bool writesVal_;
    int argRow_ = 0, argCol_ = 0, argVal_ = 0, argWt_ = 0, argOut_ = 0;
};

/**
 * Per-warp private random runs with intra-thread spatial + temporal
 * locality (the random_loc microbenchmark of Young et al. [84]): each
 * warp picks a random region, streams through it, then re-walks it.
 * The re-walk is what the L2 can capture -- if home-side REMOTE-LOCAL
 * insertions have not pushed the lines out (the Fig. 11a mechanism).
 */
class RandomLocTrace : public TraceSource
{
  public:
    RandomLocTrace(Addr base, Bytes size, const LaunchDims &dims)
        : base_(base), size_(size), dims_(dims),
          half_(std::max<int64_t>(1, dims.loopTrips / 2))
    {
    }

    bool
    warpStep(TbId tb, int warp, int64_t step,
             std::vector<MemAccess> &out) override
    {
        if (step >= dims_.loopTrips)
            return false;
        const Bytes run = static_cast<Bytes>(half_) * 128;
        const uint64_t h =
            mix((static_cast<uint64_t>(tb) << 8) ^
                static_cast<uint64_t>(warp));
        const Addr start = base_ + (h % ((size_ - run) / kLineSize)) *
                                       kLineSize;
        // One 128B coalesced read per iteration; the second half of the
        // loop revisits the run.
        const Addr a = start + static_cast<Bytes>(step % half_) * 128;
        for (int s = 0; s < 4; ++s)
            out.push_back({a + s * kSectorSize, false});
        return true;
    }

    double instrsPerStep() const override { return 6.0; }

  private:
    Addr base_;
    Bytes size_;
    LaunchDims dims_;
    int64_t half_;
};

class RandomLocWorkload : public SimpleWorkload
{
  public:
    explicit RandomLocWorkload(double scale)
        : SimpleWorkload("Random-loc", LocalityType::IntraThread)
    {
        const int64_t tbs = scaled(4096, scale, 128);
        arg_ = addArray(64ull << 20, "data");
        addAccess(arg_, Expr::dataDep() + m, false, 4, AccessFreq::Auto,
                  "data[base(t)+m]");
        setDims(tbs, 1, 256, 1, 32);
    }

    std::unique_ptr<TraceSource>
    makeTrace(const MallocRegistry &reg) override
    {
        const Allocation &a = reg.byPc(argPcs_[arg_]);
        return std::make_unique<RandomLocTrace>(a.base, a.size, dims_);
    }

  private:
    int arg_ = 0;
};

/** B+tree batched lookups: lanes descend the tree in groups of eight
 *  (sorted query batches share upper levels). */
class BTreeTrace : public TraceSource
{
  public:
    BTreeTrace(Addr nodes, Bytes nodes_size, Addr keys,
               const LaunchDims &dims, int depth)
        : nodes_(nodes), nodesSize_(nodes_size), keys_(keys),
          dims_(dims), depth_(depth)
    {
    }

    bool
    warpStep(TbId tb, int warp, int64_t step,
             std::vector<MemAccess> &out) override
    {
        if (step == 0) {
            const Addr q = keys_ +
                           (tb * dims_.threadsPerTb() +
                            static_cast<int64_t>(warp) * 32) * 4;
            for (int s = 0; s < 4; ++s)
                out.push_back({q + s * kSectorSize, false});
            return true;
        }
        if (step > depth_)
            return false;
        const uint64_t sectors = nodesSize_ / kSectorSize;
        for (int grp = 0; grp < 4; ++grp) {
            const uint64_t h =
                mix((static_cast<uint64_t>(tb) << 16) ^
                    (static_cast<uint64_t>(warp) << 8) ^
                    (static_cast<uint64_t>(step) << 4) ^
                    static_cast<uint64_t>(grp));
            pushSector(out, nodes_ + (h % sectors) * kSectorSize, false);
        }
        return true;
    }

    double instrsPerStep() const override { return 14.0; }

  private:
    Addr nodes_;
    Bytes nodesSize_;
    Addr keys_;
    LaunchDims dims_;
    int depth_;
};

class BTreeWorkload : public SimpleWorkload
{
  public:
    explicit BTreeWorkload(double scale)
        : SimpleWorkload("B+tree", LocalityType::Unclassified)
    {
        const int64_t tbs = scaled(2048, scale, 64);
        argNodes_ = addArray(16ull << 20, "nodes");
        argKeys_ = addArray(static_cast<Bytes>(tbs) * 256 * 4, "keys");
        argOut_ = addArray(static_cast<Bytes>(tbs) * 256 * 4, "out");
        addAccess(argNodes_, Expr::dataDep(), false, 4, AccessFreq::Auto,
                  "node[child]");
        addAccess(argKeys_, gtid(), false, 4, AccessFreq::Once,
                  "keys[q]");
        addAccess(argOut_, gtid(), true, 4, AccessFreq::Once, "out[q]");
        setDims(tbs, 1, 256, 1, 0);
    }

    std::unique_ptr<TraceSource>
    makeTrace(const MallocRegistry &reg) override
    {
        const Allocation &n = reg.byPc(argPcs_[argNodes_]);
        return std::make_unique<BTreeTrace>(
            n.base, n.size, reg.byPc(argPcs_[argKeys_]).base, dims_, 8);
    }

  private:
    int argNodes_ = 0, argKeys_ = 0, argOut_ = 0;
};

/** LBM D3Q19 stream-collide sweep over a structure-of-arrays lattice. */
class LbmTrace : public TraceSource
{
  public:
    LbmTrace(Addr src, Addr dst, Bytes cells, const LaunchDims &dims)
        : src_(src), dst_(dst), cells_(cells), dims_(dims)
    {
    }

    bool
    warpStep(TbId tb, int warp, int64_t step,
             std::vector<MemAccess> &out) override
    {
        if (step > 0)
            return false;
        const int64_t tid0 = tb * dims_.threadsPerTb() +
                             static_cast<int64_t>(warp) * 32;
        const int lanes = static_cast<int>(std::min<int64_t>(
            32, dims_.threadsPerTb() -
                    static_cast<int64_t>(warp) * 32));
        if (lanes <= 0)
            return false;
        const Bytes span = static_cast<Bytes>(lanes) * 4;
        for (int k = 0; k < 19; ++k) {
            const Addr s = src_ + (static_cast<Bytes>(k) * cells_ +
                                   static_cast<Bytes>(tid0)) * 4;
            const Addr d = dst_ + (static_cast<Bytes>(k) * cells_ +
                                   static_cast<Bytes>(tid0)) * 4;
            for (Bytes off = 0; off < span; off += kSectorSize) {
                out.push_back({s + off, false});
                out.push_back({d + off, true});
            }
        }
        return true;
    }

    double instrsPerStep() const override { return 120.0; }

  private:
    Addr src_;
    Addr dst_;
    Bytes cells_;
    LaunchDims dims_;
};

class LbmWorkload : public SimpleWorkload
{
  public:
    explicit LbmWorkload(double scale)
        : SimpleWorkload("LBM", LocalityType::Unclassified)
    {
        const int64_t tbs = scaled(4500, scale, 150);
        cells_ = static_cast<Bytes>(tbs) * 120;
        argSrc_ = addArray(cells_ * 19 * 4, "srcGrid");
        argDst_ = addArray(cells_ * 19 * 4, "dstGrid");
        // The real kernel's indices mix the cell id with an
        // obstacle-dependent displacement: opaque to the analysis.
        addAccess(argSrc_, gtid() + Expr::dataDep(), false, 4,
                  AccessFreq::Auto, "src[cell+disp(k)]");
        addAccess(argDst_, gtid() + Expr::dataDep(), true, 4,
                  AccessFreq::Auto, "dst[cell+disp(k)]");
        setDims(tbs, 1, 120, 1, 0);
    }

    std::unique_ptr<TraceSource>
    makeTrace(const MallocRegistry &reg) override
    {
        return std::make_unique<LbmTrace>(reg.byPc(argPcs_[argSrc_]).base,
                                          reg.byPc(argPcs_[argDst_]).base,
                                          cells_, dims_);
    }

  private:
    Bytes cells_ = 0;
    int argSrc_ = 0, argDst_ = 0;
};

/** StreamCluster: warps stream random point pairs for distance math. */
class StreamClusterTrace : public TraceSource
{
  public:
    StreamClusterTrace(Addr pts, Bytes pts_size, const LaunchDims &dims)
        : pts_(pts), ptsSize_(pts_size), dims_(dims)
    {
    }

    bool
    warpStep(TbId tb, int warp, int64_t step,
             std::vector<MemAccess> &out) override
    {
        if (step >= dims_.loopTrips)
            return false;
        const uint64_t pair = static_cast<uint64_t>(step) / 4;
        const Bytes chunk = 128;
        const uint64_t rows = ptsSize_ / 256; // 64 floats per point
        const uint64_t h = mix((static_cast<uint64_t>(tb) << 16) ^
                               (static_cast<uint64_t>(warp) << 6) ^ pair);
        const Addr p = pts_ + (h % rows) * 256;
        const Addr q = pts_ + (mix(h) % rows) * 256;
        const Bytes off = (static_cast<Bytes>(step) % 4 / 2) * chunk;
        const Addr row = (step % 2 == 0) ? p : q;
        for (Bytes s = 0; s < chunk; s += kSectorSize)
            out.push_back({row + off + s, false});
        return true;
    }

    double instrsPerStep() const override { return 20.0; }

  private:
    Addr pts_;
    Bytes ptsSize_;
    LaunchDims dims_;
};

class StreamClusterWorkload : public SimpleWorkload
{
  public:
    explicit StreamClusterWorkload(double scale)
        : SimpleWorkload("StreamCluster", LocalityType::Unclassified)
    {
        const int64_t tbs = scaled(512, scale, 32);
        arg_ = addArray(16ull << 20, "points");
        // Pair-stride walk from a data-dependent base: unclassified.
        addAccess(arg_, Expr::dataDep() + 2 * m, false, 4,
                  AccessFreq::Auto, "pts[p(t)+2m]");
        setDims(tbs, 1, 512, 1, 16);
    }

    std::unique_ptr<TraceSource>
    makeTrace(const MallocRegistry &reg) override
    {
        const Allocation &a = reg.byPc(argPcs_[arg_]);
        return std::make_unique<StreamClusterTrace>(a.base, a.size,
                                                    dims_);
    }

  private:
    int arg_ = 0;
};

} // namespace

bool
CsrWalkTrace::warpStep(TbId tb, int warp, int64_t step,
                       std::vector<MemAccess> &out)
{
    const int64_t v0 =
        tb * dims_.threadsPerTb() + static_cast<int64_t>(warp) * 32;
    if (v0 >= g_.numVertices)
        return false;
    const int lanes =
        static_cast<int>(std::min<int64_t>(32, g_.numVertices - v0));

    // Dedup strategy per stream: rowptr/col/edge addresses are
    // non-decreasing across lanes (rowPtr is sorted), so duplicate
    // sectors are always adjacent and a compare with the previous
    // sector replaces the hash batch. Only the data-dependent val
    // stream needs real dedup. The streams live in disjoint
    // allocations, so per-stream dedup emits exactly what the
    // all-streams batch did, in the same order.
    if (step == 0) {
        // Coalesced row-pointer reads (8-byte entries).
        Addr prev = kInvalidAddr;
        for (int l = 0; l < lanes; ++l) {
            const Addr sec = sectorBase(layout_.rowBase + (v0 + l) * 8);
            if (sec != prev) {
                out.push_back({sec, false});
                prev = sec;
            }
        }
        return true;
    }

    // Lane l is active while its vertex has an edge m: one branch-free
    // compare per lane builds the mask, so the data-dependent degree
    // test never reaches a branch predictor. The set bits are then
    // walked in ascending lane order, emitting what a per-lane loop
    // that skipped inactive lanes emitted, in the same order.
    const int64_t m = step - 1;
    const int64_t *row = &g_.rowPtr[v0];
    uint32_t active = 0;
    for (int l = 0; l < lanes; ++l)
        active |= static_cast<uint32_t>(m < row[l + 1] - row[l]) << l;
    if (active == 0)
        return false;

    batch_.begin();
    Addr prev_col = kInvalidAddr;
    Addr prev_edge = kInvalidAddr;
    for (; active != 0; active &= active - 1) {
        const int l = std::countr_zero(active);
        const int64_t e = row[l] + m;
        const Addr col_sec = sectorBase(layout_.colBase + e * 4);
        if (col_sec != prev_col) {
            out.push_back({col_sec, false});
            prev_col = col_sec;
        }
        if (layout_.edgeValBase != kInvalidAddr) {
            const Addr edge_sec = sectorBase(layout_.edgeValBase + e * 4);
            if (edge_sec != prev_edge) {
                out.push_back({edge_sec, false});
                prev_edge = edge_sec;
            }
        }
        batch_.push(out, layout_.valBase + g_.colIdx[e] * 4,
                    layout_.writesVal);
    }
    return true;
}

std::unique_ptr<Workload>
makePageRank(double scale)
{
    const int64_t v = scaled(256 * 1024, scale, 8192);
    return std::make_unique<GraphWorkload>(
        "PageRank", makePowerLawGraph(v, 8, 1.2, 0xACCE55), 128,
        /*weighted=*/false, /*writes_val=*/false);
}

std::unique_ptr<Workload>
makeBfsRelax(double scale)
{
    const int64_t v = scaled(512 * 1024, scale, 16384);
    return std::make_unique<GraphWorkload>(
        "BFS-relax", makeUniformGraph(v, 8, 0xBF5BF5), 256,
        /*weighted=*/false, /*writes_val=*/true);
}

std::unique_ptr<Workload>
makeSssp(double scale)
{
    const int64_t v = scaled(256 * 1024, scale, 8192);
    return std::make_unique<GraphWorkload>(
        "SSSP", makePowerLawGraph(v, 16, 1.1, 0x555B), 64,
        /*weighted=*/true, /*writes_val=*/true);
}

std::unique_ptr<Workload>
makeSpmvJds(double scale)
{
    // Sparse matrix-vector product: per-thread row walk with a parallel
    // matrix-value array and random x gathers -- structurally the
    // weighted CSR walk.
    const int64_t rows = scaled(128 * 1024, scale, 4096);
    auto w = std::make_unique<GraphWorkload>(
        "SpMV-jds", makePowerLawGraph(rows, 16, 0.8, 0x5B3D), 32,
        /*weighted=*/true, /*writes_val=*/false);
    return w;
}

std::unique_ptr<Workload>
makeRandomLoc(double scale)
{
    return std::make_unique<RandomLocWorkload>(scale);
}

std::unique_ptr<Workload>
makeBPlusTree(double scale)
{
    return std::make_unique<BTreeWorkload>(scale);
}

std::unique_ptr<Workload>
makeLbm(double scale)
{
    return std::make_unique<LbmWorkload>(scale);
}

std::unique_ptr<Workload>
makeStreamCluster(double scale)
{
    return std::make_unique<StreamClusterWorkload>(scale);
}

} // namespace workloads
} // namespace ladm
