#include "workloads/graph_gen.hh"

#include "common/logging.hh"
#include "common/rng.hh"

namespace ladm
{

CsrGraph
makePowerLawGraph(int64_t vertices, int64_t avg_degree, double alpha,
                  uint64_t seed)
{
    ladm_assert(vertices > 0 && avg_degree > 0, "bad graph parameters");
    Rng rng(seed);
    CsrGraph g;
    g.numVertices = vertices;
    g.rowPtr.resize(vertices + 1, 0);

    // Draw degrees from a bounded Zipf and rescale to hit the target mean.
    std::vector<int32_t> deg(vertices);
    const uint64_t max_deg =
        static_cast<uint64_t>(avg_degree) * 16 + 1;
    uint64_t total = 0;
    for (int64_t v = 0; v < vertices; ++v) {
        deg[v] = static_cast<int32_t>(rng.nextZipf(max_deg, alpha)) + 1;
        total += deg[v];
    }
    const double ratio =
        static_cast<double>(avg_degree) * vertices / total;
    int64_t edges = 0;
    for (int64_t v = 0; v < vertices; ++v) {
        int64_t d = static_cast<int64_t>(deg[v] * ratio);
        if (d < 1)
            d = 1;
        g.rowPtr[v + 1] = g.rowPtr[v] + d;
        edges += d;
    }

    g.colIdx.resize(edges);
    const auto bound = static_cast<uint64_t>(vertices);
    const uint64_t threshold = Rng::rejectionThreshold(bound);
    for (int64_t e = 0; e < edges; ++e)
        g.colIdx[e] =
            static_cast<int64_t>(rng.nextBounded(bound, threshold));
    return g;
}

CsrGraph
makeUniformGraph(int64_t vertices, int64_t avg_degree, uint64_t seed)
{
    ladm_assert(vertices > 0 && avg_degree > 0, "bad graph parameters");
    Rng rng(seed);
    CsrGraph g;
    g.numVertices = vertices;
    g.rowPtr.resize(vertices + 1);
    for (int64_t v = 0; v <= vertices; ++v)
        g.rowPtr[v] = v * avg_degree;
    g.colIdx.resize(vertices * avg_degree);
    const auto bound = static_cast<uint64_t>(vertices);
    const uint64_t threshold = Rng::rejectionThreshold(bound);
    for (auto &c : g.colIdx)
        c = static_cast<int64_t>(rng.nextBounded(bound, threshold));
    return g;
}

} // namespace ladm
