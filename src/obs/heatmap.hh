/**
 * @file
 * Locality heatmaps: which (requester-chiplet x home-chiplet) pairs and
 * which pages carry the fetch traffic. The matrix is exact and tiny
 * (nodes^2 counters); per-page counts live in a capped hash map whose
 * overflow is counted, never silently dropped. Datablock attribution
 * happens at collection time by mapping page addresses back through the
 * run's allocations, so the record path stays two increments.
 *
 * Conservation: every recordFetch() mirrors exactly one fetchLocal/
 * fetchRemote increment in MemorySystem::access(), so the matrix
 * diagonal row-sums to fetch_local and the off-diagonal to fetch_remote
 * bit-exactly (the property tests/test_obs.cc pins down).
 */

#ifndef LADM_OBS_HEATMAP_HH
#define LADM_OBS_HEATMAP_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace ladm
{
namespace obs
{

/** Identity of one allocation for page->datablock attribution. */
struct BlockInfo
{
    std::string name;
    Addr base = 0;
    Bytes size = 0;
};

class LocalityHeatmap
{
  public:
    LocalityHeatmap(int num_nodes, Bytes page_size,
                    size_t max_pages = size_t{1} << 20);

    /** Hot-path hook: mirrors one fetch-counter increment. */
    void
    recordFetch(NodeId requester, NodeId home, Addr addr)
    {
        ++matrix_[static_cast<size_t>(requester) * nodes_ + home];
        const Addr page = addr / pageSize_ * pageSize_;
        auto it = pages_.find(page);
        if (it == pages_.end()) {
            if (pages_.size() >= maxPages_) {
                ++droppedPageFetches_;
                return;
            }
            it = pages_.emplace(page, PageStats{}).first;
        }
        PageStats &p = it->second;
        ++p.fetches;
        p.home = home;
        if (requester != home)
            ++p.remoteFetches;
    }

    struct PageStats
    {
        uint64_t fetches = 0;
        uint64_t remoteFetches = 0;
        NodeId home = 0;
    };

    struct HotPage
    {
        Addr page = 0;
        PageStats stats;
    };

    /** Per-datablock aggregate (pages mapped back through allocations). */
    struct BlockStats
    {
        std::string name;
        uint64_t fetches = 0;
        uint64_t remoteFetches = 0;
        uint64_t pages = 0;
    };

    int numNodes() const { return nodes_; }
    uint64_t cell(NodeId requester, NodeId home) const
    {
        return matrix_[static_cast<size_t>(requester) * nodes_ + home];
    }
    const std::vector<uint64_t> &matrix() const { return matrix_; }
    /** Fetches by requester r that stayed on-chiplet (diagonal). */
    uint64_t localFetches(NodeId r) const { return cell(r, r); }
    /** Fetches by requester r that crossed a chiplet boundary. */
    uint64_t remoteFetches(NodeId r) const;
    uint64_t totalFetches() const;
    /** Fetches not attributed to a page because the page map was full. */
    uint64_t droppedPageFetches() const { return droppedPageFetches_; }
    size_t trackedPages() const { return pages_.size(); }

    /** The k most-fetched pages, descending. */
    std::vector<HotPage> topPages(size_t k) const;

    /** Aggregate page counts into the given allocations; pages outside
     *  every allocation land in a trailing "(unattributed)" row. */
    std::vector<BlockStats>
    blockStats(const std::vector<BlockInfo> &blocks) const;

    /** Name of the block containing @p page, empty when none does. */
    static const BlockInfo *
    findBlock(const std::vector<BlockInfo> &blocks, Addr page);

    void reset();

  private:
    int nodes_;
    Bytes pageSize_;
    size_t maxPages_;
    std::vector<uint64_t> matrix_; ///< nodes_ x nodes_, row = requester
    std::unordered_map<Addr, PageStats> pages_;
    uint64_t droppedPageFetches_ = 0;
};

} // namespace obs
} // namespace ladm

#endif // LADM_OBS_HEATMAP_HH
