/**
 * @file
 * Per-node HBM model: a bandwidth server with fixed access latency.
 */

#ifndef LADM_MEM_DRAM_HH
#define LADM_MEM_DRAM_HH

#include "common/bandwidth_server.hh"
#include "common/types.hh"

namespace ladm
{

class Dram
{
  public:
    /**
     * @param bytes_per_cycle service bandwidth
     * @param latency         row access latency in cycles
     */
    Dram(double bytes_per_cycle, Cycles latency)
        : server_(bytes_per_cycle, latency)
    {
    }

    /**
     * Reserve capacity for an access of @p bytes issued at @p now;
     * returns the delay it contributes (queue + service + row latency).
     */
    [[gnu::always_inline]] Cycles
    book(Cycles now, Bytes bytes)
    {
        ++accesses_;
        return server_.book(now, bytes);
    }

    uint64_t accesses() const { return accesses_; }
    Bytes bytesServed() const { return server_.totalBytes(); }
    Cycles busyCycles() const { return server_.busyCycles(); }

    void
    reset()
    {
        server_.reset();
        accesses_ = 0;
    }

    /** Clear access/byte/busy counters, keeping channel timing state. */
    void
    resetStats()
    {
        server_.resetStats();
        accesses_ = 0;
    }

    /** Checkpoint channel timing + counters (snapshot/component_state.cc). */
    template <class Ar> void io(Ar &ar);

  private:
    BandwidthServer server_;
    uint64_t accesses_ = 0;
};

} // namespace ladm

#endif // LADM_MEM_DRAM_HH
