/**
 * @file
 * BandwidthServer: the timing primitive behind every bandwidth-limited
 * resource in the model (DRAM channels, ring segments, switch links).
 *
 * A transfer of S bytes occupies the resource for S / bytesPerCycle
 * cycles; back-to-back transfers queue behind the server's next-free
 * time. This simple M/D/1-style server reproduces the first-order
 * contention behaviour the paper's bandwidth-sensitivity results (Fig. 4)
 * depend on.
 *
 * IMPORTANT ordering contract: book() must be called with monotonically
 * non-decreasing `now` values. The memory system guarantees this by
 * booking *every* resource along an access's path at the access's issue
 * time (the execution engine processes events in global time order).
 * Booking at downstream arrival times instead would interleave
 * timestamps out of order and make max(now, nextFree) manufacture
 * phantom serialization.
 */

#ifndef LADM_COMMON_BANDWIDTH_SERVER_HH
#define LADM_COMMON_BANDWIDTH_SERVER_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"

namespace ladm
{

class BandwidthServer
{
  public:
    BandwidthServer() : BandwidthServer(1.0, 0) {}

    /**
     * @param bytes_per_cycle service rate; must be > 0
     * @param latency         fixed pipeline latency added to every transfer
     */
    BandwidthServer(double bytes_per_cycle, Cycles latency)
        : bytesPerCycle_(bytes_per_cycle), latency_(latency)
    {
        ladm_assert(bytes_per_cycle > 0.0, "bandwidth must be positive");
        for (size_t i = 0; i < kQuotients; ++i)
            quot_[i] = static_cast<double>(i * kQuotientStep) /
                       bytesPerCycle_;
    }

    /**
     * Reserve capacity for a transfer of @p bytes issued at @p now.
     *
     * @return the delay this resource contributes: queueing behind
     *         earlier transfers + service time + fixed latency.
     *         Every fabric hop, DRAM and crossbar access books here, so
     *         it is forced inline into each caller.
     */
    [[gnu::always_inline]] Cycles
    book(Cycles now, Bytes bytes)
    {
        const Cycles start = std::max(now, nextFree_);
        // Accumulate fractional cycles so narrow links are not quantized
        // to zero cost per sector.
        fracBusy_ += serviceFrac(bytes);
        // fracBusy_ < 2^63, so truncating through int64_t is exact and
        // avoids the branchy unsigned conversion.
        const Cycles busy =
            static_cast<Cycles>(static_cast<int64_t>(fracBusy_));
        fracBusy_ -= static_cast<double>(busy);
        nextFree_ = start + busy;
        totalBytes_ += bytes;
        busyCycles_ += busy;
        return (start - now) + busy + latency_;
    }

    /** Convenience: completion cycle of a transfer issued at @p now. */
    Cycles
    transfer(Cycles now, Bytes bytes)
    {
        return now + book(now, bytes);
    }

    /** Earliest cycle a new transfer could begin. */
    Cycles nextFree() const { return nextFree_; }

    Bytes totalBytes() const { return totalBytes_; }
    Cycles busyCycles() const { return busyCycles_; }

    /** Fixed pipeline latency every transfer pays (the PDES lookahead
     *  floor for cross-node links). */
    Cycles latency() const { return latency_; }

    /**
     * Full reset: timing state AND statistics. Only correct when
     * simulated time itself restarts at 0 (a fresh experiment); resetting
     * mid-run warps link availability back to cycle 0 and lets the next
     * transfer start in the past. For a measurement-window boundary use
     * resetStats().
     */
    void
    reset()
    {
        nextFree_ = 0;
        fracBusy_ = 0.0;
        resetStats();
    }

    /**
     * Clear the statistics (byte/busy counters) while PRESERVING the
     * timing state (nextFree_, fracBusy_): a measurement-window reset
     * must not make an occupied link look idle, nor may utilization
     * accumulated before the window leak into it.
     */
    void
    resetStats()
    {
        totalBytes_ = 0;
        busyCycles_ = 0;
    }

    /**
     * Checkpoint timing + byte counters (snapshot/component_state.cc).
     * The quotient table is NOT serialized: it is derived purely from
     * the configured rate.
     */
    template <class Ar> void io(Ar &ar);

  private:
    static constexpr Bytes kQuotientStep = 8;
    static constexpr size_t kQuotients = 17; ///< 0, 8, ..., 128 bytes

    /**
     * Service time in fractional cycles for @p bytes. The fabric's
     * 8-byte requests and 32-byte replies, and every sector-sized
     * transfer, read the quotient from a table filled at construction;
     * other sizes divide. IEEE-754 division is deterministic -- same
     * operands, same result -- so the table holds exactly the quotient
     * a division would give, and the lookup has no data-dependent
     * branch however the sizes interleave.
     */
    double
    serviceFrac(Bytes bytes) const
    {
        if (bytes % kQuotientStep == 0 &&
            bytes / kQuotientStep < kQuotients) [[likely]]
            return quot_[bytes / kQuotientStep];
        return static_cast<double>(bytes) / bytesPerCycle_;
    }

    double bytesPerCycle_ = 1.0;
    Cycles latency_ = 0;
    Cycles nextFree_ = 0;
    double fracBusy_ = 0.0;
    Bytes totalBytes_ = 0;
    Cycles busyCycles_ = 0;
    double quot_[kQuotients];
};

} // namespace ladm

#endif // LADM_COMMON_BANDWIDTH_SERVER_HH
