/**
 * @file
 * A named unidirectional link: bandwidth server + fixed latency, with byte
 * accounting for the traffic reports.
 */

#ifndef LADM_INTERCONNECT_LINK_HH
#define LADM_INTERCONNECT_LINK_HH

#include <functional>
#include <string>

#include "common/bandwidth_server.hh"
#include "common/types.hh"
#include "telemetry/stat_registry.hh"

namespace ladm
{

class Link
{
  public:
    Link() = default;

    Link(std::string name, double bytes_per_cycle, Cycles latency)
        : name_(std::move(name)), server_(bytes_per_cycle, latency)
    {
    }

    /**
     * Reserve capacity for @p bytes issued at @p now; returns the delay
     * this link contributes (see BandwidthServer ordering contract).
     */
    [[gnu::always_inline]] Cycles
    book(Cycles now, Bytes bytes)
    {
        return server_.book(now, bytes);
    }

    Bytes bytesSent() const { return server_.totalBytes(); }
    Cycles busyCycles() const { return server_.busyCycles(); }
    const std::string &name() const { return name_; }

    /**
     * Publish byte/busy counters under "<prefix>.<link name>", plus a
     * utilization formula (busy cycles / elapsed cycles) when a @p now
     * provider is given.
     */
    void
    registerStats(telemetry::StatRegistry &reg, const std::string &prefix,
                  const std::function<Cycles()> &now = {}) const
    {
        const std::string path = prefix + "." + name_;
        reg.gauge(path + ".bytes",
                  [this] { return static_cast<double>(bytesSent()); },
                  StatKind::Counter);
        reg.gauge(path + ".busy_cycles",
                  [this] { return static_cast<double>(busyCycles()); },
                  StatKind::Counter);
        if (now) {
            reg.formula(path + ".utilization", [this, now] {
                const Cycles t = now();
                return t ? static_cast<double>(busyCycles()) / t : 0.0;
            });
        }
    }

    void reset() { server_.reset(); }
    /** Clear byte/busy counters, keeping the server's timing state. */
    void resetStats() { server_.resetStats(); }
    /** Fixed traversal latency of this link. */
    Cycles latency() const { return server_.latency(); }

    /** Checkpoint the underlying server (snapshot/component_state.cc). */
    template <class Ar> void io(Ar &ar);

  private:
    std::string name_;
    BandwidthServer server_{1.0, 0};
};

} // namespace ladm

#endif // LADM_INTERCONNECT_LINK_HH
