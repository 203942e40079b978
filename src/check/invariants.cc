#include "check/invariants.hh"

#include <atomic>
#include <cstdio>
#include <exception>

#include "config/options.hh"

namespace ladm
{
namespace check
{

namespace
{

// -1 / 0 until first read from the option table; atomic because sweep
// workers ask concurrently.
std::atomic<int> g_enabled{-1};
std::atomic<uint64_t> g_watchdog{0};

} // namespace

bool
enabled()
{
    if (g_enabled.load(std::memory_order_relaxed) < 0)
        g_enabled.store(opt::on(opt::kCheck), std::memory_order_relaxed);
    return g_enabled.load(std::memory_order_relaxed) > 0;
}

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

uint64_t
watchdogLimit()
{
    // A healthy kernel advances time every O(warp-slot) events; one
    // million zero-progress events is far past any legitimate burst of
    // same-cycle wakeups yet fires within a second of wall-clock.
    if (g_watchdog.load(std::memory_order_relaxed) == 0)
        g_watchdog.store(opt::whole(opt::kCheckWatchdog, 1'000'000),
                         std::memory_order_relaxed);
    return g_watchdog.load(std::memory_order_relaxed);
}

void
setWatchdogLimit(uint64_t events)
{
    g_watchdog.store(events ? events : 1, std::memory_order_relaxed);
}

int
runMain(const std::function<int()> &body)
{
    try {
        return body();
    } catch (const SimError &e) {
        std::fprintf(stderr, "%s", e.report().c_str());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

} // namespace check
} // namespace ladm
