/**
 * @file
 * ladm::check -- the opt-in runtime invariant suite.
 *
 * The simulator's bookkeeping (MSHR maps, page homes, TB dispatch
 * accounting, link-bandwidth servers) has to police itself: a silent
 * inconsistency corrupts every figure downstream. The checks are
 * conservation and liveness properties evaluated at cheap boundaries
 * (kernel drain, scheduler output) plus a no-progress watchdog inside
 * the engine's event loop.
 *
 * Enabling: `--check` / `LADM_CHECK=1` (config/options.hh), or
 * check::setEnabled(true) from code. Disabled (the default) every hook
 * compiles to one predicate on a cached bool -- the same zero-cost
 * pattern the telemetry sinks use -- so tier-1 wall-clock is unaffected.
 *
 * Failures throw InvariantViolation with structured Diagnostics; the
 * GpuSystem layer additionally dumps the machine's full stat tree (the
 * telemetry registry) to stderr so a hung or leaking run leaves a
 * post-mortem behind.
 */

#ifndef LADM_CHECK_INVARIANTS_HH
#define LADM_CHECK_INVARIANTS_HH

#include <cstdint>
#include <functional>

#include "common/sim_error.hh"

namespace ladm
{
namespace check
{

/** True when the invariant suite is armed (--check / LADM_CHECK). */
bool enabled();

/** Arm/disarm programmatically (overrides the option). */
void setEnabled(bool on);

/** RAII arm/disarm for tests. */
class ScopedEnable
{
  public:
    explicit ScopedEnable(bool on = true) : prev_(enabled())
    {
        setEnabled(on);
    }
    ~ScopedEnable() { setEnabled(prev_); }

    ScopedEnable(const ScopedEnable &) = delete;
    ScopedEnable &operator=(const ScopedEnable &) = delete;

  private:
    bool prev_;
};

/**
 * No-progress watchdog threshold: the engine aborts when this many
 * consecutive events fire without simulated time advancing (a healthy
 * kernel advances time at least every few hundred events; see
 * docs/robustness.md for tuning). --check-watchdog /
 * LADM_CHECK_WATCHDOG overrides.
 */
uint64_t watchdogLimit();
void setWatchdogLimit(uint64_t events);

/**
 * Entry-point guard: run @p body, catching SimError into a structured
 * report on stderr and any other exception into a one-line error, and
 * map both to exit status 1. Keeps a bad config from turning into an
 * unreadable std::terminate backtrace in the examples.
 */
int runMain(const std::function<int()> &body);

} // namespace check
} // namespace ladm

#endif // LADM_CHECK_INVARIANTS_HH
