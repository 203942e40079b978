/**
 * @file
 * Client side of the placement-advisor protocol: a blocking connection
 * plus the retry loop a robust caller needs.
 *
 * Deadline propagation: the request's deadlineUs rides inside the Place
 * frame (the server enforces it) AND bounds the client's own socket
 * read, so a dead server surfaces as a timeout at the same horizon the
 * caller asked for, not a hang. The read timeout is one absolute
 * deadline per reply frame, so a peer that trickles bytes cannot
 * stretch it.
 *
 * Backoff: seeded exponential backoff with multiplicative jitter on
 * common/rng -- the schedule is a pure function of (policy, seed), so
 * tests assert the exact delay sequence bit-for-bit (same discipline as
 * the rest of the repo: determinism first, then robustness on top).
 * BUSY responses carry the server's retry-after hint; the client honors
 * max(hint, backoff). Transport-level failures (EOF from a dropped
 * request, corrupt frame, refused connection) reconnect and retry;
 * caller errors (bad kernel text) never retry -- they cannot succeed.
 */

#ifndef LADM_SERVE_CLIENT_HH
#define LADM_SERVE_CLIENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/sim_error.hh"
#include "serve/decision.hh"
#include "serve/wire.hh"

namespace ladm
{
namespace serve
{

/** Seeded exponential backoff with multiplicative jitter. */
struct BackoffPolicy
{
    uint32_t baseMs = 10;    ///< first retry delay
    double multiplier = 2.0; ///< growth per attempt
    uint32_t maxMs = 1000;   ///< delay cap
    /**
     * Jitter fraction j in [0,1): each delay is scaled by a uniform
     * factor in [1-j, 1+j). 0 = deterministic schedule.
     */
    double jitter = 0.5;
    int maxAttempts = 8; ///< total tries (first attempt included)

    /**
     * Delay before retry number @p attempt (0-based: the delay after
     * the first failure). Pure in (policy, rng state).
     */
    uint32_t delayMs(int attempt, Rng &rng) const;
};

/** Outcome of one place() / placeWithRetry() call. */
struct ServeResult
{
    ErrCode code = ErrCode::Ok;
    PlacementDecision decision; ///< valid when ok()
    bool degraded = false;      ///< heuristic fallback answer
    bool cached = false;        ///< served from the decision cache
    uint32_t retryAfterMs = 0;  ///< server hint on BUSY
    std::string error;          ///< summary when !ok()
    std::vector<Diagnostic> diags;
    int attempts = 1; ///< tries consumed (placeWithRetry)

    bool ok() const { return code == ErrCode::Ok; }
};

class Client
{
  public:
    /**
     * @param address server address ("unix:..." / "tcp:host:port")
     * @param seed    backoff jitter seed (determinism knob)
     */
    explicit Client(std::string address, uint64_t seed = 1);
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Dial (or re-dial) the server. False on failure (see lastError). */
    bool connect();
    void close();
    bool connected() const { return fd_ >= 0; }
    const std::string &lastError() const { return lastError_; }

    /**
     * One request, one reply, no retries. Transport failures come back
     * as IoError / CorruptFrame / DeadlineExceeded results, never
     * exceptions.
     */
    ServeResult place(const PlacementRequest &req);

    /**
     * place() under the retry loop: retries transport faults, BUSY and
     * SHUTTING_DOWN with seeded backoff (honoring the server's
     * retry-after hint); returns caller errors immediately.
     */
    ServeResult placeWithRetry(const PlacementRequest &req,
                               const BackoffPolicy &policy = {});

    /** Flat path -> value stat snapshot over the wire. */
    bool stats(std::vector<std::pair<std::string, double>> *out);

    /** Liveness probe. */
    bool ping();

    /**
     * Replace the inter-retry sleep (tests capture the schedule instead
     * of actually sleeping). Default: std::this_thread::sleep_for.
     */
    void setSleepFn(std::function<void(uint32_t)> fn);

    /** Direct access to the jitter stream (tests re-derive schedules). */
    Rng &rng() { return rng_; }

  private:
    ServeResult transportError(ErrCode code, const std::string &what);

    std::string address_;
    int fd_ = -1;
    FrameReader reader_;
    Rng rng_;
    std::string lastError_;
    std::function<void(uint32_t)> sleep_;
};

} // namespace serve
} // namespace ladm

#endif // LADM_SERVE_CLIENT_HH
