/**
 * @file
 * The placement-advisor daemon: ladm::serve::Server answers Place
 * frames (wire.hh) from a sharded decision cache, batching cold misses
 * through the paper's compiler + runtime pipeline on a bounded worker
 * pool. The robustness machinery is the point:
 *
 *  - Admission control: cold misses enter a bounded ThreadPool via
 *    trySubmit(); a full queue sheds the request with a structured BUSY
 *    error carrying a retry-after hint instead of letting latency grow
 *    without bound.
 *  - Deadlines: every request carries (or inherits) a relative deadline.
 *    A computation that misses the classifier budget degrades to the
 *    closed-form heuristic answer (flagged degraded, never cached); one
 *    that misses the deadline itself gets DEADLINE_EXCEEDED.
 *  - Circuit breaker: after `breakerThreshold` consecutive internal
 *    classifier faults the server stops queueing computations and
 *    answers degraded directly until a compute succeeds again.
 *  - Crash safety: committed decisions append to a DecisionJournal;
 *    warm restart replays it into the cache, so kill -9 loses no
 *    committed decision (bit-identity asserted in tests).
 *  - Graceful drain: shutdown() stops accepting, finishes admitted
 *    work, flushes the journal, then closes connections -- the SIGTERM
 *    path of tools/ladm_served.cc, which exits with
 *    snapshot::kExitCheckpointed like every other resumable binary.
 *
 * Telemetry lands in a StatRegistry under "serve.*" (requests, hits,
 * shed, degraded, deadline timeouts, latency log-histogram, live queue
 * depth / cache size gauges); a Stats frame returns the flattened tree
 * over the wire.
 */

#ifndef LADM_SERVE_SERVER_HH
#define LADM_SERVE_SERVER_HH

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.hh"
#include "config/system_config.hh"
#include "serve/cache.hh"
#include "serve/decision.hh"
#include "serve/fault.hh"
#include "serve/wire.hh"
#include "telemetry/stat_registry.hh"

namespace ladm
{
namespace serve
{

struct ServerOptions
{
    /** Listen address ("unix:/path" or "tcp:host:port", port 0 = any). */
    std::string listen = "unix:ladm-serve.sock";
    /** Topology preset used when a request names none. */
    std::string topology = "multi-gpu-4x4";
    /** Classifier worker threads. */
    int workers = 4;
    /** Admission queue bound; a full queue sheds with BUSY. */
    size_t queueCapacity = 64;
    /** Deadline adopted by requests that carry none (us). */
    uint32_t defaultDeadlineUs = 100000;
    /** Budget before a slow classification degrades (us). */
    uint32_t classifierBudgetUs = 25000;
    /** Retry hint attached to BUSY responses (ms). */
    uint32_t retryAfterMs = 20;
    /** Consecutive internal classifier faults that open the breaker. */
    int breakerThreshold = 3;
    /** Max concurrently served connections; beyond this, accept+BUSY. */
    int maxConnections = 256;
    /** Decision journal path; empty disables crash-safe persistence. */
    std::string journalPath;
    /** Fault-injection spec (ServeFaultPlan grammar); empty = none. */
    std::string faultSpec;
    /** Decision cache shard count. */
    int cacheShards = 16;
};

class Server
{
  public:
    explicit Server(ServerOptions opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the listen socket, replay the journal into the cache, and
     * start the accept loop. @throws SimError(Io/Config) on bind or
     * journal failure.
     */
    void start();

    /**
     * Graceful drain (idempotent): stop accepting, let admitted
     * classifications finish and their replies go out, sync + close the
     * journal, close every connection, join all threads.
     */
    void shutdown();

    /**
     * Run until snapshot::stopRequested() (SIGTERM/SIGINT via
     * snapshot::installSignalHandlers) flips, then shutdown(). The
     * daemon main loop.
     */
    void serveUntilStopped();

    /** Resolved listen address (concrete port for "tcp:host:0"). */
    const std::string &address() const { return address_; }
    bool running() const { return running_.load(); }

    /** Journal records replayed into the cache by start(). */
    size_t replayed() const { return replayed_; }
    size_t cacheSize() const { return cache_.size(); }

    telemetry::StatRegistry &stats() { return registry_; }
    /** Flattened stat value ("serve.hits"), 0 when absent. */
    double statValue(const std::string &path) const;

  private:
    using Clock = std::chrono::steady_clock;

    /** Single-flight rendezvous for one in-flight cold miss. */
    struct Pending
    {
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        bool failed = false;
        std::string encoded;       ///< valid when !failed
        ErrCode code = ErrCode::Ok;
        std::string error;
        std::vector<Diagnostic> diags;
    };

    /** The serve.* counters, exported as Counter-kind gauges. */
    enum Ctr
    {
        Requests,
        Hits,
        Misses,
        Shed,
        Degraded,
        DeadlineTimeouts,
        Errors,
        BadFrames,
        Dropped,
        Connections,
        ConnRejected,
        JournalAppended,
        Computed,
        kNumCtrs
    };

    void acceptLoop();
    void handleConnection(int fd);
    bool handlePlace(int fd, std::string_view payload);
    void handleStats(int fd);
    bool reply(int fd, MsgType type, std::string_view payload);
    bool sendDecision(int fd, std::string_view encoded, bool degraded,
                      Clock::time_point arrival);
    bool sendError(int fd, ErrCode code, const std::string &summary,
                   uint32_t retry_after_ms = 0,
                   const std::vector<Diagnostic> &diags = {});

    /** Worker-side classification of one admitted cold miss. */
    void computeInto(const std::shared_ptr<Pending> &p,
                     const PlacementRequest &req, const SystemConfig &cfg,
                     const DecisionKey &key);

    /**
     * The memoized config of a topology preset (empty = the default).
     * Entries are never erased, so the reference outlives the request.
     */
    const SystemConfig &configFor(const std::string &topology,
                                  uint64_t *fp);

    bool breakerOpen() const;
    void breakerRecord(bool internal_fault);

    void
    bump(Ctr c, uint64_t n = 1)
    {
        ctrs_[c].fetch_add(n, std::memory_order_relaxed);
    }
    void sampleLatency(Clock::time_point arrival);

    ServerOptions opts_;
    std::string address_;
    int listenFd_ = -1;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};

    DecisionCache cache_;
    DecisionJournal journal_;
    size_t replayed_ = 0;
    ServeFaultPlan faults_;
    std::unique_ptr<ThreadPool> pool_;

    // Topology presets are few; memoize cfg + fingerprint by name.
    std::mutex cfgMu_;
    std::map<std::string, std::pair<SystemConfig, uint64_t>> cfgCache_;

    std::mutex inflightMu_;
    std::unordered_map<DecisionKey, std::shared_ptr<Pending>,
                       DecisionKeyHash>
        inflight_;

    mutable std::mutex breakerMu_;
    int breakerStreak_ = 0;

    std::array<std::atomic<uint64_t>, kNumCtrs> ctrs_{};
    /** Guards registry_'s one eager stat, the latency histogram. */
    mutable std::mutex statsMu_;
    telemetry::StatRegistry registry_;
    LogHistogram &latency_;

    std::thread acceptThread_;
    std::mutex connMu_;
    std::vector<std::thread> connThreads_;
    std::vector<int> connFds_;
    std::atomic<int> liveConns_{0};
};

} // namespace serve
} // namespace ladm

#endif // LADM_SERVE_SERVER_HH
