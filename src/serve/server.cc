#include "serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "snapshot/snapshot.hh"

namespace ladm
{
namespace serve
{

namespace
{

void
sleepUs(uint32_t us)
{
    if (us)
        std::this_thread::sleep_for(std::chrono::microseconds(us));
}

/** Error-frame payload (wire format shared with client.cc). */
std::string
encodeError(ErrCode code, const std::string &summary,
            uint32_t retry_after_ms, const std::vector<Diagnostic> &diags)
{
    ByteWriter w;
    w.u32(static_cast<uint32_t>(code));
    w.str(summary);
    w.u32(retry_after_ms);
    w.u32(static_cast<uint32_t>(diags.size()));
    for (const Diagnostic &d : diags) {
        w.str(d.field);
        w.str(d.value);
        w.str(d.constraint);
        w.str(d.hint);
        w.u32(static_cast<uint32_t>(d.code));
    }
    return w.take();
}

} // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), cache_(opts_.cacheShards),
      latency_(registry_.group("serve").logHistogram("latency_us"))
{
    if (!opts_.faultSpec.empty())
        faults_ = ServeFaultPlan::parse(opts_.faultSpec);

    // The counters are atomics the request path bumps without a lock;
    // the registry reads them. A fresh server exports zeros.
    static constexpr const char *kCtrNames[kNumCtrs] = {
        "requests",      "hits",         "misses",
        "shed",          "degraded",     "deadline_timeouts",
        "errors",        "bad_frames",   "dropped",
        "connections",   "conn_rejected", "journal_appended",
        "computed"};
    for (int c = 0; c < kNumCtrs; ++c)
        registry_.gauge(
            std::string("serve.") + kCtrNames[c],
            [this, c] {
                return static_cast<double>(
                    ctrs_[c].load(std::memory_order_relaxed));
            },
            StatKind::Counter);
    registry_.gauge("serve.queue_depth", [this] {
        return pool_ ? static_cast<double>(pool_->queueDepth()) : 0.0;
    });
    registry_.gauge("serve.cache_size", [this] {
        return static_cast<double>(cache_.size());
    });
    registry_.gauge("serve.journal_replayed", [this] {
        return static_cast<double>(replayed_);
    });
}

Server::~Server()
{
    shutdown();
}

void
Server::start()
{
    if (running_.load())
        return;

    // Warm the topology memo (also validates the configured default).
    uint64_t fp = 0;
    configFor(opts_.topology, &fp);

    if (!opts_.journalPath.empty()) {
        replayed_ = journal_.open(
            opts_.journalPath,
            [this](const DecisionKey &k, const std::string &bytes) {
                cache_.put(k, bytes);
            });
        if (replayed_ > 0)
            ladm_inform("serve: replayed ", replayed_,
                      " journaled decision(s) from ", opts_.journalPath);
    }

    std::string err;
    listenFd_ = listenOn(opts_.listen, &address_, &err);
    if (listenFd_ < 0)
        throw SimError(SimError::Kind::Io,
                       "serve: cannot listen on " + opts_.listen,
                       {{"serve.listen", opts_.listen, err,
                         "free the address or pick another",
                         ErrCode::IoError}});

    pool_ = std::make_unique<ThreadPool>(opts_.workers,
                                         opts_.queueCapacity);
    running_.store(true);
    stopping_.store(false);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    ladm_inform("serve: listening on ", address_, " (", opts_.workers,
              " workers, queue ", opts_.queueCapacity, ", deadline ",
              opts_.defaultDeadlineUs, "us, budget ",
              opts_.classifierBudgetUs, "us)");
}

void
Server::shutdown()
{
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true))
        return;
    if (!running_.load()) {
        stopping_.store(false);
        return;
    }

    // 1. Stop accepting. Shutting the socket down pops the accept
    //    thread out of poll/accept (its 100 ms poll timeout bounds the
    //    wait regardless). The accept thread is the fd's only user while
    //    it runs, so the fd is closed -- and its number freed for reuse
    //    -- only after the join.
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }

    // 2. Finish what was admitted. Connection threads still waiting on
    //    their Pending get answers (new submissions now shed as
    //    SHUTTING_DOWN because the pool refuses them).
    if (pool_)
        pool_->drain();

    // 3. The committed tail is now complete: make it durable before the
    //    process can exit.
    journal_.sync();

    // 4. Unblock idle connection readers and join everyone.
    {
        std::lock_guard<std::mutex> lk(connMu_);
        for (int fd : connFds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lk(connMu_);
        threads.swap(connThreads_);
    }
    for (std::thread &t : threads)
        if (t.joinable())
            t.join();

    journal_.close();
    running_.store(false);
    ladm_inform("serve: drained (", static_cast<uint64_t>(
                  statValue("serve.requests")),
              " requests served, ",
              static_cast<uint64_t>(statValue("serve.shed")), " shed, ",
              static_cast<uint64_t>(statValue("serve.degraded")),
              " degraded)");
}

void
Server::serveUntilStopped()
{
    while (!snapshot::stopRequested() && running_.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    shutdown();
}

double
Server::statValue(const std::string &path) const
{
    std::lock_guard<std::mutex> lk(statsMu_);
    return registry_.value(path).value_or(0.0);
}

// --- accept / connection plumbing -------------------------------------------

void
Server::acceptLoop()
{
    while (!stopping_.load()) {
        struct pollfd pfd;
        pfd.fd = listenFd_;
        pfd.events = POLLIN;
        const int pr = ::poll(&pfd, 1, 100);
        if (stopping_.load())
            break;
        if (pr <= 0)
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == EAGAIN)
                continue;
            break; // listen socket gone
        }
        if (liveConns_.load() >= opts_.maxConnections) {
            // Connection-level shed: answer once, structurally, and
            // close -- never silently refuse.
            bump(ConnRejected);
            sendFrame(fd, MsgType::Error,
                      encodeError(ErrCode::Busy,
                                  "connection limit reached",
                                  opts_.retryAfterMs, {}));
            ::close(fd);
            continue;
        }
        bump(Connections);
        ++liveConns_;
        std::lock_guard<std::mutex> lk(connMu_);
        connFds_.push_back(fd);
        connThreads_.emplace_back(
            [this, fd] { handleConnection(fd); });
    }
}

void
Server::handleConnection(int fd)
{
    FrameReader reader(fd);
    for (;;) {
        Frame frame;
        const RecvStatus rs = reader.read(frame);
        if (rs == RecvStatus::Corrupt) {
            bump(BadFrames);
            sendError(fd, ErrCode::CorruptFrame,
                      "corrupt frame received");
            break;
        }
        if (rs != RecvStatus::Ok)
            break; // EOF / error / shutdown

        bool keep = true;
        switch (frame.type) {
        case MsgType::Place:
            keep = handlePlace(fd, frame.payload);
            break;
        case MsgType::Stats:
            handleStats(fd);
            break;
        case MsgType::Ping:
            reply(fd, MsgType::Pong, std::string());
            break;
        default:
            bump(BadFrames);
            sendError(fd, ErrCode::BadRequest,
                      "unexpected frame type");
            break;
        }
        if (!keep)
            break;
    }
    // Unregister before close so shutdown() can never shut down a
    // recycled fd number.
    {
        std::lock_guard<std::mutex> lk(connMu_);
        connFds_.erase(
            std::remove(connFds_.begin(), connFds_.end(), fd),
            connFds_.end());
    }
    ::close(fd);
    --liveConns_;
}

bool
Server::reply(int fd, MsgType type, std::string_view payload)
{
    sleepUs(faults_.delayUs());
    return sendFrame(fd, type, payload, faults_.takeCorrupt());
}

bool
Server::sendDecision(int fd, std::string_view encoded, bool degraded,
                     Clock::time_point arrival)
{
    sampleLatency(arrival);
    return reply(fd, MsgType::Decision,
                 decisionReply(encoded, degraded, false));
}

bool
Server::sendError(int fd, ErrCode code, const std::string &summary,
                  uint32_t retry_after_ms,
                  const std::vector<Diagnostic> &diags)
{
    return reply(fd, MsgType::Error,
                 encodeError(code, summary, retry_after_ms, diags));
}

void
Server::handleStats(int fd)
{
    telemetry::Snapshot snap;
    {
        std::lock_guard<std::mutex> lk(statsMu_);
        snap = registry_.snapshot();
    }
    ByteWriter w;
    w.u32(static_cast<uint32_t>(snap.values.size()));
    for (const auto &kv : snap.values) {
        w.str(kv.first);
        w.f64(kv.second.value);
    }
    reply(fd, MsgType::StatsReply, w.take());
}

// --- the request path -------------------------------------------------------

const SystemConfig &
Server::configFor(const std::string &topology, uint64_t *fp)
{
    const std::string &name =
        topology.empty() ? opts_.topology : topology;
    std::lock_guard<std::mutex> lk(cfgMu_);
    auto it = cfgCache_.find(name);
    if (it == cfgCache_.end()) {
        SystemConfig cfg = resolveTopology(name, opts_.topology);
        const uint64_t f = snapshot::configFingerprint(cfg);
        it = cfgCache_.emplace(name, std::make_pair(cfg, f)).first;
    }
    if (fp)
        *fp = it->second.second;
    return it->second.first;
}

bool
Server::breakerOpen() const
{
    std::lock_guard<std::mutex> lk(breakerMu_);
    return breakerStreak_ >= opts_.breakerThreshold;
}

void
Server::breakerRecord(bool internal_fault)
{
    std::lock_guard<std::mutex> lk(breakerMu_);
    if (internal_fault) {
        ++breakerStreak_;
        if (breakerStreak_ == opts_.breakerThreshold)
            ladm_warn("serve: ", breakerStreak_,
                      " consecutive classifier faults; answering "
                      "degraded until one succeeds");
    } else {
        breakerStreak_ = 0;
    }
}

void
Server::sampleLatency(Clock::time_point arrival)
{
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - arrival)
                        .count();
    std::lock_guard<std::mutex> lk(statsMu_);
    latency_.sample(static_cast<uint64_t>(us < 0 ? 0 : us));
}

void
Server::computeInto(const std::shared_ptr<Pending> &p,
                    const PlacementRequest &req, const SystemConfig &cfg,
                    const DecisionKey &key)
{
    std::string encoded;
    bool failed = false;
    bool internal_fault = false;
    ErrCode code = ErrCode::Ok;
    std::string error;
    std::vector<Diagnostic> diags;

    sleepUs(faults_.stallUs());
    if (faults_.takeFail()) {
        failed = internal_fault = true;
        code = ErrCode::RemoteError;
        error = "injected classifier fault";
    } else {
        try {
            encoded = computeDecision(req, cfg).encode();
        } catch (const SimError &e) {
            failed = true;
            code = e.code();
            error = e.what();
            diags = e.diagnostics();
            // A malformed request is the caller's fault and says nothing
            // about classifier health; only non-4xx-style faults trip
            // the breaker.
            internal_fault =
                static_cast<uint32_t>(code) < 100 ||
                static_cast<uint32_t>(code) >= 150;
        } catch (const std::exception &e) {
            failed = internal_fault = true;
            code = ErrCode::RemoteError;
            error = e.what();
        }
    }
    // Successes close the breaker, internal faults advance it; caller
    // errors leave it alone (they say nothing about classifier health).
    if (internal_fault)
        breakerRecord(true);
    else if (!failed)
        breakerRecord(false);

    if (!failed) {
        bump(Computed);
        // Commit order: journal first, then cache. A decision visible
        // in the cache is always already durable (modulo fdatasync at
        // drain), so "committed" can never un-happen across restart.
        journal_.append(key, encoded);
        if (journal_.isOpen())
            bump(JournalAppended);
        cache_.put(key, encoded);
    }

    {
        std::lock_guard<std::mutex> lk(p->mu);
        p->done = true;
        p->failed = failed;
        p->encoded = std::move(encoded);
        p->code = code;
        p->error = std::move(error);
        p->diags = std::move(diags);
    }
    p->cv.notify_all();

    std::lock_guard<std::mutex> lk(inflightMu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end() && it->second == p)
        inflight_.erase(it);
}

bool
Server::handlePlace(int fd, std::string_view payload)
{
    const Clock::time_point arrival = Clock::now();
    bump(Requests);

    if (faults_.takeDrop()) {
        // Injected network loss: vanish without a reply. The client's
        // read times out / sees EOF and its retry loop takes over.
        bump(Dropped);
        return false;
    }

    PlacementRequest req;
    const SystemConfig *cfgp = nullptr;
    uint64_t fp = 0;
    try {
        ByteReader r(payload);
        req = PlacementRequest::decode(r);
        cfgp = &configFor(req.topology, &fp);
    } catch (const SimError &e) {
        bump(Errors);
        return sendError(fd, e.code(), e.what(), 0, e.diagnostics());
    }
    const SystemConfig &cfg = *cfgp;

    const DecisionKey key{requestIrHash(req), fp};
    const uint32_t deadline_us =
        req.deadlineUs ? req.deadlineUs : opts_.defaultDeadlineUs;
    const auto deadline =
        arrival + std::chrono::microseconds(deadline_us);

    // Warm path: send the cached reply frame as built. The fault hooks
    // still apply; a corrupted reply flips a byte in a copy.
    if (const std::string *frame = cache_.find(key)) {
        bump(Hits);
        sampleLatency(arrival);
        sleepUs(faults_.delayUs());
        return sendBytes(fd, *frame, faults_.takeCorrupt());
    }
    bump(Misses);

    // Breaker open: the classifier is presumed sick; do not queue more
    // work at it, answer heuristically right away.
    if (breakerOpen()) {
        bump(Degraded);
        return sendDecision(fd, heuristicDecision(req, cfg).encode(),
                            true, arrival);
    }

    // Single-flight: concurrent identical misses share one computation.
    std::shared_ptr<Pending> pending;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lk(inflightMu_);
        auto it = inflight_.find(key);
        if (it != inflight_.end()) {
            pending = it->second;
        } else {
            pending = std::make_shared<Pending>();
            inflight_.emplace(key, pending);
            owner = true;
        }
    }

    if (owner) {
        const bool admitted = pool_ && pool_->trySubmit([this, pending,
                                                         req, cfgp, key] {
            computeInto(pending, req, *cfgp, key);
        });
        if (!admitted) {
            {
                std::lock_guard<std::mutex> lk(inflightMu_);
                auto it = inflight_.find(key);
                if (it != inflight_.end() && it->second == pending)
                    inflight_.erase(it);
            }
            const bool draining = !pool_ || pool_->draining();
            bump(Shed);
            return sendError(
                fd,
                draining ? ErrCode::ShuttingDown : ErrCode::Busy,
                draining ? "server is draining"
                         : "admission queue full",
                opts_.retryAfterMs);
        }
    }

    // Wait for the computation, but never past min(deadline, budget):
    // crossing the budget first means "the classifier is too slow for
    // this caller -- degrade"; crossing the deadline means the whole
    // request is out of time.
    const auto budget_end =
        arrival + std::chrono::microseconds(
                      std::min(deadline_us, opts_.classifierBudgetUs));
    bool done;
    {
        std::unique_lock<std::mutex> lk(pending->mu);
        done = pending->cv.wait_until(lk, budget_end,
                                      [&] { return pending->done; });
    }

    if (!done) {
        if (budget_end >= deadline) {
            // The caller's deadline was at or inside the classifier
            // budget; there is no time left for a useful answer.
            bump(DeadlineTimeouts);
            return sendError(fd, ErrCode::DeadlineExceeded,
                             "deadline exceeded before placement "
                             "completed");
        }
        bump(Degraded);
        return sendDecision(fd, heuristicDecision(req, cfg).encode(),
                            true, arrival);
    }

    std::lock_guard<std::mutex> lk(pending->mu);
    if (!pending->failed)
        return sendDecision(fd, pending->encoded, false, arrival);

    const uint32_t c = static_cast<uint32_t>(pending->code);
    if (c >= 100 && c < 150) {
        // The request itself was bad; degraded placement would be
        // garbage for an unparsable kernel. Tell the caller.
        bump(Errors);
        return sendError(fd, pending->code, pending->error, 0,
                         pending->diags);
    }
    // Internal fault: the caller still deserves an answer within the
    // deadline -- degrade.
    bump(Degraded);
    return sendDecision(fd, heuristicDecision(req, cfg).encode(), true,
                        arrival);
}

} // namespace serve
} // namespace ladm
