#include "serve/client.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include <unistd.h>

#include "serve/wire.hh"

namespace ladm
{
namespace serve
{

uint32_t
BackoffPolicy::delayMs(int attempt, Rng &rng) const
{
    double d = static_cast<double>(baseMs);
    for (int i = 0; i < attempt; ++i)
        d *= multiplier;
    d = std::min(d, static_cast<double>(maxMs));
    if (jitter > 0.0) {
        // Uniform factor in [1-j, 1+j). One rng draw per delay, so the
        // schedule is a replayable function of the seed.
        const double f = 1.0 - jitter + 2.0 * jitter * rng.nextDouble();
        d *= f;
    }
    d = std::min(d, static_cast<double>(maxMs));
    return static_cast<uint32_t>(d < 0.0 ? 0.0 : d);
}

Client::Client(std::string address, uint64_t seed)
    : address_(std::move(address)), rng_(seed)
{
    sleep_ = [](uint32_t ms) {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    };
}

Client::~Client()
{
    close();
}

bool
Client::connect()
{
    close();
    std::string err;
    fd_ = connectTo(address_, &err);
    if (fd_ < 0) {
        lastError_ = err;
        return false;
    }
    reader_.reset(fd_);
    return true;
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
Client::setSleepFn(std::function<void(uint32_t)> fn)
{
    sleep_ = std::move(fn);
}

ServeResult
Client::transportError(ErrCode code, const std::string &what)
{
    ServeResult r;
    r.code = code;
    r.error = what;
    lastError_ = what;
    close(); // the stream is dead or desynchronized either way
    return r;
}

ServeResult
Client::place(const PlacementRequest &req)
{
    if (fd_ < 0 && !connect())
        return transportError(ErrCode::IoError,
                              "connect failed: " + lastError_);

    ByteWriter w;
    req.encode(w);
    if (!sendFrame(fd_, MsgType::Place, w.data()))
        return transportError(ErrCode::IoError, "send failed");

    // Deadline propagation: wait for the reply no longer than the
    // request's own horizon (plus slack for the wire), so a dead server
    // and an overrun server look the same to the caller.
    const uint32_t deadline_us = req.deadlineUs ? req.deadlineUs : 0;
    const int timeout_ms =
        deadline_us ? static_cast<int>(deadline_us / 1000 + 1000) : 30000;

    Frame reply;
    switch (reader_.read(reply, timeout_ms)) {
    case RecvStatus::Ok:
        break;
    case RecvStatus::Timeout:
        return transportError(ErrCode::DeadlineExceeded,
                              "no reply within deadline");
    case RecvStatus::Corrupt:
        return transportError(ErrCode::CorruptFrame,
                              "corrupt reply frame");
    case RecvStatus::Eof:
        return transportError(ErrCode::IoError,
                              "connection closed by server");
    default:
        return transportError(ErrCode::IoError, "socket error");
    }

    try {
        if (reply.type == MsgType::Decision) {
            ByteReader r(reply.payload);
            ServeResult res;
            res.degraded = r.u8() != 0;
            res.cached = r.u8() != 0;
            res.decision = PlacementDecision::decode(r.view());
            return res;
        }
        if (reply.type == MsgType::Error) {
            ByteReader r(reply.payload);
            ServeResult res;
            res.code = errCodeFromWire(r.u32());
            res.error = r.str();
            res.retryAfterMs = r.u32();
            const uint32_t n = r.u32();
            for (uint32_t i = 0; i < n && i < 64; ++i) {
                Diagnostic d;
                d.field = r.str();
                d.value = r.str();
                d.constraint = r.str();
                d.hint = r.str();
                d.code = errCodeFromWire(r.u32());
                res.diags.push_back(std::move(d));
            }
            lastError_ = res.error;
            return res;
        }
    } catch (const SimError &e) {
        return transportError(ErrCode::CorruptFrame, e.what());
    }
    return transportError(ErrCode::CorruptFrame,
                          "unexpected reply frame type");
}

ServeResult
Client::placeWithRetry(const PlacementRequest &req,
                       const BackoffPolicy &policy)
{
    ServeResult last;
    const int tries = std::max(1, policy.maxAttempts);
    for (int attempt = 0; attempt < tries; ++attempt) {
        last = place(req);
        last.attempts = attempt + 1;
        if (last.ok())
            return last;

        const uint32_t c = static_cast<uint32_t>(last.code);
        const bool retryable =
            last.code == ErrCode::Busy ||
            last.code == ErrCode::ShuttingDown ||
            last.code == ErrCode::IoError ||
            last.code == ErrCode::CorruptFrame ||
            last.code == ErrCode::DeadlineExceeded ||
            last.code == ErrCode::RemoteError;
        // Caller errors (1xx) cannot succeed on retry, ever.
        if (!retryable || (c >= 100 && c < 150))
            return last;
        if (attempt + 1 >= tries)
            return last;

        const uint32_t backoff = policy.delayMs(attempt, rng_);
        sleep_(std::max(backoff, last.retryAfterMs));
    }
    return last;
}

bool
Client::stats(std::vector<std::pair<std::string, double>> *out)
{
    if (fd_ < 0 && !connect())
        return false;
    if (!sendFrame(fd_, MsgType::Stats, std::string()))
        return false;
    Frame reply;
    if (reader_.read(reply, 10000) != RecvStatus::Ok ||
        reply.type != MsgType::StatsReply)
        return false;
    try {
        ByteReader r(reply.payload);
        const uint32_t n = r.count(sizeof(uint32_t) + sizeof(double));
        if (out) {
            out->clear();
            out->reserve(n);
        }
        for (uint32_t i = 0; i < n; ++i) {
            std::string path = r.str();
            const double v = r.f64();
            if (out)
                out->emplace_back(std::move(path), v);
        }
    } catch (const SimError &) {
        return false;
    }
    return true;
}

bool
Client::ping()
{
    if (fd_ < 0 && !connect())
        return false;
    if (!sendFrame(fd_, MsgType::Ping, std::string()))
        return false;
    Frame reply;
    return reader_.read(reply, 10000) == RecvStatus::Ok &&
           reply.type == MsgType::Pong;
}

} // namespace serve
} // namespace ladm
