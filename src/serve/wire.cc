#include "serve/wire.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/serial.hh" // crc32

namespace ladm
{
namespace serve
{

void
ByteWriter::raw(const void *p, size_t n)
{
    buf_.append(static_cast<const char *>(p), n);
}

void
ByteReader::raw(void *p, size_t n)
{
    if (n > buf_.size() - pos_) {
        throw SimError(SimError::Kind::Io, "truncated payload",
                       {{"frame.payload", std::to_string(buf_.size()),
                         "decoder needs " + std::to_string(n) +
                             " more byte(s) at offset " +
                             std::to_string(pos_),
                         "peer sent a malformed frame; drop the "
                         "connection",
                         ErrCode::CorruptFrame}});
    }
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
}

uint8_t
ByteReader::u8()
{
    uint8_t v;
    raw(&v, 1);
    return v;
}

uint16_t
ByteReader::u16()
{
    uint16_t v;
    raw(&v, sizeof v);
    return v;
}

uint32_t
ByteReader::u32()
{
    uint32_t v;
    raw(&v, sizeof v);
    return v;
}

uint64_t
ByteReader::u64()
{
    uint64_t v;
    raw(&v, sizeof v);
    return v;
}

int64_t
ByteReader::i64()
{
    int64_t v;
    raw(&v, sizeof v);
    return v;
}

double
ByteReader::f64()
{
    double v;
    raw(&v, sizeof v);
    return v;
}

std::string_view
ByteReader::view()
{
    const uint32_t n = u32();
    if (n > buf_.size() - pos_) {
        throw SimError(SimError::Kind::Io, "truncated string",
                       {{"frame.payload", std::to_string(n),
                         "string length exceeds remaining payload",
                         "peer sent a malformed frame; drop the "
                         "connection",
                         ErrCode::CorruptFrame}});
    }
    const std::string_view s = buf_.substr(pos_, n);
    pos_ += n;
    return s;
}

uint32_t
ByteReader::count(size_t min_elem_bytes)
{
    const uint32_t n = u32();
    if (n > (buf_.size() - pos_) / min_elem_bytes) {
        throw SimError(SimError::Kind::Io, "oversized element count",
                       {{"frame.payload", std::to_string(n),
                         "count exceeds what the remaining payload "
                         "can hold",
                         "peer sent a malformed frame; drop the "
                         "connection",
                         ErrCode::CorruptFrame}});
    }
    return n;
}

namespace
{

struct FrameHeader
{
    uint32_t magic;
    uint8_t version;
    uint8_t type;
    uint16_t reserved;
    uint32_t length;
    uint32_t crc;
} __attribute__((packed));

static_assert(sizeof(FrameHeader) == kFrameHeaderBytes,
              "wire header layout");

/** First buffer allocation: a Place or Decision frame fits whole. */
constexpr size_t kInitialBufferBytes = 4096;

FrameHeader
makeHeader(MsgType type, std::string_view payload)
{
    FrameHeader h;
    h.magic = kFrameMagic;
    h.version = kProtoVersion;
    h.type = static_cast<uint8_t>(type);
    h.reserved = 0;
    h.length = static_cast<uint32_t>(payload.size());
    h.crc = serial::crc32(payload.data(), payload.size());
    return h;
}

/** sendmsg(2) every byte of @p iov[0..n), retrying short writes. */
bool
sendAll(int fd, struct iovec *iov, int n)
{
    while (n > 0) {
        struct msghdr msg = {};
        msg.msg_iov = iov;
        msg.msg_iovlen = static_cast<size_t>(n);
        const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        size_t left = static_cast<size_t>(w);
        for (; n > 0 && left >= iov->iov_len; ++iov, --n)
            left -= iov->iov_len;
        if (n > 0) {
            iov->iov_base = static_cast<char *>(iov->iov_base) + left;
            iov->iov_len -= left;
        }
    }
    return true;
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

void
FrameReader::reset(int fd)
{
    fd_ = fd;
    begin_ = end_ = 0;
}

RecvStatus
FrameReader::read(Frame &out, int timeout_ms)
{
    const int64_t deadline =
        timeout_ms < 0 ? -1
                       : nowNs() + static_cast<int64_t>(timeout_ms) *
                                       1000000;
    for (;;) {
        const size_t have = end_ - begin_;
        size_t need = kFrameHeaderBytes;
        if (have >= kFrameHeaderBytes) {
            FrameHeader h;
            std::memcpy(&h, buf_.data() + begin_, sizeof h);
            if (h.magic != kFrameMagic || h.version != kProtoVersion ||
                h.length > kMaxFrameBytes)
                return RecvStatus::Corrupt;
            need += h.length;
            if (have >= need) {
                const char *payload =
                    buf_.data() + begin_ + kFrameHeaderBytes;
                if (serial::crc32(payload, h.length) != h.crc)
                    return RecvStatus::Corrupt;
                out.type = static_cast<MsgType>(h.type);
                out.payload = std::string_view(payload, h.length);
                begin_ += need;
                return RecvStatus::Ok;
            }
        }

        // Move the partial frame to the front, then grow only when the
        // buffer is full: allocation follows the bytes that arrived.
        if (begin_ > 0) {
            std::memmove(buf_.data(), buf_.data() + begin_, have);
            begin_ = 0;
            end_ = have;
        }
        if (end_ == buf_.size())
            buf_.resize(std::max(kInitialBufferBytes,
                                 std::min(2 * buf_.size(), need)));

        const RecvStatus st = fill(deadline);
        if (st == RecvStatus::Eof && end_ > begin_)
            return RecvStatus::Corrupt; // stream died mid-frame
        if (st != RecvStatus::Ok)
            return st;
    }
}

RecvStatus
FrameReader::fill(int64_t deadline_ns)
{
    for (;;) {
        if (deadline_ns >= 0) {
            const int64_t left = deadline_ns - nowNs();
            struct pollfd pfd = {fd_, POLLIN, 0};
            const int r = ::poll(
                &pfd, 1,
                left > 0 ? static_cast<int>((left + 999999) / 1000000)
                         : 0);
            if (r == 0) {
                if (left <= 0)
                    return RecvStatus::Timeout;
                continue;
            }
            if (r < 0) {
                if (errno == EINTR)
                    continue;
                return RecvStatus::Error;
            }
        }
        const ssize_t r =
            ::recv(fd_, buf_.data() + end_, buf_.size() - end_,
                   deadline_ns >= 0 ? MSG_DONTWAIT : 0);
        if (r > 0) {
            end_ += static_cast<size_t>(r);
            return RecvStatus::Ok;
        }
        if (r == 0)
            return RecvStatus::Eof;
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            if (deadline_ns >= 0)
                continue; // spurious wake-up: poll again
            return RecvStatus::Timeout;
        }
        return RecvStatus::Error;
    }
}

std::string
encodeFrame(MsgType type, std::string_view payload)
{
    const FrameHeader h = makeHeader(type, payload);
    std::string out(reinterpret_cast<const char *>(&h), sizeof h);
    out += payload;
    return out;
}

bool
sendFrame(int fd, MsgType type, std::string_view payload,
          bool corrupt_payload)
{
    if (corrupt_payload)
        return sendBytes(fd, encodeFrame(type, payload), true);
    FrameHeader h = makeHeader(type, payload);
    struct iovec iov[2] = {
        {&h, sizeof h},
        {const_cast<char *>(payload.data()), payload.size()}};
    return sendAll(fd, iov, 2);
}

bool
sendBytes(int fd, std::string_view frame, bool corrupt_payload)
{
    if (corrupt_payload && frame.size() > kFrameHeaderBytes) {
        std::string copy(frame);
        copy[kFrameHeaderBytes + (frame.size() - kFrameHeaderBytes) / 2] ^=
            0x5a;
        return sendBytes(fd, copy, false);
    }
    struct iovec iov = {const_cast<char *>(frame.data()), frame.size()};
    return sendAll(fd, &iov, 1);
}

namespace
{

bool
splitTcp(const std::string &hostport, std::string &host, int &port)
{
    const size_t colon = hostport.rfind(':');
    if (colon == std::string::npos)
        return false;
    host = hostport.substr(0, colon);
    port = std::atoi(hostport.c_str() + colon + 1);
    return !host.empty() && port >= 0 && port <= 65535;
}

int
fail(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg + " (" + std::strerror(errno) + ")";
    return -1;
}

} // namespace

int
connectTo(const std::string &address, std::string *err)
{
    if (address.rfind("unix:", 0) == 0) {
        const std::string path = address.substr(5);
        struct sockaddr_un sa;
        std::memset(&sa, 0, sizeof sa);
        sa.sun_family = AF_UNIX;
        if (path.size() >= sizeof sa.sun_path) {
            if (err)
                *err = "unix socket path too long: " + path;
            return -1;
        }
        std::strncpy(sa.sun_path, path.c_str(), sizeof sa.sun_path - 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return fail(err, "socket");
        if (::connect(fd, reinterpret_cast<struct sockaddr *>(&sa),
                      sizeof sa) != 0) {
            const int e = errno;
            ::close(fd);
            errno = e;
            return fail(err, "connect " + address);
        }
        return fd;
    }
    if (address.rfind("tcp:", 0) == 0) {
        std::string host;
        int port = 0;
        if (!splitTcp(address.substr(4), host, port)) {
            if (err)
                *err = "bad tcp address: " + address;
            return -1;
        }
        struct sockaddr_in sa;
        std::memset(&sa, 0, sizeof sa);
        sa.sin_family = AF_INET;
        sa.sin_port = htons(static_cast<uint16_t>(port));
        if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
            if (err)
                *err = "bad tcp host (use a literal IPv4 address): " +
                       host;
            return -1;
        }
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            return fail(err, "socket");
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        if (::connect(fd, reinterpret_cast<struct sockaddr *>(&sa),
                      sizeof sa) != 0) {
            const int e = errno;
            ::close(fd);
            errno = e;
            return fail(err, "connect " + address);
        }
        return fd;
    }
    if (err)
        *err = "address must start with unix: or tcp:, got " + address;
    return -1;
}

int
listenOn(const std::string &address, std::string *resolved,
         std::string *err)
{
    if (address.rfind("unix:", 0) == 0) {
        const std::string path = address.substr(5);
        struct sockaddr_un sa;
        std::memset(&sa, 0, sizeof sa);
        sa.sun_family = AF_UNIX;
        if (path.size() >= sizeof sa.sun_path) {
            if (err)
                *err = "unix socket path too long: " + path;
            return -1;
        }
        std::strncpy(sa.sun_path, path.c_str(), sizeof sa.sun_path - 1);
        ::unlink(path.c_str()); // stale socket from a previous run
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return fail(err, "socket");
        if (::bind(fd, reinterpret_cast<struct sockaddr *>(&sa),
                   sizeof sa) != 0 ||
            ::listen(fd, 128) != 0) {
            const int e = errno;
            ::close(fd);
            errno = e;
            return fail(err, "bind/listen " + address);
        }
        if (resolved)
            *resolved = address;
        return fd;
    }
    if (address.rfind("tcp:", 0) == 0) {
        std::string host;
        int port = 0;
        if (!splitTcp(address.substr(4), host, port)) {
            if (err)
                *err = "bad tcp address: " + address;
            return -1;
        }
        struct sockaddr_in sa;
        std::memset(&sa, 0, sizeof sa);
        sa.sin_family = AF_INET;
        sa.sin_port = htons(static_cast<uint16_t>(port));
        if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
            if (err)
                *err = "bad tcp host (use a literal IPv4 address): " +
                       host;
            return -1;
        }
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            return fail(err, "socket");
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        if (::bind(fd, reinterpret_cast<struct sockaddr *>(&sa),
                   sizeof sa) != 0 ||
            ::listen(fd, 128) != 0) {
            const int e = errno;
            ::close(fd);
            errno = e;
            return fail(err, "bind/listen " + address);
        }
        if (resolved) {
            struct sockaddr_in bound;
            socklen_t len = sizeof bound;
            if (::getsockname(
                    fd, reinterpret_cast<struct sockaddr *>(&bound),
                    &len) == 0) {
                *resolved = "tcp:" + host + ":" +
                            std::to_string(ntohs(bound.sin_port));
            } else {
                *resolved = address;
            }
        }
        return fd;
    }
    if (err)
        *err = "address must start with unix: or tcp:, got " + address;
    return -1;
}

} // namespace serve
} // namespace ladm
