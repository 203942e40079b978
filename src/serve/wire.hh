/**
 * @file
 * Wire layer of the placement-advisor service: byte-level encoding and
 * length-prefixed framing over a Unix or TCP socket.
 *
 * A frame is
 *
 *   u32 magic 'LSRV' | u8 version | u8 type | u16 reserved |
 *   u32 payload length | u32 CRC32(payload) | payload
 *
 * The CRC turns a bit-flipped or truncated frame into a structured
 * CORRUPT_FRAME error instead of a desynchronized stream: both sides
 * validate every frame before decoding a byte of payload (the serve
 * fault injector corrupts frames deliberately to exercise exactly this
 * path). Scalars are little-endian; both ends of a connection are
 * assumed same-machine or same-arch, like the checkpoint format.
 *
 * Addresses are strings so every flag/env knob can carry one:
 *
 *   unix:/path/to.sock      Unix domain stream socket
 *   tcp:host:port           TCP (port 0 picks a free port; the resolved
 *                           address comes back from listenOn)
 */

#ifndef LADM_SERVE_WIRE_HH
#define LADM_SERVE_WIRE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_error.hh"

namespace ladm
{
namespace serve
{

constexpr uint32_t kFrameMagic = 0x4C535256; // "LSRV"
constexpr uint8_t kProtoVersion = 1;

/** Frame types of the serve protocol (docs/serving.md). */
enum class MsgType : uint8_t
{
    Place = 1,      ///< client -> server: placement request
    Decision = 2,   ///< server -> client: placement decision
    Error = 3,      ///< server -> client: structured error
    Stats = 4,      ///< client -> server: telemetry snapshot request
    StatsReply = 5, ///< server -> client: flat path/value stat rows
    Ping = 6,       ///< client -> server: liveness probe
    Pong = 7,       ///< server -> client: liveness answer
};

/** Append-only little-endian byte buffer for payload encoding. */
class ByteWriter
{
  public:
    void u8(uint8_t v) { raw(&v, 1); }
    void u16(uint16_t v) { raw(&v, sizeof v); }
    void u32(uint32_t v) { raw(&v, sizeof v); }
    void u64(uint64_t v) { raw(&v, sizeof v); }
    void i64(int64_t v) { raw(&v, sizeof v); }
    void f64(double v) { raw(&v, sizeof v); }
    void
    str(std::string_view s)
    {
        u32(static_cast<uint32_t>(s.size()));
        raw(s.data(), s.size());
    }

    const std::string &data() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    void raw(const void *p, size_t n);

    std::string buf_;
};

/**
 * Bounds-checked cursor over a received payload. Overruns throw
 * SimError(Io) with ErrCode::CorruptFrame -- a short payload means the
 * frame lied about its contents even though the CRC matched (a buggy or
 * hostile peer), and the connection handler maps that to a structured
 * error instead of reading garbage. The viewed bytes must outlive the
 * reader.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view buf) : buf_(buf) {}

    uint8_t u8();
    uint16_t u16();
    uint32_t u32();
    uint64_t u64();
    int64_t i64();
    double f64();
    /** A length-prefixed string, copied out. */
    std::string str() { return std::string(view()); }
    /** A length-prefixed string, viewed in place. */
    std::string_view view();
    /**
     * An element count for a list whose elements take at least
     * @p min_elem_bytes each: a count the remaining payload cannot hold
     * throws CorruptFrame before the caller reserves memory for it.
     */
    uint32_t count(size_t min_elem_bytes);

    bool atEnd() const { return pos_ == buf_.size(); }

  private:
    void raw(void *p, size_t n);

    std::string_view buf_;
    size_t pos_ = 0;
};

/** Outcome of FrameReader::read. */
enum class RecvStatus
{
    Ok,      ///< a validated frame was read
    Eof,     ///< clean end of stream before any frame byte
    Corrupt, ///< bad magic/version/CRC, oversized or truncated frame
    Timeout, ///< no full frame within the timeout
    Error,   ///< socket error (errno-level)
};

/** Bytes of the fixed frame header ahead of the payload. */
constexpr size_t kFrameHeaderBytes = 16;
/** Frames above this are rejected before allocation (DoS guard). */
constexpr uint32_t kMaxFrameBytes = 16u << 20;

/** One received frame; the payload views the reader's buffer. */
struct Frame
{
    MsgType type = MsgType::Ping;
    std::string_view payload;
};

/**
 * Buffered frame reader for one connection. Each read() takes whatever
 * the socket holds in one recv(2), so a frame that arrived whole costs
 * one syscall and a frame already buffered behind the previous one
 * (pipelined requests) costs none. The buffer grows with the bytes that
 * actually arrive, never past one header plus kMaxFrameBytes.
 */
class FrameReader
{
  public:
    explicit FrameReader(int fd = -1) : fd_(fd) {}

    /** Switch to @p fd (a new connection); drops buffered bytes. */
    void reset(int fd);

    /**
     * Read and validate the next frame. @p timeout_ms < 0 waits
     * forever; otherwise it is one absolute deadline for the whole
     * frame, however its bytes trickle in. On Ok, @p out.payload stays
     * valid until the next read() or reset(). On Corrupt the stream
     * position is unrecoverable; close the connection.
     */
    RecvStatus read(Frame &out, int timeout_ms = -1);

    /** Bytes received but not yet returned as frames. */
    size_t buffered() const { return end_ - begin_; }
    /** Current buffer allocation, in bytes. */
    size_t capacity() const { return buf_.size(); }

  private:
    /** One recv(2) into the free tail, polling first when timed. */
    RecvStatus fill(int64_t deadline_ns);

    int fd_;
    std::vector<char> buf_;
    size_t begin_ = 0; ///< first unread byte
    size_t end_ = 0;   ///< one past the last received byte
};

/**
 * The complete wire image of one frame: header, CRC and payload. A
 * prebuilt image goes out later with sendBytes(), encoded once.
 */
std::string encodeFrame(MsgType type, std::string_view payload);

/**
 * Send one frame: header and payload leave in one sendmsg(2) without
 * being copied together. @p corrupt_payload deliberately flips a
 * payload byte AFTER the CRC is computed -- the fault injector's hook;
 * never set otherwise. Returns false on socket error (connection gone).
 */
bool sendFrame(int fd, MsgType type, std::string_view payload,
               bool corrupt_payload = false);

/**
 * Send an encodeFrame() image in full. @p corrupt_payload flips the
 * same payload byte sendFrame() would, in a copy.
 */
bool sendBytes(int fd, std::string_view frame,
               bool corrupt_payload = false);

/**
 * Connect to @p address ("unix:..." or "tcp:host:port").
 * @return connected fd, or -1 with @p err describing the failure.
 */
int connectTo(const std::string &address, std::string *err);

/**
 * Bind + listen on @p address. Port 0 in a tcp address resolves to a
 * free port; @p resolved (may be null) receives the final address.
 * @return listening fd, or -1 with @p err describing the failure.
 */
int listenOn(const std::string &address, std::string *resolved,
             std::string *err);

} // namespace serve
} // namespace ladm

#endif // LADM_SERVE_WIRE_HH
