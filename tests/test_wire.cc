/**
 * @file
 * Tests of the byte layer under the serve protocol and the record log:
 * the slicing-by-8 CRC32 against the bytewise reference, the buffered
 * FrameReader (pipelined frames, split frames, one deadline per frame),
 * the prebuilt cache-hit reply frame, and a seeded mutation fuzz of
 * frame reading and request/decision decoding.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include "common/rng.hh"
#include "common/serial.hh"
#include "mutate.hh"
#include "serve/cache.hh"
#include "serve/decision.hh"
#include "serve/wire.hh"

namespace ladm
{
namespace serve
{
namespace
{

/** The bytewise table loop crc32 replaced: the reference model. */
uint32_t
referenceCrc32(const void *data, size_t n)
{
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    uint32_t c = 0xFFFFFFFFu;
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < n; ++i)
        c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

/** A connected socket pair, closed on scope exit. */
struct SocketPair
{
    int fd[2] = {-1, -1};

    SocketPair()
    {
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fd) != 0)
            fd[0] = fd[1] = -1;
    }
    ~SocketPair()
    {
        closeWriter();
        if (fd[1] >= 0)
            ::close(fd[1]);
    }
    void
    closeWriter()
    {
        if (fd[0] >= 0)
            ::close(fd[0]);
        fd[0] = -1;
    }
    bool
    write(std::string_view bytes) const
    {
        return ::send(fd[0], bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
               static_cast<ssize_t>(bytes.size());
    }
};

PlacementRequest
sampleRequest()
{
    PlacementRequest req;
    req.kernelSource = R"(kernel vecadd(A, B, C) {
    let i = blockIdx.x * blockDim.x + threadIdx.x;
    read A[i] : f32;
    read B[i] : f32;
    write C[i] : f32;
})";
    req.dims.grid = {64, 1};
    req.dims.block = {256, 1};
    req.argBytes = {1u << 20, 1u << 20, 1u << 20};
    req.deadlineUs = 5000;
    return req;
}

std::string
sampleDecision()
{
    PlacementDecision d;
    d.key = {0x1234, 0x5678};
    d.scheduler = "lasp-row";
    d.policy = 1;
    d.schedulerReason = "row-major sweep";
    d.args = {{2, "A [RowHoriz]: row interleave"}, {0, ""}};
    return d.encode();
}

std::string
placePayload()
{
    ByteWriter w;
    sampleRequest().encode(w);
    return w.take();
}

std::string
errorPayload()
{
    ByteWriter w;
    w.u32(static_cast<uint32_t>(ErrCode::Busy));
    w.str("admission queue full");
    w.u32(20);
    w.u32(1);
    for (const char *s : {"field", "value", "constraint", "hint"})
        w.str(s);
    w.u32(static_cast<uint32_t>(ErrCode::Busy));
    return w.take();
}

/** Decode a payload the way its receiver would; SimError on garbage. */
void
decodePayload(const Frame &f)
{
    ByteReader r(f.payload);
    switch (f.type) {
    case MsgType::Place:
        (void)PlacementRequest::decode(r);
        break;
    case MsgType::Decision:
        (void)r.u8();
        (void)r.u8();
        (void)PlacementDecision::decode(r.view());
        break;
    case MsgType::Error: {
        (void)r.u32();
        (void)r.str();
        (void)r.u32();
        const uint32_t n = r.u32();
        for (uint32_t i = 0; i < n && i < 64; ++i) {
            for (int s = 0; s < 4; ++s)
                (void)r.str();
            (void)r.u32();
        }
        break;
    }
    default:
        break;
    }
}

// --- CRC32 ------------------------------------------------------------------

TEST(Crc32, KnownAnswers)
{
    EXPECT_EQ(serial::crc32("", 0), 0u);
    EXPECT_EQ(serial::crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(referenceCrc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment)
{
    Rng rng(42);
    std::vector<uint8_t> buf(1024 + 8);
    for (uint8_t &b : buf)
        b = static_cast<uint8_t>(rng.next());
    for (size_t off = 0; off < 8; ++off)
        for (size_t len = 0; len <= 1024; ++len)
            ASSERT_EQ(serial::crc32(buf.data() + off, len),
                      referenceCrc32(buf.data() + off, len))
                << "offset " << off << " length " << len;
}

// --- FrameReader ------------------------------------------------------------

TEST(FrameReader, PipelinedFramesComeBackInOrderFromOneRecv)
{
    SocketPair sp;
    ASSERT_GE(sp.fd[0], 0);
    const std::string a = placePayload();
    const std::string b = errorPayload();
    ASSERT_TRUE(sp.write(encodeFrame(MsgType::Place, a) +
                         encodeFrame(MsgType::Error, b) +
                         encodeFrame(MsgType::Ping, "")));

    FrameReader reader(sp.fd[1]);
    Frame f;
    ASSERT_EQ(reader.read(f, 1000), RecvStatus::Ok);
    EXPECT_EQ(f.type, MsgType::Place);
    EXPECT_EQ(f.payload, a);
    // The two frames behind it arrived with the same recv.
    EXPECT_EQ(reader.buffered(), 2 * kFrameHeaderBytes + b.size());
    ASSERT_EQ(reader.read(f, 0), RecvStatus::Ok);
    EXPECT_EQ(f.type, MsgType::Error);
    EXPECT_EQ(f.payload, b);
    ASSERT_EQ(reader.read(f, 0), RecvStatus::Ok);
    EXPECT_EQ(f.type, MsgType::Ping);
    EXPECT_TRUE(f.payload.empty());
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReader, SendFrameMatchesEncodeFrameByteForByte)
{
    SocketPair sp;
    ASSERT_GE(sp.fd[0], 0);
    const std::string payload = placePayload();
    ASSERT_TRUE(sendFrame(sp.fd[0], MsgType::Place, payload));
    const std::string want = encodeFrame(MsgType::Place, payload);
    std::string got(want.size(), '\0');
    ASSERT_EQ(::recv(sp.fd[1], got.data(), got.size(), MSG_WAITALL),
              static_cast<ssize_t>(want.size()));
    EXPECT_EQ(got, want);

    // Header layout: magic, version, type, reserved, length, CRC.
    uint32_t u;
    std::memcpy(&u, want.data(), 4);
    EXPECT_EQ(u, kFrameMagic);
    EXPECT_EQ(static_cast<uint8_t>(want[4]), kProtoVersion);
    EXPECT_EQ(static_cast<uint8_t>(want[5]),
              static_cast<uint8_t>(MsgType::Place));
    std::memcpy(&u, want.data() + 8, 4);
    EXPECT_EQ(u, payload.size());
    std::memcpy(&u, want.data() + 12, 4);
    EXPECT_EQ(u, referenceCrc32(payload.data(), payload.size()));
}

TEST(FrameReader, TrickledFrameTimesOutAtOneDeadlinePerFrame)
{
    // A peer that sends one byte every 40 ms must not stretch a 100 ms
    // read: the deadline covers the whole frame, not each recv.
    SocketPair sp;
    ASSERT_GE(sp.fd[0], 0);
    const std::string frame =
        encodeFrame(MsgType::Place, placePayload());
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        for (size_t i = 0; i < frame.size() && !stop.load(); ++i) {
            if (::send(sp.fd[0], frame.data() + i, 1, MSG_NOSIGNAL) != 1)
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(40));
        }
    });

    FrameReader reader(sp.fd[1]);
    Frame f;
    const auto t0 = std::chrono::steady_clock::now();
    const RecvStatus st = reader.read(f, 100);
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    stop.store(true);
    writer.join();
    EXPECT_EQ(st, RecvStatus::Timeout);
    EXPECT_GE(ms, 100);
    EXPECT_LT(ms, 300);
}

TEST(FrameReader, TruncatedFrameIsCorruptAndCleanCloseIsEof)
{
    const std::string frame = encodeFrame(MsgType::Place, placePayload());
    for (const size_t cut : {size_t{1}, kFrameHeaderBytes - 1,
                             kFrameHeaderBytes, frame.size() - 1}) {
        SocketPair sp;
        ASSERT_TRUE(sp.write(std::string_view(frame).substr(0, cut)));
        sp.closeWriter();
        FrameReader reader(sp.fd[1]);
        Frame f;
        EXPECT_EQ(reader.read(f, 1000), RecvStatus::Corrupt) << cut;
    }
    SocketPair sp;
    sp.closeWriter();
    FrameReader reader(sp.fd[1]);
    Frame f;
    EXPECT_EQ(reader.read(f, 1000), RecvStatus::Eof);
}

// --- the prebuilt hit frame --------------------------------------------------

TEST(ServeCache, HitFrameIsTheDecisionReplyByteForByte)
{
    const std::string encoded = sampleDecision();
    DecisionCache cache(4);
    const DecisionKey key{7, 9};
    EXPECT_EQ(cache.find(key), nullptr);
    ASSERT_TRUE(cache.put(key, encoded));
    EXPECT_FALSE(cache.put(key, "other bytes")); // the first frame wins

    // Hand-built: header, then flags degraded=0 cached=1 and the
    // length-prefixed decision, as the server always sent them.
    std::string payload;
    payload += '\0';
    payload += '\1';
    const uint32_t len = static_cast<uint32_t>(encoded.size());
    payload.append(reinterpret_cast<const char *>(&len), 4);
    payload += encoded;
    std::string want;
    const uint32_t magic = kFrameMagic;
    want.append(reinterpret_cast<const char *>(&magic), 4);
    want += static_cast<char>(kProtoVersion);
    want += static_cast<char>(MsgType::Decision);
    want.append(2, '\0');
    const uint32_t plen = static_cast<uint32_t>(payload.size());
    const uint32_t crc = referenceCrc32(payload.data(), payload.size());
    want.append(reinterpret_cast<const char *>(&plen), 4);
    want.append(reinterpret_cast<const char *>(&crc), 4);
    want += payload;

    const std::string *frame = cache.find(key);
    ASSERT_NE(frame, nullptr);
    EXPECT_EQ(*frame, want);
    EXPECT_EQ(cache.size(), 1u);
}

// --- seeded mutation fuzz ----------------------------------------------------

/**
 * Feed @p bytes through a socket pair into a FrameReader, split at the
 * given cut points (each piece a separate write, read between pieces),
 * then decode every frame that comes back. Returns the frames' payloads;
 * fails the test on any outcome other than the allowed ones.
 */
std::vector<std::string>
feed(const std::string &bytes, const std::vector<size_t> &cuts)
{
    SocketPair sp;
    EXPECT_GE(sp.fd[0], 0);
    FrameReader reader(sp.fd[1]);
    std::vector<std::string> payloads;
    auto drain = [&](int timeout_ms) {
        for (;;) {
            Frame f;
            const RecvStatus st = reader.read(f, timeout_ms);
            EXPECT_LE(reader.capacity(),
                      kFrameHeaderBytes + kMaxFrameBytes);
            if (st != RecvStatus::Ok) {
                EXPECT_TRUE(st == RecvStatus::Corrupt ||
                            st == RecvStatus::Eof ||
                            st == RecvStatus::Timeout)
                    << static_cast<int>(st);
                return st;
            }
            payloads.emplace_back(f.payload);
            try {
                decodePayload(f);
            } catch (const SimError &) {
                // Hostile payloads may fail to decode, structurally.
            } catch (const std::exception &e) {
                ADD_FAILURE() << "decode threw " << e.what();
            }
        }
    };
    size_t at = 0;
    for (const size_t cut : cuts) {
        EXPECT_TRUE(sp.write(std::string_view(bytes).substr(at, cut - at)));
        at = cut;
        if (drain(0) == RecvStatus::Corrupt)
            return payloads;
    }
    EXPECT_TRUE(sp.write(std::string_view(bytes).substr(at)));
    sp.closeWriter();
    drain(1000);
    return payloads;
}

/** Rewrite a frame image's CRC so a payload mutation reaches decode. */
void
fixCrc(std::string &frame)
{
    const uint32_t crc =
        serial::crc32(frame.data() + kFrameHeaderBytes,
                      frame.size() - kFrameHeaderBytes);
    std::memcpy(frame.data() + 12, &crc, 4);
}

TEST(FrameFuzz, SeededMutantsNeverCrashOrOverAllocate)
{
    const std::vector<std::pair<MsgType, std::string>> seeds = {
        {MsgType::Place, placePayload()},
        {MsgType::Decision, decisionReply(sampleDecision(), false, true)},
        {MsgType::Error, errorPayload()},
    };
    const uint32_t lengths[] = {0u,
                                1u,
                                kMaxFrameBytes - 1,
                                kMaxFrameBytes,
                                kMaxFrameBytes + 1,
                                0x7FFFFFFFu,
                                0xFFFFFFFFu};
    Rng rng(20261017);
    int mutants = 0;
    for (const auto &[type, payload] : seeds) {
        const std::string valid = encodeFrame(type, payload);

        // Random splits of valid frames come back exactly.
        for (int i = 0; i < 64; ++i) {
            const std::string two = valid + valid;
            const auto got =
                feed(two, mutate::randomCuts(rng, two.size(), 6));
            ASSERT_EQ(got.size(), 2u);
            EXPECT_EQ(got[0], payload);
            EXPECT_EQ(got[1], payload);
        }

        for (int i = 0; i < 1000; ++i, ++mutants) {
            std::string m = valid;
            switch (rng.nextBounded(5)) {
            case 0: // bit flips anywhere, CRC left stale
                mutate::flipBits(rng, m, 0, 3);
                break;
            case 1: // bit flips in the payload, CRC fixed up
                if (m.size() > kFrameHeaderBytes) {
                    mutate::flipBits(rng, m, kFrameHeaderBytes, 4);
                    fixCrc(m);
                }
                break;
            case 2: // a hostile u32 (a length or count) inside the payload
                if (m.size() >= kFrameHeaderBytes + 4) {
                    const uint32_t v =
                        lengths[rng.nextBounded(std::size(lengths))];
                    std::memcpy(m.data() + kFrameHeaderBytes +
                                    rng.nextBounded(m.size() -
                                                    kFrameHeaderBytes - 3),
                                &v, 4);
                    fixCrc(m);
                }
                break;
            case 3: // truncation
                mutate::truncate(rng, m);
                break;
            default: { // the frame length field
                const uint32_t v = rng.nextBounded(2)
                                       ? lengths[rng.nextBounded(
                                             std::size(lengths))]
                                       : static_cast<uint32_t>(rng.next());
                std::memcpy(m.data() + 8, &v, 4);
                break;
            }
            }
            feed(m, mutate::randomCuts(rng, m.size(), 4));
            if (HasFailure())
                FAIL() << "mutant " << i << " of seed type "
                       << static_cast<int>(type);
        }
    }
    EXPECT_EQ(mutants, 3000);
}

} // namespace
} // namespace serve
} // namespace ladm
