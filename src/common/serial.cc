#include "common/serial.hh"

#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/sim_error.hh"

namespace ladm
{
namespace serial
{

namespace
{

constexpr char kMagic[8] = {'L', 'A', 'D', 'M', 'S', 'N', 'A', 'P'};

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables: kCrc[0] is the classic bytewise table, and
 * kCrc[k][i] is the CRC of byte i followed by k zero bytes, so one
 * lookup per byte of an 8-byte word folds the whole word at once.
 */
constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k)
        for (uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

constexpr CrcTables kCrc = makeCrcTables();

static_assert(kCrc[0][1] == 0x77073096u, "CRC-32 table");

} // namespace

uint32_t
crc32(const void *data, size_t n)
{
    uint32_t c = 0xFFFFFFFFu;
    const auto *p = static_cast<const uint8_t *>(data);
    if constexpr (std::endian::native == std::endian::little) {
        for (; n >= 8; p += 8, n -= 8) {
            uint32_t lo, hi;
            std::memcpy(&lo, p, 4);
            std::memcpy(&hi, p + 4, 4);
            lo ^= c;
            c = kCrc[7][lo & 0xFFu] ^ kCrc[6][(lo >> 8) & 0xFFu] ^
                kCrc[5][(lo >> 16) & 0xFFu] ^ kCrc[4][lo >> 24] ^
                kCrc[3][hi & 0xFFu] ^ kCrc[2][(hi >> 8) & 0xFFu] ^
                kCrc[1][(hi >> 16) & 0xFFu] ^ kCrc[0][hi >> 24];
        }
    }
    for (; n > 0; ++p, --n)
        c = kCrc[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

bool
Writer::section(uint32_t id, bool)
{
    seal();
    open_ = true;
    sectionId_ = id;
    section_.clear();
    return true;
}

void
Writer::seal()
{
    if (!open_)
        return;
    open_ = false;
    const uint64_t len = section_.size();
    const uint32_t crc = crc32(section_.data(), section_.size());
    buf_.append(reinterpret_cast<const char *>(&sectionId_),
                sizeof sectionId_);
    buf_.append(reinterpret_cast<const char *>(&len), sizeof len);
    buf_.append(reinterpret_cast<const char *>(&crc), sizeof crc);
    buf_ += section_;
    ++count_;
}

std::string
Writer::finish(uint64_t fingerprint)
{
    seal();
    std::string out;
    out.reserve(sizeof kMagic + 16 + buf_.size());
    out.append(kMagic, sizeof kMagic);
    const uint32_t ver = kFormatVersion;
    out.append(reinterpret_cast<const char *>(&ver), sizeof ver);
    out.append(reinterpret_cast<const char *>(&fingerprint),
               sizeof fingerprint);
    out.append(reinterpret_cast<const char *>(&count_), sizeof count_);
    out += buf_;
    buf_.clear();
    count_ = 0;
    return out;
}

void
Writer::bytes(const void *p, size_t n)
{
    ladm_assert(open_, "serial::Writer: write outside a section");
    section_.append(static_cast<const char *>(p), n);
}

Reader::Reader(std::string image) : image_(std::move(image))
{
    size_t off = 0;
    auto take = [&](void *p, size_t n, const char *what) {
        if (off + n > image_.size())
            corrupt(std::string("truncated ") + what);
        std::memcpy(p, image_.data() + off, n);
        off += n;
    };

    char magic[sizeof kMagic];
    take(magic, sizeof magic, "header");
    if (std::memcmp(magic, kMagic, sizeof kMagic) != 0)
        corrupt("bad magic (not a ladm checkpoint)");
    uint32_t ver = 0;
    take(&ver, sizeof ver, "header");
    if (ver != kFormatVersion) {
        corrupt("format version " + std::to_string(ver) +
                ", this build reads version " +
                std::to_string(kFormatVersion));
    }
    take(&fingerprint_, sizeof fingerprint_, "header");
    uint32_t count = 0;
    take(&count, sizeof count, "header");

    for (uint32_t s = 0; s < count; ++s) {
        uint32_t id = 0, crc = 0;
        uint64_t len = 0;
        take(&id, sizeof id, "section header");
        take(&len, sizeof len, "section header");
        take(&crc, sizeof crc, "section header");
        if (len > image_.size() - off)
            corrupt("section " + std::to_string(id) +
                    " runs past end of file");
        if (crc32(image_.data() + off, static_cast<size_t>(len)) != crc)
            corrupt("section " + std::to_string(id) + " CRC mismatch");
        sections_[id] = Span{off, static_cast<size_t>(len)};
        off += static_cast<size_t>(len);
    }
    if (off != image_.size())
        corrupt("trailing bytes after last section");
}

Reader
Reader::fromFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw SimError(SimError::Kind::Config,
                       "cannot open checkpoint",
                       {{"checkpoint.path", path, "file must exist and "
                         "be readable",
                         "check the --resume path"}});
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return Reader(ss.str());
}

bool
Reader::section(uint32_t id, bool optional)
{
    auto it = sections_.find(id);
    if (it == sections_.end()) {
        if (optional)
            return false;
        corrupt("section " + std::to_string(id) + " missing");
    }
    cur_ = it->second.off;
    end_ = it->second.off + it->second.len;
    return true;
}

void
Reader::bytes(void *p, size_t n)
{
    if (n > end_ - cur_)
        corrupt("read past end of section");
    if (n != 0) // an empty vector's data() may be null
        std::memcpy(p, image_.data() + cur_, n);
    cur_ += n;
}

void
Reader::checkCount(uint64_t n, size_t elem) const
{
    if (n > (end_ - cur_) / elem)
        corrupt("element count exceeds section size");
}

void
Reader::mismatch(const char *what, uint64_t got, uint64_t want) const
{
    throw SimError(
        SimError::Kind::Config, "checkpoint state mismatch",
        {{"checkpoint.state",
          std::string(what) + ": checkpoint has " + std::to_string(got) +
              ", simulator has " + std::to_string(want),
          "restored structure must match the constructed simulator",
          "the checkpoint was written by a different configuration or "
          "build; re-run without --resume"}});
}

void
Reader::corrupt(const std::string &why) const
{
    throw SimError(
        SimError::Kind::Config, "corrupt or incompatible checkpoint",
        {{"checkpoint.image", why,
          "checkpoint must be a complete file written by this build",
          "re-run without --resume, or point --resume at an intact "
          "checkpoint"}});
}

} // namespace serial
} // namespace ladm
