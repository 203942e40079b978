/**
 * @file
 * Sectioned binary serialization for checkpoint files (ladm::snapshot).
 *
 * A checkpoint is a flat byte container:
 *
 *   magic "LADMSNAP" | u32 format version | u64 config fingerprint |
 *   u32 section count | sections...
 *
 * and each section is
 *
 *   u32 section id | u64 payload length | u32 CRC32(payload) | payload
 *
 * The Writer accumulates sections in memory; finish() returns the whole
 * file image so the caller can write it atomically (tmp + fsync +
 * rename, see common/atomic_file.hh). The Reader maps the image back,
 * verifying the magic, version, and every section CRC up front -- a
 * truncated or bit-flipped checkpoint surfaces as a recoverable
 * SimError, never as garbage state or a crash.
 *
 * Scalars are stored in the host's native little-endian layout:
 * checkpoints are same-machine restart artifacts (like core dumps), not
 * portable interchange files.
 */

#ifndef LADM_COMMON_SERIAL_HH
#define LADM_COMMON_SERIAL_HH

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace ladm
{
namespace serial
{

/** CRC-32 (IEEE 802.3 polynomial, as in zip/png). */
uint32_t crc32(const void *data, size_t n);

/** Current checkpoint format version; bump on any layout change. */
constexpr uint32_t kFormatVersion = 3;

class Writer
{
  public:
    /** Open a new section; sections may not nest. */
    void beginSection(uint32_t id);
    /** Seal the open section (patches length + CRC into the image). */
    void endSection();

    void u8(uint8_t v) { raw(&v, 1); }
    void u32(uint32_t v) { raw(&v, sizeof v); }
    void u64(uint64_t v) { raw(&v, sizeof v); }
    void i64(int64_t v) { raw(&v, sizeof v); }
    void f64(double v) { raw(&v, sizeof v); }
    void str(const std::string &s)
    {
        u64(s.size());
        raw(s.data(), s.size());
    }
    /** Length-prefixed vector of trivially-copyable elements. */
    template <typename T, typename A>
    void
    vec(const std::vector<T, A> &v)
    {
        u64(v.size());
        raw(v.data(), v.size() * sizeof(T));
    }

    /**
     * Seal the image: prepend the header and return the complete file
     * bytes. The Writer is spent afterwards.
     */
    std::string finish(uint64_t fingerprint);

  private:
    void raw(const void *p, size_t n);

    std::string buf_;          ///< concatenated sealed sections
    std::string section_;      ///< payload of the open section
    uint32_t sectionId_ = 0;
    bool open_ = false;
    uint32_t count_ = 0;
};

class Reader
{
  public:
    /**
     * Parse and validate a checkpoint image (magic, version, all
     * section CRCs). Throws SimError(Config) on any corruption.
     */
    explicit Reader(std::string image);

    /** Convenience: read the file and construct. Throws SimError. */
    static Reader fromFile(const std::string &path);

    uint64_t fingerprint() const { return fingerprint_; }
    bool hasSection(uint32_t id) const
    {
        return sections_.count(id) != 0;
    }

    /** Position the cursor at a section's payload; throws if absent. */
    void openSection(uint32_t id);

    uint8_t u8()
    {
        uint8_t v;
        raw(&v, 1);
        return v;
    }
    uint32_t u32()
    {
        uint32_t v;
        raw(&v, sizeof v);
        return v;
    }
    uint64_t u64()
    {
        uint64_t v;
        raw(&v, sizeof v);
        return v;
    }
    int64_t i64()
    {
        int64_t v;
        raw(&v, sizeof v);
        return v;
    }
    double f64()
    {
        double v;
        raw(&v, sizeof v);
        return v;
    }
    std::string str();
    template <typename T, typename A>
    void
    vec(std::vector<T, A> &out)
    {
        const uint64_t n = u64();
        checkCount(n, sizeof(T));
        out.resize(static_cast<size_t>(n));
        if (!out.empty()) // an empty vector's data() may be null
            raw(out.data(), out.size() * sizeof(T));
    }

  private:
    struct Span
    {
        size_t off;
        size_t len;
    };

    void raw(void *p, size_t n);
    void checkCount(uint64_t n, size_t elem) const;
    [[noreturn]] void corrupt(const std::string &why) const;

    std::string image_;
    uint64_t fingerprint_ = 0;
    std::map<uint32_t, Span> sections_;
    size_t cur_ = 0; ///< cursor into image_
    size_t end_ = 0; ///< exclusive end of the open section
};

} // namespace serial
} // namespace ladm

#endif // LADM_COMMON_SERIAL_HH
