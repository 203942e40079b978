/**
 * @file
 * Sectioned binary serialization for checkpoint files (ladm::snapshot),
 * and the field-list archives that read, write and hash them.
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
 * A checkpointed type lists its fields once, in
 *
 *   template <class Ar> void io(Ar &ar) { ar(a_, b_, c_); }
 *
 * and the same list writes a checkpoint (Writer), restores one (Reader)
 * and hashes the state (Hasher, FNV-1a over the bytes a Writer would
 * emit). Ar::kLoading says which way the walk runs; load-side checks sit
 * behind expect() or `if constexpr (Ar::kLoading)`.
 *
 * Scalars are stored in the host's native little-endian layout:
 * checkpoints are same-machine restart artifacts (like core dumps), not
 * portable interchange files.
 */

#ifndef LADM_COMMON_SERIAL_HH
#define LADM_COMMON_SERIAL_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace ladm
{
namespace serial
{

/**
 * CRC-32 (IEEE 802.3 polynomial, as in zip/png), slicing-by-8: every
 * frame, record-log record and checkpoint section is checked with it.
 */
uint32_t crc32(const void *data, size_t n);

/** Current checkpoint format version; bump on any layout change. */
constexpr uint32_t kFormatVersion = 8;

/**
 * Safe to copy as raw bytes: every byte of a T is part of its value (no
 * padding), so a loaded image can hold nothing a T could not.
 */
template <class T>
inline constexpr bool kRawCopyable =
    std::is_trivially_copyable_v<T> &&
    (std::is_arithmetic_v<T> ||
     std::has_unique_object_representations_v<T>);

template <class T>
struct IsVector : std::false_type
{
};
template <class T, class A>
struct IsVector<std::vector<T, A>> : std::true_type
{
};

template <class T>
struct IsStdArray : std::false_type
{
};
template <class T, size_t N>
struct IsStdArray<std::array<T, N>> : std::true_type
{
};

/**
 * The field walk shared by Writer, Reader and Hasher (CRTP: @p Ar is the
 * archive, which supplies bytes() and section()).
 */
template <class Ar>
class Archive
{
  public:
    /**
     * Visit each field in order. A field is a type with an io() member,
     * a raw-copyable scalar or struct, a bool, a std::string, a
     * std::vector (length-prefixed; a load resizes it), a fixed-size
     * array, a map (length-prefixed, visited in sorted key order; a load
     * replaces its contents), or a pointer (its target is visited).
     * Enums take choice() so a load can range-check them.
     */
    template <class... T>
    void
    operator()(T &...fields)
    {
        (field(fields), ...);
    }

    /** An enum stored as its underlying integer; loads refuse > @p last. */
    template <class E>
    void
    choice(E &e, E last)
    {
        auto v = static_cast<std::underlying_type_t<E>>(e);
        field(v);
        if constexpr (Ar::kLoading) {
            // A negative value wraps past any enumerator too.
            if (static_cast<uint64_t>(v) > static_cast<uint64_t>(last))
                self().corrupt("enum value out of range");
            e = static_cast<E>(v);
        }
    }

    /**
     * A container whose length the configuration fixes (one cache per
     * SM, ...): the length is stored, a load refuses any other length,
     * and the elements load in place.
     */
    template <class C>
    void
    fixed(C &c, const char *what)
    {
        uint64_t n = c.size();
        field(n);
        expect(n, c.size(), what);
        elements(c);
    }

    /**
     * A map whose existing entries must survive a load (handed-out
     * references, entries the restoring run registered that the image
     * lacks): a load only fills @p slot(key) for each stored key.
     * Writing and hashing visit the entries in ascending key order.
     */
    template <class M, class Slot>
    void
    merge(M &m, Slot slot)
    {
        const size_t n = count(m.size(), 1);
        if constexpr (Ar::kLoading) {
            for (size_t i = 0; i < n; ++i) {
                typename M::key_type k{};
                field(k);
                field(slot(k));
            }
        } else if constexpr (requires { typename M::key_compare; }) {
            for (auto &[k, v] : m) {
                field(k);
                field(v);
            }
        } else {
            std::vector<typename M::value_type *> es;
            es.reserve(n);
            for (auto &e : m)
                es.push_back(&e);
            std::sort(es.begin(), es.end(),
                      [](auto *a, auto *b) { return a->first < b->first; });
            for (auto *e : es) {
                field(e->first);
                field(e->second);
            }
        }
    }
    template <class M>
    void
    merge(M &m)
    {
        merge(m, [&m](const auto &k) -> auto & { return m[k]; });
    }

    /** Load-side structural check: @p got must equal @p want. */
    void
    expect(uint64_t got, uint64_t want, const char *what)
    {
        if constexpr (Ar::kLoading) {
            if (got != want)
                self().mismatch(what, got, want);
        }
    }

  private:
    /** Vector / array elements that travel as one block of raw bytes. */
    template <class E>
    static constexpr bool kBulk =
        kRawCopyable<E> && !std::is_same_v<E, bool> && !std::is_enum_v<E> &&
        !std::is_pointer_v<E> && !requires(E &e, Ar &ar) { e.io(ar); };

    Ar &self() { return static_cast<Ar &>(*this); }

    /** A length prefix; a load bounds it by the bytes left. */
    size_t
    count(size_t n, size_t min_bytes)
    {
        uint64_t v = n;
        self().bytes(&v, sizeof v);
        if constexpr (Ar::kLoading)
            self().checkCount(v, min_bytes);
        return static_cast<size_t>(v);
    }

    template <class T>
    void
    field(T &v)
    {
        using U = std::remove_cv_t<T>;
        if constexpr (requires(Ar &ar) { v.io(ar); }) {
            v.io(self());
        } else if constexpr (std::is_same_v<U, bool>) {
            uint8_t b = v;
            self().bytes(&b, 1);
            if constexpr (Ar::kLoading)
                v = b != 0;
        } else if constexpr (std::is_enum_v<U>) {
            static_assert(!Ar::kLoading, "load enums through choice()");
            const auto u = static_cast<std::underlying_type_t<U>>(v);
            field(u);
        } else if constexpr (std::is_pointer_v<U>) {
            field(*v);
        } else if constexpr (std::is_same_v<U, std::string>) {
            const size_t n = count(v.size(), 1);
            if constexpr (Ar::kLoading)
                v.resize(n);
            self().bytes(v.data(), n);
        } else if constexpr (IsVector<U>::value) {
            using E = typename U::value_type;
            const size_t n = count(v.size(), kBulk<E> ? sizeof(E) : 1);
            if constexpr (Ar::kLoading)
                v.resize(n);
            elements(v);
        } else if constexpr (std::is_array_v<U> || IsStdArray<U>::value) {
            elements(v);
        } else if constexpr (requires { typename U::mapped_type; }) {
            if constexpr (Ar::kLoading)
                v.clear();
            merge(v);
        } else {
            static_assert(kRawCopyable<U>,
                          "a field without io() is copied as raw bytes, so "
                          "it must be trivially copyable and padding-free "
                          "(arithmetic or uniquely represented)");
            self().bytes(&v, sizeof v);
        }
    }

    template <class C>
    void
    elements(C &c)
    {
        using E = std::remove_cvref_t<decltype(*std::begin(c))>;
        if constexpr (kBulk<E>) {
            if (std::size(c) != 0)
                self().bytes(std::data(c), std::size(c) * sizeof(E));
        } else {
            for (auto &e : c)
                field(e);
        }
    }
};

class Writer : public Archive<Writer>
{
  public:
    static constexpr bool kLoading = false;

    /**
     * Seal the open section, if any, and open section @p id. Always
     * true (the Reader's optional sections may be absent).
     */
    bool section(uint32_t id, bool optional = false);

    void bytes(const void *p, size_t n);

    /**
     * Seal the image: prepend the header and return the complete file
     * bytes. The Writer is spent afterwards.
     */
    std::string finish(uint64_t fingerprint);

  private:
    void seal();

    std::string buf_;          ///< concatenated sealed sections
    std::string section_;      ///< payload of the open section
    uint32_t sectionId_ = 0;
    bool open_ = false;
    uint32_t count_ = 0;
};

class Reader : public Archive<Reader>
{
  public:
    static constexpr bool kLoading = true;

    /**
     * Parse and validate a checkpoint image (magic, version, all
     * section CRCs). Throws SimError(Config) on any corruption.
     */
    explicit Reader(std::string image);

    /** Convenience: read the file and construct. Throws SimError. */
    static Reader fromFile(const std::string &path);

    uint64_t fingerprint() const { return fingerprint_; }

    /**
     * Position the cursor at section @p id's payload. A missing section
     * throws, unless @p optional, which returns false instead.
     */
    bool section(uint32_t id, bool optional = false);

    void bytes(void *p, size_t n);

  private:
    friend class Archive<Reader>;

    struct Span
    {
        size_t off;
        size_t len;
    };

    void checkCount(uint64_t n, size_t elem) const;
    [[noreturn]] void corrupt(const std::string &why) const;
    /** Structural mismatch AFTER the CRC/fingerprint checks passed. */
    [[noreturn]] void mismatch(const char *what, uint64_t got,
                               uint64_t want) const;

    std::string image_;
    uint64_t fingerprint_ = 0;
    std::map<uint32_t, Span> sections_;
    size_t cur_ = 0; ///< cursor into image_
    size_t end_ = 0; ///< exclusive end of the open section
};

/**
 * FNV-1a, one byte at a time, over the bytes a Writer would emit for the
 * same walk (section framing excluded). Allocation-free and inline: the
 * placement server hashes every request with it.
 */
class Hasher : public Archive<Hasher>
{
  public:
    static constexpr bool kLoading = false;

    /** @param basis offset basis; FNV-1a's own unless a key pins another */
    explicit Hasher(uint64_t basis = 0xcbf29ce484222325ull) : h_(basis) {}

    bool section(uint32_t, bool = false) { return true; }

    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const uint8_t *>(p);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ull;
        }
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_;
};

} // namespace serial
} // namespace ladm

/** Explicitly instantiate T::io for the three archives. */
#define LADM_SERIAL_INSTANTIATE(T)                                          \
    template void T::io(::ladm::serial::Writer &);                          \
    template void T::io(::ladm::serial::Reader &);                          \
    template void T::io(::ladm::serial::Hasher &)

#endif // LADM_COMMON_SERIAL_HH
