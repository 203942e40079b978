/**
 * @file
 * HostLineAllocator: an allocator that starts every array on a 64-byte
 * host cache line, so a hot structure's fixed-size groups (a cache set,
 * a heap node's children) never straddle two lines.
 */

#ifndef LADM_COMMON_HOST_LINE_HH
#define LADM_COMMON_HOST_LINE_HH

#include <cstddef>
#include <new>

namespace ladm
{

/** Host cache line size the hot arrays are laid out for. */
constexpr size_t kHostLine = 64;

template <typename T>
struct HostLineAllocator
{
    using value_type = T;
    static constexpr std::align_val_t kAlign{kHostLine};

    HostLineAllocator() = default;
    template <typename U>
    HostLineAllocator(const HostLineAllocator<U> &)
    {
    }
    T *
    allocate(size_t n)
    {
        return static_cast<T *>(::operator new(n * sizeof(T), kAlign));
    }
    void deallocate(T *p, size_t) { ::operator delete(p, kAlign); }
    template <typename U>
    bool
    operator==(const HostLineAllocator<U> &) const
    {
        return true;
    }
};

} // namespace ladm

#endif // LADM_COMMON_HOST_LINE_HH
