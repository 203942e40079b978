/**
 * @file
 * Allocations and address helpers.
 *
 * Every cudaMallocManaged() in a workload becomes one Allocation in the
 * unified virtual address space. Allocations are identified by the
 * MallocPC, the (simulated) program counter of the allocating call site,
 * which is how the compiler's locality table rows are bound to runtime
 * addresses (Fig. 5 of the paper).
 */

#ifndef LADM_MEM_ADDRESS_HH
#define LADM_MEM_ADDRESS_HH

#include <string>

#include "common/types.hh"

namespace ladm
{

/** One managed allocation in the unified address space. */
struct Allocation
{
    /** Call-site identifier binding this allocation to locality-table rows. */
    uint64_t mallocPc = 0;
    /** Base virtual address (page aligned). */
    Addr base = kInvalidAddr;
    /** Size in bytes as requested. */
    Bytes size = 0;
    /** Human-readable name ("A", "B", "csr.rowptr", ...). */
    std::string name;

    Addr end() const { return base + size; }
    bool contains(Addr a) const { return a >= base && a < end(); }
};

/**
 * Exclusive upper bound of the simulated address space (128 GiB less one
 * sector). Line indices stay below 2^30, so a line key (index + 1) fits
 * the MSHR table's 32-bit keys and the caches' 31-bit tags;
 * MallocRegistry refuses any allocation that would end past it.
 */
constexpr Addr kMaxSimAddr = ((Addr{1} << 32) - 1) * kSectorSize;

/** Page number of an address for the given page size. */
inline uint64_t
pageOf(Addr a, Bytes page_size)
{
    return a / page_size;
}

/** Sector-aligned base address of @p a. */
inline Addr
sectorBase(Addr a)
{
    return a & ~(kSectorSize - 1);
}

/** Line-aligned base address of @p a. */
inline Addr
lineBase(Addr a)
{
    return a & ~(kLineSize - 1);
}

} // namespace ladm

#endif // LADM_MEM_ADDRESS_HH
