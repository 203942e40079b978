#include "runtime/malloc_registry.hh"

#include "common/bitutils.hh"
#include "common/sim_error.hh"

namespace ladm
{

MallocRegistry::MallocRegistry(Bytes page_size, Bytes guard)
    : pageSize_(page_size), guard_(roundUp(guard, page_size)),
      next_(page_size) // keep address 0 unmapped
{
}

Addr
MallocRegistry::mallocManaged(uint64_t malloc_pc, Bytes size,
                              const std::string &name)
{
    ladm_require(size > 0, "zero-byte allocation '", name, "'");
    for (const auto &a : allocs_) {
        ladm_require(a.mallocPc != malloc_pc, "duplicate MallocPC ",
                     malloc_pc, " ('", a.name, "' vs '", name, "')");
    }
    ladm_require(size <= kMaxSimAddr && next_ <= kMaxSimAddr - size,
                 "allocation '", name, "' of ", size,
                 " bytes at address ", next_,
                 " ends past the 128 GiB simulated address space");
    Allocation a;
    a.mallocPc = malloc_pc;
    a.base = next_;
    a.size = size;
    a.name = name;
    allocs_.push_back(a);
    next_ = roundUp(next_ + size, pageSize_) + guard_;
    return a.base;
}

const Allocation &
MallocRegistry::byPc(uint64_t malloc_pc) const
{
    for (const auto &a : allocs_)
        if (a.mallocPc == malloc_pc)
            return a;
    throw SimError(SimError::Kind::Usage,
                   "no allocation registered for MallocPC " +
                       std::to_string(malloc_pc));
}

const Allocation *
MallocRegistry::byAddr(Addr addr) const
{
    for (const auto &a : allocs_)
        if (a.contains(addr))
            return &a;
    return nullptr;
}

Bytes
MallocRegistry::totalBytes() const
{
    Bytes total = 0;
    for (const auto &a : allocs_)
        total += a.size;
    return total;
}

} // namespace ladm
