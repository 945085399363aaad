/**
 * @file
 * Cache-block-aligned bump allocator with size-class free lists for the
 * simulated NVMM heap.
 *
 * The allocator's own metadata is volatile: as in the paper's benchmarks,
 * a deleted node is not immediately garbage collected so it can be
 * reclaimed if a transaction fails, and leaked nodes after a crash are
 * tolerated (a persistent allocator is orthogonal to the paper's claims).
 * Allocation order is deterministic, which crash-recovery tests rely on to
 * replay a workload functionally and compare images.
 */

#ifndef SP_PMEM_ALLOCATOR_HH
#define SP_PMEM_ALLOCATOR_HH

#include <cstdint>
#include <map>
#include <vector>

#include "sim/types.hh"

namespace sp
{


/** Deterministic bump allocator over [base, base+size). */
class NvmAllocator
{
  public:
    NvmAllocator(Addr base, uint64_t sizeBytes);

    /**
     * Allocate `bytes` rounded up to a multiple of the cache block size,
     * aligned to a cache block (Table 1: nodes are 64B, block aligned).
     */
    Addr alloc(uint64_t bytes);

    /** Return a region to its size-class free list. */
    void free(Addr addr, uint64_t bytes);

    /** Bytes handed out and not freed. */
    uint64_t bytesLive() const { return bytesLive_; }

    /** High-water mark of the bump pointer. */
    uint64_t bytesReserved() const { return bump_ - base_; }

    /** Opaque snapshot of the allocator state. */
    struct Snapshot
    {
        Addr bump;
        uint64_t bytesLive;
        std::map<uint64_t, std::vector<Addr>> freeLists;
    };

    /**
     * Capture the full state; restore() rewinds to it. Used by the tree
     * workloads' shadow pass so the real pass re-allocates the exact same
     * addresses.
     */
    Snapshot save() const;
    void restore(const Snapshot &snapshot);

    /** Whole-simulator snapshot serializer (the Snapshot fields). */
    template <class Ar> void serialize(Ar &ar);

  private:
    Addr base_;
    uint64_t size_;
    Addr bump_;
    uint64_t bytesLive_ = 0;
    /** Size class (in blocks) -> free addresses, LIFO for determinism. */
    std::map<uint64_t, std::vector<Addr>> freeLists_;

    static uint64_t roundUp(uint64_t bytes);
};

} // namespace sp

#endif // SP_PMEM_ALLOCATOR_HH
