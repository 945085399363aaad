#include "pmem/allocator.hh"

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sp
{

NvmAllocator::NvmAllocator(Addr base, uint64_t sizeBytes)
    : base_(base), size_(sizeBytes), bump_(base)
{
    SP_ASSERT(blockOffset(base) == 0, "heap base must be block aligned");
}

uint64_t
NvmAllocator::roundUp(uint64_t bytes)
{
    if (bytes == 0)
        bytes = 1;
    return (bytes + kBlockBytes - 1) / kBlockBytes * kBlockBytes;
}

Addr
NvmAllocator::alloc(uint64_t bytes)
{
    uint64_t rounded = roundUp(bytes);
    bytesLive_ += rounded;
    auto it = freeLists_.find(rounded);
    if (it != freeLists_.end() && !it->second.empty()) {
        Addr addr = it->second.back();
        it->second.pop_back();
        return addr;
    }
    SP_ASSERT(bump_ + rounded <= base_ + size_, "NVMM heap exhausted");
    Addr addr = bump_;
    bump_ += rounded;
    return addr;
}

NvmAllocator::Snapshot
NvmAllocator::save() const
{
    return Snapshot{bump_, bytesLive_, freeLists_};
}

void
NvmAllocator::restore(const Snapshot &snapshot)
{
    bump_ = snapshot.bump;
    bytesLive_ = snapshot.bytesLive;
    freeLists_ = snapshot.freeLists;
}

void
NvmAllocator::free(Addr addr, uint64_t bytes)
{
    uint64_t rounded = roundUp(bytes);
    SP_ASSERT(addr >= base_ && addr + rounded <= bump_,
              "freeing memory outside the heap");
    SP_ASSERT(bytesLive_ >= rounded, "allocator live-byte underflow");
    bytesLive_ -= rounded;
    freeLists_[rounded].push_back(addr);
}

template <class Ar>
void
NvmAllocator::serialize(Ar &ar)
{
    ar.tag("ALOC");
    ar.pod(bump_);
    ar.pod(bytesLive_);
    uint64_t classes = freeLists_.size();
    ar.pod(classes);
    if constexpr (Ar::kLoading) {
        freeLists_.clear();
        for (uint64_t i = 0; i < classes; ++i) {
            uint64_t sizeClass = 0;
            ar.pod(sizeClass);
            ar.podVec(freeLists_[sizeClass]);
        }
    } else {
        for (auto &[sizeClass, list] : freeLists_) {
            ar.pod(sizeClass);
            ar.podVec(list);
        }
    }
}

template void NvmAllocator::serialize(SnapshotWriter &);
template void NvmAllocator::serialize(SnapshotReader &);

} // namespace sp
