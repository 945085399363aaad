#include "core/checkpoint.hh"

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sp
{

CheckpointBuffer::CheckpointBuffer(unsigned entries) : entries_(entries)
{
    SP_ASSERT(entries > 0, "checkpoint buffer needs at least one entry");
}

unsigned
CheckpointBuffer::allocate(uint64_t cursor)
{
    for (unsigned i = 0; i < entries_.size(); ++i) {
        if (!entries_[i].valid) {
            entries_[i].valid = true;
            entries_[i].cursor = cursor;
            ++inUse_;
            return i;
        }
    }
    return kInvalid;
}

void
CheckpointBuffer::free(unsigned idx)
{
    SP_ASSERT(idx < entries_.size() && entries_[idx].valid,
              "freeing invalid checkpoint ", idx);
    entries_[idx].valid = false;
    SP_ASSERT(inUse_ > 0, "checkpoint accounting underflow");
    --inUse_;
}

uint64_t
CheckpointBuffer::cursor(unsigned idx) const
{
    SP_ASSERT(idx < entries_.size() && entries_[idx].valid,
              "reading invalid checkpoint ", idx);
    return entries_[idx].cursor;
}

void
CheckpointBuffer::reset()
{
    for (auto &entry : entries_)
        entry.valid = false;
    inUse_ = 0;
}

template <class Ar>
void
CheckpointBuffer::serialize(Ar &ar)
{
    ar.tag("CKPT");
    size_t capacity = entries_.size();
    ar.podVec(entries_);
    SP_ASSERT(entries_.size() == capacity,
              "snapshot checkpoint capacity mismatch");
    ar.pod(inUse_);
}

template void CheckpointBuffer::serialize(SnapshotWriter &);
template void CheckpointBuffer::serialize(SnapshotReader &);

} // namespace sp
