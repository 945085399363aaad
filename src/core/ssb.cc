#include "core/ssb.hh"

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sp
{

SpeculativeStoreBuffer::SpeculativeStoreBuffer(unsigned entries)
    : capacity_(entries), latency_(ssbLatencyFor(entries))
{
    SP_ASSERT(entries > 0, "SSB needs at least one entry");
    entries_.reserve(entries);
    epochIds_.reserve(16);
    epochLive_.reserve(16);
}

void
SpeculativeStoreBuffer::push(const SsbEntry &entry, Tick now)
{
    SP_ASSERT(!full(), "SSB overflow");
    SP_ASSERT(epochIds_.empty() || entry.epoch >= epochIds_.back(),
              "SSB epoch tags must be monotone");
    if (entry.type == SsbEntryType::kStore)
        storeCover_.add(entry.addr, entry.size);
    if (!epochIds_.empty() && epochIds_.back() == entry.epoch) {
        ++epochLive_.back();
    } else {
        epochIds_.push_back(entry.epoch);
        epochLive_.push_back(1);
    }
    entries_.push_back(entry);
    if (tracer_ && tracer_->enabled(kTraceSsb)) {
        tracer_->counter(kTraceSsb, TraceName::kSsbOccupancy, now,
                         entries_.size());
    }
}

const SsbEntry &
SpeculativeStoreBuffer::front() const
{
    SP_ASSERT(!empty(), "SSB underflow");
    return entries_.front();
}

void
SpeculativeStoreBuffer::pop(Tick now)
{
    SP_ASSERT(!empty(), "SSB underflow");
    const SsbEntry &head = entries_.front();
    if (head.type == SsbEntryType::kStore)
        storeCover_.sub(head.addr, head.size);
    SP_ASSERT(!epochIds_.empty() && epochIds_.front() == head.epoch,
              "SSB epoch accounting out of sync");
    if (--epochLive_.front() == 0) {
        epochIds_.pop_front();
        epochLive_.pop_front();
    }
    entries_.pop_front();
    if (entries_.empty()) {
        // Episode over: release the coverage index's stale zero-count
        // slots so the table size is bounded by one episode's footprint.
        storeCover_.clear();
    }
    if (tracer_ && tracer_->enabled(kTraceSsb)) {
        tracer_->counter(kTraceSsb, TraceName::kSsbOccupancy, now,
                         entries_.size());
    }
}

bool
SpeculativeStoreBuffer::searchForLoad(Addr addr, unsigned size) const
{
    // The caller only needs existence (for timing and statistics); any
    // covered byte in the range means some buffered store overlaps it.
    return storeCover_.anyCovered(addr, size);
}

bool
SpeculativeStoreBuffer::hasEntriesFor(uint64_t epoch) const
{
    for (size_t i = 0; i < epochIds_.size(); ++i) {
        uint64_t id = epochIds_[i];
        if (id == epoch)
            return epochLive_[i] != 0;
        if (id > epoch)
            return false;
    }
    return false;
}

void
SpeculativeStoreBuffer::clear()
{
    entries_.clear();
    epochIds_.clear();
    epochLive_.clear();
    storeCover_.clear();
}

void
SpeculativeStoreBuffer::collectPoolStats(std::vector<PoolStat> &out) const
{
    out.push_back(entries_.stat("ssb.entries"));
    out.push_back(epochIds_.stat("ssb.epochRuns"));
}

template <class Ar>
void
SpeculativeStoreBuffer::serialize(Ar &ar)
{
    ar.tag("SSB ");
    if constexpr (!Ar::kLoading) {
        ar.ring(entries_);
    } else {
        RingDeque<SsbEntry> entries;
        ar.ring(entries);
        // Re-push through the normal path so the byte-coverage index and
        // the epoch run-length view are rebuilt by the same code that
        // maintains them online; the tracer is detached so the rebuild
        // publishes nothing.
        Tracer *tracer = tracer_;
        tracer_ = nullptr;
        clear();
        for (size_t i = 0; i < entries.size(); ++i)
            push(entries[i]);
        tracer_ = tracer;
    }
}

template void SpeculativeStoreBuffer::serialize(SnapshotWriter &);
template void SpeculativeStoreBuffer::serialize(SnapshotReader &);

} // namespace sp
