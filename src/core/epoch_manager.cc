#include "core/epoch_manager.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sp
{

EpochManager::EpochManager(SpeculativeStoreBuffer &ssb,
                           CheckpointBuffer &checkpoints,
                           CacheHierarchy &caches, MemSystem &mc,
                           Stats &stats, bool strictCommit)
    : ssb_(ssb), checkpoints_(checkpoints), caches_(caches), mc_(mc),
      stats_(stats), strictCommit_(strictCommit)
{
}

bool
EpochManager::drainAllowed(const SsbEntry &entry) const
{
    if (!strictCommit_)
        return true;
    // Paper-literal commit: only the oldest epoch's entries may drain,
    // only once its gate holds, and never past an incomplete flush.
    if (strictWaitFlush_ != 0 && !mc_.flushComplete(strictWaitFlush_))
        return false;
    const Epoch &oldest = epochs_.front();
    if (entry.epoch != oldest.id)
        return false;
    if (oldest.isFirst) {
        if (!preSpecDrained_)
            return false;
        for (uint64_t id : oldest.flushes) {
            // The trigger flushes gate epoch 0's drain in strict mode.
            if (!mc_.flushComplete(id))
                return false;
        }
    }
    return true;
}

void
EpochManager::recycleFlushes(Epoch &epoch)
{
    if (epoch.flushes.capacity() == 0)
        return;
    flushPool_.give(std::move(epoch.flushes));
}

uint64_t
EpochManager::currentEpoch() const
{
    SP_ASSERT(!epochs_.empty(), "no current epoch outside speculation");
    return epochs_.back().id;
}

EpochManager::Epoch &
EpochManager::epochById(uint64_t id)
{
    for (Epoch &epoch : epochs_) {
        if (epoch.id == id)
            return epoch;
    }
    SP_PANIC("SSB entry tagged with a dead epoch ", id);
}

bool
EpochManager::beginSpeculation(uint64_t cursor,
                               const std::vector<uint64_t> &gateFlushes,
                               Tick now)
{
    SP_ASSERT(epochs_.empty(), "beginSpeculation while already speculating");
    unsigned idx = checkpoints_.allocate(cursor);
    if (idx == CheckpointBuffer::kInvalid)
        return false;
    Epoch epoch;
    epoch.id = nextEpochId_++;
    epoch.checkpointIdx = idx;
    epoch.flushes = flushPool_.take();
    epoch.flushes.assign(gateFlushes.begin(), gateFlushes.end());
    epoch.isFirst = true;
    if (tracer_ && tracer_->enabled(kTraceEpoch)) {
        tracer_->instant(kTraceEpoch, TraceName::kCheckpointTake, now,
                         {idx, cursor});
        tracer_->asyncBegin(kTraceEpoch, TraceName::kEpoch, epoch.id, now,
                            {cursor, 0, kTraceFirst});
    }
    epochs_.push_back(std::move(epoch));
    preSpecDrained_ = false;
    ++stats_.epochsStarted;
    return true;
}

bool
EpochManager::startChild(uint64_t cursor, Tick now)
{
    SP_ASSERT(!epochs_.empty(), "startChild outside speculation");
    unsigned idx = checkpoints_.allocate(cursor);
    if (idx == CheckpointBuffer::kInvalid)
        return false;
    epochs_.back().closed = true;
    Epoch epoch;
    epoch.id = nextEpochId_++;
    epoch.checkpointIdx = idx;
    epoch.flushes = flushPool_.take();
    epoch.isFirst = false;
    if (tracer_ && tracer_->enabled(kTraceEpoch)) {
        tracer_->instant(kTraceEpoch, TraceName::kCheckpointTake, now,
                         {idx, cursor});
        tracer_->asyncBegin(kTraceEpoch, TraceName::kEpoch, epoch.id, now,
                            {cursor, epochs_.back().id});
    }
    epochs_.push_back(std::move(epoch));
    ++stats_.epochsStarted;
    return true;
}

bool
EpochManager::drainOne(Tick now)
{
    const SsbEntry &entry = ssb_.front();

    switch (entry.type) {
      case SsbEntryType::kStore:
        caches_.writeAccess(entry.addr, entry.value, entry.size, now);
        ssb_.pop(now);
        drainBusyUntil_ = now + 1;
        return true;
      case SsbEntryType::kClwb:
      case SsbEntryType::kClflushOpt:
      case SsbEntryType::kClflush: {
        Tick ack = 0;
        bool invalidate = entry.type != SsbEntryType::kClwb;
        if (!caches_.writebackBlock(entry.addr, invalidate, now, ack)) {
            // WPQ full: retry next cycle.
            drainBusyUntil_ = now + 1;
            return false;
        }
        ssb_.pop(now);
        drainBusyUntil_ = now + 1;
        return true;
      }
      case SsbEntryType::kPcommit:
      case SsbEntryType::kSps: {
        // Issue the flush marker and move on: WPQ FIFO order preserves
        // every constraint the fences imposed, and the marker's completion
        // gates this epoch's commit (checkpoint release) instead of
        // stalling the drain. In strict (paper-literal) mode the drain
        // additionally blocks until the flush completes.
        uint64_t id = mc_.startFlush(now);
        epochById(entry.epoch).flushes.push_back(id);
        if (strictCommit_)
            strictWaitFlush_ = id;
        ssb_.pop(now);
        drainBusyUntil_ = now + 1;
        return true;
      }
      case SsbEntryType::kFenceMark:
        // Ordering is inherent in the FIFO drain; nothing to wait for.
        ssb_.pop(now);
        return true;
    }
    return false;
}

bool
EpochManager::canRetire(const Epoch &epoch) const
{
    if (!epoch.closed)
        return false; // the live epoch is finalized by exitSpeculation()
    if (epoch.isFirst && !preSpecDrained_)
        return false;
    if (ssb_.hasEntriesFor(epoch.id))
        return false;
    return std::all_of(epoch.flushes.begin(), epoch.flushes.end(),
                       [this](uint64_t id) { return mc_.flushComplete(id); });
}

bool
EpochManager::tick(Tick now)
{
    if (epochs_.empty())
        return false;

    bool progress = false;
    if (!ssb_.empty() && now >= drainBusyUntil_ &&
        drainAllowed(ssb_.front())) {
        progress |= drainOne(now);
    }

    while (!epochs_.empty() && canRetire(epochs_.front())) {
        if (tracer_ && tracer_->enabled(kTraceEpoch)) {
            tracer_->asyncEnd(kTraceEpoch, TraceName::kEpoch,
                              epochs_.front().id, now);
        }
        checkpoints_.free(epochs_.front().checkpointIdx);
        recycleFlushes(epochs_.front());
        epochs_.pop_front();
        ++stats_.epochsCommitted;
        progress = true;
    }
    return progress;
}

Tick
EpochManager::nextEventTick() const
{
    // Progress is driven by the drain port (busy at most one cycle) and
    // the memory controller (whose events the core already considers).
    if (!ssb_.empty())
        return drainBusyUntil_;
    return kTickNever;
}

bool
EpochManager::readyToExit() const
{
    if (epochs_.size() != 1)
        return false;
    const Epoch &only = epochs_.front();
    if (only.isFirst && !preSpecDrained_)
        return false;
    if (!ssb_.empty())
        return false;
    return std::all_of(only.flushes.begin(), only.flushes.end(),
                       [this](uint64_t id) { return mc_.flushComplete(id); });
}

void
EpochManager::exitSpeculation(Tick now)
{
    SP_ASSERT(readyToExit(), "exitSpeculation before the SSB drained");
    if (tracer_ && tracer_->enabled(kTraceEpoch)) {
        tracer_->asyncEnd(kTraceEpoch, TraceName::kEpoch,
                          epochs_.front().id, now);
    }
    checkpoints_.free(epochs_.front().checkpointIdx);
    recycleFlushes(epochs_.front());
    epochs_.clear();
    ++stats_.epochsCommitted;
}

bool
EpochManager::gateOutstanding() const
{
    for (const Epoch &epoch : epochs_) {
        for (uint64_t id : epoch.flushes) {
            if (!mc_.flushComplete(id))
                return true;
        }
    }
    return false;
}

uint64_t
EpochManager::oldestCursor() const
{
    SP_ASSERT(!epochs_.empty(), "no rollback target outside speculation");
    return checkpoints_.cursor(epochs_.front().checkpointIdx);
}

void
EpochManager::abortAll(Tick now)
{
    if (tracer_ && tracer_->enabled(kTraceEpoch) && !epochs_.empty()) {
        tracer_->instant(kTraceEpoch, TraceName::kCheckpointRestore, now,
                         {oldestCursor()});
        for (const Epoch &epoch : epochs_) {
            tracer_->asyncEnd(kTraceEpoch, TraceName::kEpoch, epoch.id, now,
                              {0, 0, kTraceAborted});
        }
    }
    for (Epoch &epoch : epochs_)
        recycleFlushes(epoch);
    epochs_.clear();
    checkpoints_.reset();
    drainBusyUntil_ = 0;
    strictWaitFlush_ = 0;
}

void
EpochManager::collectPoolStats(std::vector<PoolStat> &out) const
{
    out.push_back(epochs_.stat("epochs.queue"));
    out.push_back(flushPool_.stat("epochs.flushPool"));
}

template <class Ar>
void
EpochManager::serialize(Ar &ar)
{
    ar.tag("EPCH");
    if constexpr (Ar::kLoading) {
        for (size_t i = 0; i < epochs_.size(); ++i)
            recycleFlushes(epochs_[i]);
    }
    ar.seq(epochs_, [&](Epoch &epoch) {
        if constexpr (Ar::kLoading) {
            epoch = Epoch{};
            epoch.flushes = flushPool_.take();
        }
        ar.pod(epoch.id);
        ar.pod(epoch.checkpointIdx);
        ar.podVec(epoch.flushes);
        ar.pod(epoch.isFirst);
        ar.pod(epoch.closed);
    });
    ar.pod(nextEpochId_);
    ar.pod(preSpecDrained_);
    ar.pod(strictWaitFlush_);
    ar.pod(drainBusyUntil_);
}

template void EpochManager::serialize(SnapshotWriter &);
template void EpochManager::serialize(SnapshotReader &);

} // namespace sp
