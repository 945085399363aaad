#include "mem/mem_ctrl.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sp
{

MemCtrl::MemCtrl(const MemConfig &cfg, MemImage &durable)
    : cfg_(cfg), durable_(durable)
{
    SP_ASSERT(cfg_.nvmmBanks > 0, "NVMM needs at least one bank");
    bankFreeAt_.assign(cfg_.nvmmBanks, 0);
    // Evictions may overfill to 2x wpqEntries; warm both queues to the
    // bound so steady-state traffic never grows them.
    wpq_.reserve(2 * cfg_.wpqEntries);
    inflight_.reserve(cfg_.wpqEntries);
    pending_.reserve(16);
}

unsigned
MemCtrl::bankOf(Addr blockAddr) const
{
    return static_cast<unsigned>((blockAddr / kBlockBytes) %
                                 cfg_.nvmmBanks);
}

void
MemCtrl::advanceTo(Tick now)
{
    lastNow_ = std::max(lastNow_, now);
    for (;;) {
        // The next dispatch: the queued head, once its bank is free.
        Tick start = kTickNever;
        if (!wpq_.empty()) {
            const WpqEntry &head = wpq_.front();
            start = std::max(bankFreeAt_[bankOf(head.addr)], head.readyAt);
        }
        // Complete finished writes; in-order dispatch of equal-duration
        // writes keeps doneAt monotone, so the head finishes first. A
        // write that finishes after the next dispatch starts waits for
        // it, as it would if every tick were visited: that dispatch
        // still sees it in flight.
        if (!inflight_.empty() && inflight_.front().doneAt <= now &&
            (start > now || inflight_.front().doneAt <= start)) {
            InFlight &head = inflight_.front();
            durable_.writeBlock(head.addr, head.data);
            drainedSeq_ = head.seq;
            Tick done = head.doneAt;
            inflight_.pop_front();
            if (stats_)
                ++stats_->nvmmWrites;
            updateFlushes(done);
            continue;
        }
        if (start <= now) {
            WpqEntry &head = wpq_.front();
            unsigned bank = bankOf(head.addr);
            InFlight fl;
            fl.addr = head.addr;
            fl.seq = head.seq;
            Tick lat = cfg_.nvmmWriteCycles;
            if (jitterMax_ > 0)
                lat += jitterRng_.nextBounded(jitterMax_ + 1);
            fl.doneAt = start + lat;
            std::memcpy(fl.data, head.data, kBlockBytes);
            bankFreeAt_[bank] = fl.doneAt;
            // Keep completion order equal to seq order even when a
            // later bank would finish sooner.
            if (!inflight_.empty())
                fl.doneAt = std::max(fl.doneAt, inflight_.back().doneAt);
            inflight_.push_back(fl);
            wpq_.pop_front();
            continue;
        }
        break;
    }
}

Tick
MemCtrl::nextEventTick() const
{
    Tick next = kTickNever;
    if (!inflight_.empty())
        next = inflight_.front().doneAt;
    if (!wpq_.empty()) {
        const WpqEntry &head = wpq_.front();
        Tick start = std::max(bankFreeAt_[bankOf(head.addr)],
                              head.readyAt);
        // With jitter enabled this is a lower bound on the true
        // completion tick; waking early is harmless (advanceTo dispatches
        // the write and the next prediction uses its real doneAt).
        next = std::min(next, start + cfg_.nvmmWriteCycles);
    }
    return next;
}

void
MemCtrl::insertWrite(Addr blockAddr, const uint8_t *data, bool force)
{
    SP_ASSERT(blockOffset(blockAddr) == 0, "unaligned WPQ write");
    // Coalesce into the queue tail when it is the same block (the WPQ
    // merges same-address writes; the paper relies on this coalescing).
    // ONLY the tail is safe: merging into an older entry would let the
    // new data become durable before entries queued in between, breaking
    // the FIFO persist order the whole design depends on. Tail merging
    // preserves it -- the new write's ordering constraints are all
    // against entries at or before the tail.
    if (!wpq_.empty() && wpq_.back().addr == blockAddr) {
        std::memcpy(wpq_.back().data, data, kBlockBytes);
        if (stats_)
            ++stats_->wpqCoalesced;
        return;
    }
    SP_ASSERT(force || wpqHasSpace(), "WPQ overflow on non-forced write");
    WpqEntry entry;
    entry.addr = blockAddr;
    entry.seq = nextSeq_++;
    entry.readyAt = lastNow_;
    std::memcpy(entry.data, data, kBlockBytes);
    wpq_.push_back(entry);
    // Forced evictions may overfill the queue; the peak says how far.
    wpqPeak_ = std::max(wpqPeak_, wpqOccupancy());
    if (stats_)
        ++stats_->wpqInserts;
}

Tick
MemCtrl::read(Addr blockAddr, Tick now)
{
    SP_ASSERT(blockOffset(blockAddr) == 0, "unaligned NVMM read");
    lastNow_ = std::max(lastNow_, now);
    unsigned bank = bankOf(blockAddr);
    Tick start = std::max(now, bankFreeAt_[bank]);
    Tick done = start + cfg_.nvmmReadCycles;
    bankFreeAt_[bank] = done;
    if (stats_)
        ++stats_->nvmmReads;
    return done;
}

void
MemCtrl::readBlockData(Addr blockAddr, uint8_t *out) const
{
    durable_.readBlock(blockAddr, out);
    // Overlay pending writes, oldest to youngest, so the freshest pending
    // version of the block wins.
    for (const InFlight &entry : inflight_) {
        if (entry.addr == blockAddr)
            std::memcpy(out, entry.data, kBlockBytes);
    }
    for (const WpqEntry &entry : wpq_) {
        if (entry.addr == blockAddr)
            std::memcpy(out, entry.data, kBlockBytes);
    }
}

uint64_t
MemCtrl::startFlush(Tick now)
{
    lastNow_ = std::max(lastNow_, now);
    uint64_t id = nextFlushId_++;
    uint64_t marker = nextSeq_ - 1;
    bool complete = drainedSeq_ >= marker;
    if (complete) {
        // Markers are monotone and updateFlushes() runs at every drain,
        // so a flush that completes at birth proves nothing older is
        // still pending.
        SP_ASSERT(pending_.empty(),
                  "complete-at-birth flush behind a pending one");
        firstPendingId_ = id + 1;
        if (stats_) {
            stats_->flushLatency.record(0);
            stats_->maxInflightPcommits =
                std::max<uint64_t>(stats_->maxInflightPcommits, 1);
        }
    } else {
        if (pending_.empty())
            firstPendingId_ = id;
        SP_ASSERT(firstPendingId_ + pending_.size() == id,
                  "pending flush ids must be contiguous");
        pending_.push_back({marker, now});
        if (stats_) {
            stats_->maxInflightPcommits =
                std::max<uint64_t>(stats_->maxInflightPcommits,
                                   pending_.size());
        }
    }
    if (tracer_ && tracer_->enabled(kTraceMem)) {
        tracer_->asyncBegin(kTraceMem, TraceName::kPcommit,
                            traceIdBase_ + id, now, {marker});
        if (complete) {
            // Nothing older was pending: the span closes immediately.
            tracer_->asyncEnd(kTraceMem, TraceName::kPcommit,
                              traceIdBase_ + id, now);
        }
    }
    return id;
}

bool
MemCtrl::flushComplete(uint64_t id) const
{
    SP_ASSERT(id >= 1 && id < nextFlushId_, "unknown flush id ", id);
    if (pending_.empty() || id < firstPendingId_)
        return true;
    size_t idx = static_cast<size_t>(id - firstPendingId_);
    SP_ASSERT(idx < pending_.size(), "flush id ", id,
              " beyond the pending range");
    return drainedSeq_ >= pending_[idx].marker;
}

void
MemCtrl::updateFlushes(Tick now)
{
    // Completion is strictly in id order (markers are monotone), so
    // finished flushes are exactly a prefix of the pending deque.
    while (!pending_.empty() && drainedSeq_ >= pending_.front().marker) {
        if (stats_)
            stats_->flushLatency.record(now - pending_.front().startedAt);
        if (tracer_ && tracer_->enabled(kTraceMem)) {
            tracer_->asyncEnd(kTraceMem, TraceName::kPcommit,
                              traceIdBase_ + firstPendingId_, now);
        }
        pending_.pop_front();
        ++firstPendingId_;
    }
}

void
MemCtrl::setWriteJitter(unsigned maxExtraCycles, uint64_t seed)
{
    jitterMax_ = maxExtraCycles;
    jitterRng_ = Rng(seed);
}

unsigned
MemCtrl::applyTornWrites(uint64_t seed)
{
    // The device commits writes strictly in seq order (the doneAt clamp
    // in advanceTo) and the WAL protocol's crash safety rests on exactly
    // that FIFO-prefix contract: if a write is durable, so is everything
    // queued before it. A physical crash therefore exposes some prefix of
    // the pending stream fully committed, at most ONE write -- the one on
    // the media at the instant of failure -- torn at 8-byte-word
    // granularity, and everything younger lost with the volatile queues.
    // Tearing entries independently would fabricate states no crash can
    // reach (e.g. the next transaction's log writes durable while the
    // previous logged_bit clear is lost, corrupting an armed undo log).
    size_t pending = inflight_.size() + wpq_.size();
    if (pending == 0)
        return 0;
    Rng rng(seed);
    auto entryAt = [this](size_t i) -> std::pair<Addr, const uint8_t *> {
        if (i < inflight_.size()) {
            const InFlight &e = inflight_[i];
            return {e.addr, e.data};
        }
        const WpqEntry &e = wpq_[i - inflight_.size()];
        return {e.addr, e.data};
    };
    // cut == pending commits everything cleanly (a crash that landed just
    // after the last pending write hit the media).
    size_t cut = rng.nextBounded(pending + 1);
    unsigned changedBlocks = 0;
    for (size_t i = 0; i < cut; ++i) {
        auto [addr, data] = entryAt(i);
        durable_.writeBlock(addr, data);
        ++changedBlocks;
    }
    if (cut == pending)
        return changedBlocks;
    auto [addr, data] = entryAt(cut);
    uint8_t block[kBlockBytes];
    durable_.readBlock(addr, block);
    bool changed = false;
    for (unsigned w = 0; w < kBlockBytes / 8; ++w) {
        if (rng.nextBool(0.5)) {
            std::memcpy(block + 8 * w, data + 8 * w, 8);
            changed = true;
        }
    }
    if (changed) {
        durable_.writeBlock(addr, block);
        ++changedBlocks;
    }
    return changedBlocks;
}

void
MemCtrl::drainAll()
{
    while (!wpq_.empty() || !inflight_.empty()) {
        Tick next = nextEventTick();
        SP_ASSERT(next != kTickNever, "drainAll stuck");
        advanceTo(next);
    }
}

template <class Ar>
void
MemCtrl::serialize(Ar &ar)
{
    ar.tag("MCTL");
    ar.ring(wpq_);
    ar.ring(inflight_);
    ar.pod(nextSeq_);
    ar.pod(drainedSeq_);
    ar.podVec(bankFreeAt_);
    SP_ASSERT(bankFreeAt_.size() == cfg_.nvmmBanks,
              "snapshot bank count mismatch");
    ar.pod(jitterRng_);
    ar.pod(lastNow_);
    ar.pod(nextFlushId_);
    ar.ring(pending_);
    ar.pod(firstPendingId_);
}

template void MemCtrl::serialize(SnapshotWriter &);
template void MemCtrl::serialize(SnapshotReader &);

} // namespace sp
