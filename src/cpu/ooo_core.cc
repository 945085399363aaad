#include "cpu/ooo_core.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sp
{

OooCore::OooCore(const SimConfig &cfg, Program &program,
                 CacheHierarchy &caches, MemSystem &mc, Stats &stats)
    : cfg_(cfg), program_(program), caches_(caches), mc_(mc), stats_(stats),
      ssb_(cfg.sp.ssbEntries), checkpoints_(cfg.sp.checkpoints),
      bloom_(cfg.sp.bloomBytes, cfg.sp.bloomHashes),
      epochs_(ssb_, checkpoints_, caches_, mc_, stats_,
              cfg.sp.strictCommit),
      waitHead_(kRingSize, 0), doneAt_(kRingSize, kTickNever),
      governor_(cfg.fault.watchdog)
{
    governor_.attach(&stats_, nullptr);
    // Warm every pipeline container to its architectural bound so the
    // steady state never grows a buffer.
    fetchQ_.reserve(cfg.core.fetchQueueSize);
    rob_.reserve(cfg.core.robSize);
    storeBuffer_.reserve(cfg.core.storeBufferSize);
    readySeqs_.reserve(cfg.core.robSize);
    pendingWakes_.at.reserve(cfg.core.robSize);
    pendingWakes_.seq.reserve(cfg.core.robSize);
    gateScratch_.reserve(16);
}

// --------------------------------------------------------------------------
// Timed-wake heap (SoA)
// --------------------------------------------------------------------------

void
OooCore::WakeHeap::push(Tick t, uint64_t s)
{
    at.push_back(t);
    seq.push_back(s);
    size_t i = at.size() - 1;
    while (i > 0) {
        size_t parent = (i - 1) / 2;
        if (at[parent] <= at[i])
            break;
        std::swap(at[parent], at[i]);
        std::swap(seq[parent], seq[i]);
        i = parent;
    }
    if (at.size() > highWater)
        highWater = at.size();
}

void
OooCore::WakeHeap::pop()
{
    size_t n = at.size() - 1;
    at[0] = at[n];
    seq[0] = seq[n];
    at.pop_back();
    seq.pop_back();
    size_t i = 0;
    while (true) {
        size_t l = 2 * i + 1;
        if (l >= n)
            break;
        size_t m = (l + 1 < n && at[l + 1] < at[l]) ? l + 1 : l;
        if (at[i] <= at[m])
            break;
        std::swap(at[i], at[m]);
        std::swap(seq[i], seq[m]);
        i = m;
    }
}

// --------------------------------------------------------------------------
// Tracing
// --------------------------------------------------------------------------

void
OooCore::setTracer(Tracer *tracer)
{
    tracer_ = tracer;
    ssb_.setTracer(tracer);
    epochs_.setTracer(tracer);
    caches_.setTracer(tracer);
    mc_.setTracer(tracer);
    governor_.attach(&stats_, tracer);
    nextSampleAt_ = now_;
}

void
OooCore::setTraceSink(std::ostream *os)
{
    if (!os) {
        if (ownedTracer_ && tracer_ == ownedTracer_.get())
            setTracer(nullptr);
        ownedTracer_.reset();
        return;
    }
    TraceOptions opts;
    opts.categories = kTraceAll;
    // The text line is emitted at publish time; no need to also retain
    // the events in memory.
    opts.retainEvents = false;
    ownedTracer_ = std::make_unique<Tracer>(opts);
    ownedTracer_->setTextSink(os);
    setTracer(ownedTracer_.get());
}

void
OooCore::sampleCounters()
{
    tracer_->counter(kTraceCounters, TraceName::kRob, now_, rob_.size());
    tracer_->counter(kTraceCounters, TraceName::kFetchq, now_,
                     fetchQ_.size());
    tracer_->counter(kTraceCounters, TraceName::kLsq, now_, lsqCount_);
    tracer_->counter(kTraceCounters, TraceName::kStorebuf, now_,
                     storeBuffer_.size() + (sbInFlight_ ? 1 : 0));
    tracer_->counter(kTraceCounters, TraceName::kInflightPcommits, now_,
                     mc_.outstandingFlushes());
    tracer_->counter(kTraceCounters, TraceName::kWpq, now_,
                     mc_.wpqOccupancy());
    tracer_->counter(kTraceCounters, TraceName::kEpochs, now_,
                     epochs_.epochCount());
}

// --------------------------------------------------------------------------
// Conditions
// --------------------------------------------------------------------------

bool
OooCore::storeBufferEmpty() const
{
    return storeBuffer_.empty() && !sbInFlight_;
}

bool
OooCore::storePendingTo(Addr blockAddr) const
{
    if (sbInFlight_ && sbInFlightBlock_ == blockAddr)
        return true;
    for (const StoreBufEntry &entry : storeBuffer_) {
        if (blockAlign(entry.addr) == blockAddr)
            return true;
    }
    return false;
}

bool
OooCore::persistAcksDone() const
{
    return std::all_of(persistAcks_.begin(), persistAcks_.end(),
                       [this](Tick t) { return t <= now_; });
}

void
OooCore::updateFlushAcks()
{
    for (FlushFlight &flight : flushes_) {
        if (flight.ackAt == kTickNever && mc_.flushComplete(flight.id))
            flight.ackAt = now_ + mc_.roundTrip();
    }
}

bool
OooCore::flushesAcked() const
{
    return std::all_of(flushes_.begin(), flushes_.end(),
                       [this](const FlushFlight &f) {
                           return f.ackAt != kTickNever && f.ackAt <= now_;
                       });
}

bool
OooCore::anyFlushOutstanding() const
{
    return std::any_of(flushes_.begin(), flushes_.end(),
                       [this](const FlushFlight &f) {
                           return !mc_.flushComplete(f.id);
                       });
}

bool
OooCore::preSpecDrained() const
{
    return storeBufferEmpty() && persistAcksDone();
}

void
OooCore::compactPersistState()
{
    // A max_cycles-bounded run retires millions of clwbs and pcommits;
    // without compaction persistAcks_ and flushes_ grow without bound.
    // Only entries whose every future observable effect is already spent
    // are dropped, so fences, speculation triggers, and nextEventTick()
    // behave bit-identically.
    constexpr size_t kThreshold = 64;
    if (persistAcks_.size() >= kThreshold) {
        // Delivered acks (<= now_) satisfy persistAcksDone() forever and
        // never become an event again.
        persistAcks_.erase(
            std::remove_if(persistAcks_.begin(), persistAcks_.end(),
                           [this](Tick t) { return t <= now_; }),
            persistAcks_.end());
    }
    if (flushes_.size() >= kThreshold) {
        // Acked flights with a delivered ack are fully resolved. Flights
        // whose flush completed but whose ack is still unobserved all
        // behave identically from here on -- the next updateFlushAcks()
        // stamps them with one common delivery tick and they neither
        // gate speculation nor count as outstanding -- so a single
        // representative carries the whole set.
        bool kept_unobserved = false;
        flushes_.erase(
            std::remove_if(flushes_.begin(), flushes_.end(),
                           [&](const FlushFlight &f) {
                               if (f.ackAt != kTickNever)
                                   return f.ackAt <= now_;
                               if (!mc_.flushComplete(f.id))
                                   return false;
                               if (kept_unobserved)
                                   return true;
                               kept_unobserved = true;
                               return false;
                           }),
            flushes_.end());
    }
}

// --------------------------------------------------------------------------
// Fetch
// --------------------------------------------------------------------------

void
OooCore::fetchStage()
{
    unsigned budget = cfg_.core.fetchWidth;
    while (budget > 0) {
        bool more = pendingAlu_ > 0 || !programEnded_;
        if (!more)
            break;
        if (fetchQ_.size() >= cfg_.core.fetchQueueSize) {
            flags_.fetchBlocked = true;
            break;
        }
        // Build the op in its queue slot. Copying in a stack temporary
        // stalls store forwarding: its fields are written with 1-, 2-
        // and 8-byte stores and read back with 16-byte loads.
        DynOp &dyn = fetchQ_.emplace_back();
        if (pendingAlu_ > 0) {
            dyn.op = MicroOp::alu(1);
            dyn.nextCursor = pendingAluCursor_;
            --pendingAlu_;
        } else {
            if (!program_.next(dyn.op)) {
                fetchQ_.pop_back();
                programEnded_ = true;
                break;
            }
            dyn.nextCursor = program_.cursor();
            if (dyn.op.type == OpType::kAlu && dyn.op.repeat > 1) {
                pendingAlu_ = dyn.op.repeat - 1;
                pendingAluCursor_ = dyn.nextCursor;
                dyn.op.repeat = 1;
            }
        }
        dyn.seq = nextSeq_++;
        dyn.waitNext = 0;
        dyn.issued = false;
        dyn.readyAt = 0;
        --budget;
        flags_.progress = true;
    }
}

// --------------------------------------------------------------------------
// Dispatch
// --------------------------------------------------------------------------

void
OooCore::dispatchStage()
{
    unsigned budget = cfg_.core.dispatchWidth;
    while (budget > 0 && !fetchQ_.empty()) {
        if (rob_.size() >= cfg_.core.robSize)
            break;
        if (unissuedCount_ >= cfg_.core.issueQueueSize)
            break;
        bool mem = isMemOp(fetchQ_.front().op.type);
        if (mem && lsqCount_ >= cfg_.core.lsqSize)
            break;
        dispatchFront();
        if (mem)
            ++lsqCount_;
        --budget;
    }
}

void
OooCore::dispatchFront()
{
    const DynOp &front = fetchQ_.front();
    // Reset the dependence ring slot for this source op.
    doneAt_[(front.nextCursor - 1) % kRingSize] = kTickNever;
    rob_.push_back(front);
    enqueueForIssue(rob_.back());
    ++unissuedCount_;
    fetchQ_.pop_front();
    flags_.progress = true;
}

// --------------------------------------------------------------------------
// Issue / execute
// --------------------------------------------------------------------------

OooCore::DynOp *
OooCore::findBySeq(uint64_t seq)
{
    if (rob_.empty())
        return nullptr;
    uint64_t base = rob_.front().seq;
    SP_ASSERT(seq >= base && seq < base + rob_.size(),
              "seq ", seq, " not resident in ROB");
    return &rob_[static_cast<size_t>(seq - base)];
}

Tick
OooCore::depReadyAt(const DynOp &op) const
{
    if (op.op.dep == 0)
        return 0;
    uint64_t src = op.nextCursor - 1;
    if (op.op.dep > src)
        return 0; // dependence beyond the start of the program
    return doneAt_[(src - op.op.dep) % kRingSize];
}

bool
OooCore::depReady(const DynOp &op) const
{
    return depReadyAt(op) <= now_;
}

void
OooCore::enqueueForIssue(DynOp &op)
{
    Tick t = depReadyAt(op);
    if (t == kTickNever) {
        // Producer dispatched but not yet executed: park on its ring
        // slot; executeOp() moves the chain once the tick is known.
        unsigned idx =
            static_cast<unsigned>((op.nextCursor - 1 - op.op.dep) %
                                  kRingSize);
        op.waitNext = waitHead_[idx];
        waitHead_[idx] = op.seq;
    } else if (t > now_) {
        pendingWakes_.push(t, op.seq);
    } else {
        readySeqs_.push(op.seq);
    }
}

void
OooCore::clearIssueQueues()
{
    readySeqs_.clear();
    pendingWakes_.clear();
    std::fill(waitHead_.begin(), waitHead_.end(), 0);
    unissuedCount_ = 0;
}

void
OooCore::executeOp(DynOp &op)
{
    Tick ready = now_ + 1;
    switch (op.op.type) {
      case OpType::kLoad: {
        if (specMode_) {
            ++stats_.specLoads;
            ++stats_.bloomLookups;
            if (bloom_.maybeContains(op.op.addr)) {
                ++stats_.bloomHits;
                bool match = ssb_.searchForLoad(op.op.addr, op.op.size);
                if (match) {
                    // Forward from the SSB: pay the CAM latency only.
                    ++stats_.ssbForwards;
                    if (tracer_ && tracer_->enabled(kTraceSsb)) {
                        tracer_->instant(kTraceSsb,
                                         TraceName::kSsbForward, now_,
                                         {op.op.addr});
                    }
                    ready = now_ + ssb_.latency();
                    break;
                }
                ++stats_.bloomFalsePositives;
                if (tracer_ && tracer_->enabled(kTraceSsb)) {
                    tracer_->instant(kTraceSsb, TraceName::kBloomFp, now_,
                                     {op.op.addr});
                }
                // False positive: CAM search, then the cache access.
                ready = caches_.readAccess(op.op.addr, op.op.size,
                                           now_ + ssb_.latency());
                break;
            }
            // Bloom miss: straight to the cache.
            ready = caches_.readAccess(op.op.addr, op.op.size, now_);
            break;
        }
        ready = caches_.readAccess(op.op.addr, op.op.size, now_);
        break;
      }
      case OpType::kAluChain:
        // Serial dependence chain: one cycle per element.
        ready = now_ + op.op.repeat;
        break;
      case OpType::kAlu:
      case OpType::kStore:
      case OpType::kXchg:
      case OpType::kClwb:
      case OpType::kClflushOpt:
      case OpType::kClflush:
      case OpType::kPcommit:
      case OpType::kSfence:
      case OpType::kMfence:
        // Address/data generation or no-op execution: one cycle.
        ready = now_ + 1;
        break;
    }
    op.issued = true;
    op.readyAt = ready;
    unsigned idx = static_cast<unsigned>((op.nextCursor - 1) % kRingSize);
    doneAt_[idx] = ready;
    // Wake consumers parked on this producer: their dependence tick is
    // now known, so they graduate to the timed wake heap.
    uint64_t waiter = waitHead_[idx];
    waitHead_[idx] = 0;
    while (waiter != 0) {
        DynOp *w = findBySeq(waiter);
        SP_ASSERT(w && !w->issued, "stale wait-chain entry");
        pendingWakes_.push(ready, waiter);
        waiter = w->waitNext;
    }
}

void
OooCore::issueStage()
{
    while (!pendingWakes_.empty() && pendingWakes_.topAt() <= now_) {
        readySeqs_.push(pendingWakes_.topSeq());
        pendingWakes_.pop();
    }
    unsigned issued = 0;
    while (issued < cfg_.core.issueWidth && !readySeqs_.empty()) {
        uint64_t seq = readySeqs_.top();
        readySeqs_.pop();
        DynOp *op = findBySeq(seq);
        SP_ASSERT(op && !op->issued, "stale ready entry");
        executeOp(*op);
        ++issued;
        --unissuedCount_;
        flags_.progress = true;
    }
}

// --------------------------------------------------------------------------
// Retirement
// --------------------------------------------------------------------------

void
OooCore::countRetired(const DynOp &op)
{
    if (tracer_ && tracer_->enabled(kTraceRetire) &&
        op.op.type != OpType::kAlu && op.op.type != OpType::kAluChain) {
        tracer_->instant(kTraceRetire,
                         specMode_ ? TraceName::kRetireSpec
                                   : TraceName::kRetire,
                         now_, TraceArgs(op.op));
    }
    stats_.instructions += op.op.instructionCount();
    switch (op.op.type) {
      case OpType::kLoad:
        ++stats_.loads;
        break;
      case OpType::kStore:
      case OpType::kXchg:
        ++stats_.stores;
        if (mc_.outstandingFlushes() > 0)
            ++stats_.storesDuringPcommit;
        break;
      case OpType::kClwb:
      case OpType::kClflushOpt:
      case OpType::kClflush:
        ++stats_.cacheWritebackOps;
        // Figure 12 counts clwb/clflush as stores in flight.
        if (mc_.outstandingFlushes() > 0)
            ++stats_.storesDuringPcommit;
        break;
      case OpType::kPcommit:
        ++stats_.pcommits;
        break;
      case OpType::kSfence:
      case OpType::kMfence:
        ++stats_.fences;
        break;
      case OpType::kAlu:
      case OpType::kAluChain:
        break;
    }
    // Durability audit tap: retirement is the one point every op passes
    // in program order on every path (including the store+fence
    // peephole). Speculative aborts rewind the program and re-deliver
    // ops, so the cursor guard keeps each dynamic op to one observation;
    // ALU ops carry no durability information and are skipped to keep
    // the audit off the serial-chain fast path.
    if (auditor_ && op.op.type != OpType::kAlu &&
        op.op.type != OpType::kAluChain && op.nextCursor > auditedCursor_) {
        auditedCursor_ = op.nextCursor;
        auditor_->observe(op.op, op.nextCursor - 1, now_);
    }
    // Cycle-account replay frontier: abort_replay classification needs
    // to know whether retirement is still below the pre-abort high water.
    if (accountant_) {
        frontierCursor_ = op.nextCursor;
        if (op.nextCursor > maxRetiredCursor_)
            maxRetiredCursor_ = op.nextCursor;
    }
}

void
OooCore::releaseRetired(uint64_t nextCursor)
{
    uint64_t target = nextCursor;
    if (specMode_)
        target = std::min(target, epochs_.oldestCursor());
    if (target > releasedCursor_ && (target - releasedCursor_) >= 4096) {
        program_.release(target);
        releasedCursor_ = target;
    }
}

void
OooCore::popHead()
{
    const DynOp &head = rob_.front();
    if (isMemOp(head.op.type)) {
        SP_ASSERT(lsqCount_ > 0, "LSQ accounting underflow");
        --lsqCount_;
    }
    releaseRetired(head.nextCursor);
    rob_.pop_front();
    flags_.progress = true;
}

void
OooCore::noteSpecStore(const DynOp &op)
{
    SsbEntry entry;
    entry.type = SsbEntryType::kStore;
    entry.size = op.op.size;
    entry.epoch = epochs_.currentEpoch();
    entry.addr = op.op.addr;
    entry.value = op.op.value;
    ssb_.push(entry, now_);
    bloom_.insert(op.op.addr);
    blt_.record(op.op.addr);
    if (injector_)
        injector_->noteSpecWrite(op.op.addr);
    ++stats_.ssbEnqueues;
    stats_.ssbMaxOccupancy =
        std::max<uint64_t>(stats_.ssbMaxOccupancy, ssb_.size());
}

bool
OooCore::retireStore(const DynOp &head)
{
    if (specMode_) {
        if (ssb_.full()) {
            flags_.ssbBlocked = true;
            return false;
        }
        noteSpecStore(head);
    } else {
        if (storeBuffer_.size() >= cfg_.core.storeBufferSize) {
            flags_.sbBlocked = true;
            return false;
        }
        storeBuffer_.push_back({head.op.addr, head.op.value, head.op.size});
    }
    countRetired(head);
    popHead();
    return true;
}

bool
OooCore::retireWriteback(const DynOp &head)
{
    if (specMode_) {
        // PMEM ops cannot execute speculatively; delay them in the SSB.
        if (ssb_.full()) {
            flags_.ssbBlocked = true;
            return false;
        }
        SsbEntry entry;
        entry.type = head.op.type == OpType::kClwb ? SsbEntryType::kClwb
            : head.op.type == OpType::kClflushOpt ? SsbEntryType::kClflushOpt
                                                  : SsbEntryType::kClflush;
        entry.epoch = epochs_.currentEpoch();
        entry.addr = head.op.addr;
        ssb_.push(entry, now_);
        epochHasPersistOps_ = true;
        ++stats_.ssbEnqueues;
        stats_.ssbMaxOccupancy =
            std::max<uint64_t>(stats_.ssbMaxOccupancy, ssb_.size());
    } else {
        // clwb is ordered with respect to older stores to the same cache
        // line: they must reach the L1D before the block is written back.
        if (storePendingTo(head.op.addr)) {
            flags_.sbBlocked = true;
            return false;
        }
        Tick ack = 0;
        bool invalidate = head.op.type != OpType::kClwb;
        if (!caches_.writebackBlock(head.op.addr, invalidate, now_, ack)) {
            // WPQ full: retry next cycle.
            flags_.sbBlocked = true;
            return false;
        }
        persistAcks_.push_back(ack);
    }
    countRetired(head);
    popHead();
    return true;
}

bool
OooCore::retirePcommit(const DynOp &head)
{
    if (specMode_) {
        if (ssb_.full()) {
            flags_.ssbBlocked = true;
            return false;
        }
        SsbEntry entry;
        entry.type = SsbEntryType::kPcommit;
        entry.epoch = epochs_.currentEpoch();
        ssb_.push(entry, now_);
        epochHasPersistOps_ = true;
        ++stats_.ssbEnqueues;
    } else {
        flushes_.push_back({mc_.startFlush(now_), kTickNever});
    }
    countRetired(head);
    popHead();
    return true;
}

bool
OooCore::triggerSpeculation(const DynOp &fence)
{
    gateScratch_.clear();
    for (const FlushFlight &flight : flushes_) {
        if (!mc_.flushComplete(flight.id))
            gateScratch_.push_back(flight.id);
    }
    SP_ASSERT(!gateScratch_.empty(),
              "speculation trigger without pending pcommit");
    if (!epochs_.beginSpeculation(fence.nextCursor, gateScratch_, now_))
        return false;
    specMode_ = true;
    epochHasPersistOps_ = false;
    flushes_.clear();
    if (accountant_)
        accountant_->noteSpeculationEntered();
    if (tracer_ && tracer_->enabled(kTraceSpec)) {
        tracer_->instant(kTraceSpec, TraceName::kSpeculate, now_,
                         {fence.nextCursor});
    }
    return true;
}

bool
OooCore::retireFence(const DynOp &head)
{
    if (specMode_)
        return retireSpecFence(head);

    updateFlushAcks();
    if (storeBufferEmpty() && persistAcksDone() && flushesAcked()) {
        persistAcks_.clear();
        flushes_.clear();
        countRetired(head);
        popHead();
        governor_.noteFenceRetired(now_);
        return true;
    }

    // Blocked. Speculate if this fence waits on an outstanding pcommit
    // and the forward-progress watchdog permits re-entry (after an abort
    // storm, waiting here non-speculatively IS the fallback semantics).
    if (cfg_.sp.enabled && governor_.speculationAllowed(now_) &&
        anyFlushOutstanding() && triggerSpeculation(head)) {
        countRetired(head);
        popHead();
        return true;
    }

    flags_.fenceBlocked = true;
    return false;
}

bool
OooCore::retireSpecFence(const DynOp &head)
{
    // Peephole: fold sfence-pcommit-sfence into one checkpoint + one SSB
    // entry (paper Section 4.2.2).
    bool more_may_come = !fetchQ_.empty() || pendingAlu_ > 0 ||
        !programEnded_;
    if (cfg_.sp.spsPeephole) {
        if (rob_.size() >= 2 && rob_[1].op.type == OpType::kPcommit) {
            if (rob_.size() < 3) {
                if (more_may_come) {
                    // Wait to see whether a second sfence follows.
                    flags_.fenceBlocked = true;
                    return false;
                }
            } else if (rob_[2].op.type == OpType::kSfence ||
                       rob_[2].op.type == OpType::kMfence) {
                DynOp &pc = rob_[1];
                DynOp &f2 = rob_[2];
                if (!pc.issued || pc.readyAt > now_ || !f2.issued ||
                    f2.readyAt > now_) {
                    flags_.fenceBlocked = true;
                    return false;
                }
                if (ssb_.full()) {
                    flags_.ssbBlocked = true;
                    return false;
                }
                if (!epochs_.canStartChild()) {
                    flags_.checkpointBlocked = true;
                    return false;
                }
                SsbEntry entry;
                entry.type = SsbEntryType::kSps;
                entry.epoch = epochs_.currentEpoch();
                ssb_.push(entry, now_);
                ++stats_.ssbEnqueues;
                ++stats_.spsTriples;
                bool ok = epochs_.startChild(f2.nextCursor, now_);
                SP_ASSERT(ok, "startChild failed despite canStartChild");
                epochHasPersistOps_ = false;
                // Retire all three ops.
                countRetired(rob_.front());
                popHead();
                countRetired(rob_.front());
                popHead();
                countRetired(rob_.front());
                popHead();
                return true;
            }
        }
    }

    if (!epochHasPersistOps_) {
        // The epoch contains no delayed PMEM operations, so the fence
        // imposes no constraint the SSB's FIFO order does not already
        // guarantee; retire it silently and keep speculating.
        countRetired(head);
        popHead();
        return true;
    }

    // Bare fence boundary: close the epoch and start a child.
    if (ssb_.full()) {
        flags_.ssbBlocked = true;
        return false;
    }
    if (!epochs_.canStartChild()) {
        flags_.checkpointBlocked = true;
        return false;
    }
    SsbEntry entry;
    entry.type = SsbEntryType::kFenceMark;
    entry.epoch = epochs_.currentEpoch();
    ssb_.push(entry, now_);
    ++stats_.ssbEnqueues;
    bool ok = epochs_.startChild(head.nextCursor, now_);
    SP_ASSERT(ok, "startChild failed despite canStartChild");
    epochHasPersistOps_ = false;
    countRetired(head);
    popHead();
    return true;
}

bool
OooCore::retireXchg(const DynOp &head)
{
    if (specMode_) {
        // xchg is an ordering instruction: boundary if the epoch holds
        // PMEM ops, then the store itself enters the (new) epoch.
        if (epochHasPersistOps_) {
            if (ssb_.full()) {
                flags_.ssbBlocked = true;
                return false;
            }
            if (!epochs_.canStartChild()) {
                flags_.checkpointBlocked = true;
                return false;
            }
            SsbEntry mark;
            mark.type = SsbEntryType::kFenceMark;
            mark.epoch = epochs_.currentEpoch();
            ssb_.push(mark, now_);
            ++stats_.ssbEnqueues;
            bool ok = epochs_.startChild(head.nextCursor, now_);
            SP_ASSERT(ok, "startChild failed despite canStartChild");
            epochHasPersistOps_ = false;
        }
        if (ssb_.full()) {
            flags_.ssbBlocked = true;
            return false;
        }
        noteSpecStore(head);
        countRetired(head);
        popHead();
        return true;
    }

    updateFlushAcks();
    if (!(storeBufferEmpty() && persistAcksDone() && flushesAcked())) {
        flags_.fenceBlocked = true;
        return false;
    }
    if (storeBuffer_.size() >= cfg_.core.storeBufferSize) {
        flags_.sbBlocked = true;
        return false;
    }
    persistAcks_.clear();
    flushes_.clear();
    storeBuffer_.push_back({head.op.addr, head.op.value, head.op.size});
    countRetired(head);
    popHead();
    return true;
}

bool
OooCore::retireHead()
{
    DynOp &head = rob_.front();
    if (!head.issued || head.readyAt > now_)
        return false;

    if (postAbortDrain_) {
        updateFlushAcks();
        if (!(storeBufferEmpty() && persistAcksDone() && flushesAcked())) {
            flags_.fenceBlocked = true;
            return false;
        }
        persistAcks_.clear();
        flushes_.clear();
        postAbortDrain_ = false;
    }

    switch (head.op.type) {
      case OpType::kAlu:
      case OpType::kAluChain:
        countRetired(head);
        popHead();
        return true;
      case OpType::kLoad:
        if (specMode_)
            blt_.record(head.op.addr);
        countRetired(head);
        popHead();
        return true;
      case OpType::kStore:
        return retireStore(head);
      case OpType::kClwb:
      case OpType::kClflushOpt:
      case OpType::kClflush:
        return retireWriteback(head);
      case OpType::kPcommit:
        return retirePcommit(head);
      case OpType::kSfence:
      case OpType::kMfence:
        return retireFence(head);
      case OpType::kXchg:
        return retireXchg(head);
    }
    SP_PANIC("unhandled op type at retirement");
}

void
OooCore::retireStage()
{
    unsigned retired = 0;
    while (retired < cfg_.core.retireWidth && !rob_.empty()) {
        if (!retireHead())
            break;
        ++retired;
    }
}

// --------------------------------------------------------------------------
// Store buffer drain
// --------------------------------------------------------------------------

void
OooCore::drainStoreBuffer()
{
    // The L1D store port is occupied one cycle per committing store
    // (latency is not occupancy); a miss blocks the drain until the fill
    // returns. Two commit ports per cycle.
    if (sbInFlight_) {
        if (now_ < sbHeadDoneAt_)
            return;
        sbInFlight_ = false;
        flags_.progress = true;
    }
    unsigned drained = 0;
    while (drained < 2 && !storeBuffer_.empty()) {
        // Copy, not reference: pop_front() below frees the front node,
        // and entry.addr is still needed on the miss path.
        const StoreBufEntry entry = storeBuffer_.front();
        Tick done =
            caches_.writeAccess(entry.addr, entry.value, entry.size, now_);
        storeBuffer_.pop_front();
        ++drained;
        flags_.progress = true;
        if (done > now_ + cfg_.l1d.latency) {
            // Miss: the port is blocked until the fill completes.
            sbInFlight_ = true;
            sbHeadDoneAt_ = done;
            sbInFlightBlock_ = blockAlign(entry.addr);
            break;
        }
    }
}

// --------------------------------------------------------------------------
// Speculation exit and abort
// --------------------------------------------------------------------------

void
OooCore::maybeExitSpeculation()
{
    if (!specMode_)
        return;
    if (!epochs_.readyToExit())
        return;
    if (tracer_ && tracer_->enabled(kTraceSpec))
        tracer_->instant(kTraceSpec, TraceName::kCommit, now_);
    epochs_.exitSpeculation(now_);
    bloom_.reset();
    blt_.clear();
    specMode_ = false;
    epochHasPersistOps_ = false;
    governor_.noteCommit(now_);
    flags_.progress = true;
}

void
OooCore::abortSpeculation()
{
    ++stats_.aborts;
    uint64_t cursor = epochs_.oldestCursor();
    if (tracer_ && tracer_->enabled(kTraceSpec)) {
        tracer_->instant(kTraceSpec, TraceName::kAbort, now_, {cursor});
    }
    epochs_.abortAll(now_);
    ssb_.clear();
    if (tracer_ && tracer_->enabled(kTraceSsb))
        tracer_->counter(kTraceSsb, TraceName::kSsbOccupancy, now_, 0);
    bloom_.reset();
    blt_.clear();
    program_.rewind(cursor);
    fetchQ_.clear();
    rob_.clear();
    clearIssueQueues();
    lsqCount_ = 0;
    pendingAlu_ = 0;
    // The rewound window has ops to re-deliver even if the inner program
    // had already been exhausted; fetch must resume and rediscover the
    // end itself.
    programEnded_ = false;
    specMode_ = false;
    epochHasPersistOps_ = false;
    // Re-establish the ordering the speculatively retired fence promised:
    // hold retirement until every pre-speculation persist completes.
    postAbortDrain_ = true;
    governor_.noteAbort(now_);
    if (accountant_) {
        // Everything between the rewind point and the farthest cursor
        // ever retired is now re-execution: classify the progress spent
        // recovering it as abort_replay, not compute.
        replayUntil_ = maxRetiredCursor_;
        frontierCursor_ = cursor;
    }
}

void
OooCore::processProbes()
{
    if (probePeriod_ != 0 && now_ >= nextProbeAt_) {
        // Cheap deterministic splitmix draw for the probed block.
        while (now_ >= nextProbeAt_) {
            uint64_t z = (probeRngState_ += 0x9e3779b97f4a7c15ULL);
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            z ^= z >> 31;
            Addr addr = probeBase_ +
                blockAlign(z % probeRange_);
            if (specMode_ && blt_.probe(addr))
                abortSpeculation();
            nextProbeAt_ += probePeriod_;
        }
    }
    while (!probes_.empty() && probes_.begin()->first <= now_) {
        Addr addr = probes_.begin()->second;
        probes_.erase(probes_.begin());
        if (specMode_ && blt_.probe(addr))
            abortSpeculation();
    }
    if (injector_) {
        // Campaign adversary. Drawing even while non-speculative keeps
        // the probe schedule a pure function of (seed, time), not of
        // how long each speculative episode happened to last.
        while (injector_->due(now_)) {
            Addr addr = injector_->drawProbe(now_);
            ++stats_.conflictProbes;
            if (specMode_ && blt_.probe(addr))
                abortSpeculation();
        }
    }
}

void
OooCore::enablePeriodicProbes(Tick period, Addr base, uint64_t rangeBytes,
                              uint64_t seed)
{
    probePeriod_ = period;
    nextProbeAt_ = now_ + period;
    probeBase_ = blockAlign(base);
    probeRange_ = rangeBytes ? rangeBytes : kBlockBytes;
    probeRngState_ = seed;
}

void
OooCore::scheduleProbe(Tick atCycle, Addr blockAddr)
{
    probes_.emplace(atCycle, blockAlign(blockAddr));
}

// --------------------------------------------------------------------------
// Main loop
// --------------------------------------------------------------------------

bool
OooCore::done() const
{
    return programEnded_ && pendingAlu_ == 0 && fetchQ_.empty() &&
        rob_.empty() && storeBuffer_.empty() && !sbInFlight_ && !specMode_;
}

CycleCat
OooCore::classifyCycle() const
{
    // Strict priority: the first condition that fired this cycle owns
    // it. Retirement-blocking stalls outrank everything (they gate the
    // whole window), fence first so the category telescopes exactly to
    // Stats::fenceStallCycles -- both are incremented under the
    // identical flags_.fenceBlocked condition, per cycle and per
    // skipped span.
    if (flags_.fenceBlocked)
        return CycleCat::kFenceExposed;
    if (flags_.ssbBlocked)
        return CycleCat::kSsbFull;
    if (flags_.checkpointBlocked)
        return CycleCat::kCheckpoint;
    if (flags_.sbBlocked)
        return CycleCat::kStoreBuffer;
    // Progress outranks the fetch-queue flag: a full fetch queue while
    // the backend retires/issues work is a symptom of throughput, not
    // lost time. fetch_stall owns only cycles where the frontend is
    // blocked and nothing else moved (backend latency-bound).
    if (flags_.progress) {
        return frontierCursor_ < replayUntil_ ? CycleCat::kAbortReplay
                                              : CycleCat::kCompute;
    }
    if (flags_.fetchBlocked)
        return CycleCat::kFetchStall;
    // Idle cycles, most-specific cause first. Every input below is
    // stable across a skipped span: backoff expiry and memory-system
    // state changes are nextEventTick() events.
    if (governor_.degraded() || governor_.backoffUntil() > now_)
        return CycleCat::kWatchdogDegraded;
    if (mc_.outstandingFlushes() > 0 || mc_.wpqOccupancy() > 0)
        return CycleCat::kWpqDrain;
    return CycleCat::kIdle;
}

bool
OooCore::barrierPending() const
{
    // A persist barrier is pending while a fence (or ordering xchg, or
    // the post-abort drain) blocks retirement -- the exposed case -- or
    // while the core speculates past an incomplete pcommit gate -- the
    // window speculation tries to hide.
    if (flags_.fenceBlocked)
        return true;
    return specMode_ && epochs_.gateOutstanding();
}

void
OooCore::stepCycle()
{
    flags_ = CycleFlags{};

    mc_.advanceTo(now_);
    compactPersistState();
    processProbes();
    if (specMode_) {
        epochs_.setPreSpecDrained(preSpecDrained());
        if (epochs_.tick(now_))
            flags_.progress = true;
    }
    retireStage();
    drainStoreBuffer();
    issueStage();
    dispatchStage();
    fetchStage();
    maybeExitSpeculation();

    // Cycle-granularity stall accounting.
    if (flags_.fetchBlocked)
        ++stats_.fetchQueueStallCycles;
    if (flags_.fenceBlocked)
        ++stats_.fenceStallCycles;
    if (flags_.ssbBlocked)
        ++stats_.ssbFullStallCycles;
    if (flags_.checkpointBlocked)
        ++stats_.checkpointStallCycles;
    if (flags_.sbBlocked)
        ++stats_.storeBufferStallCycles;

    // Exhaustive cycle attribution. Classified after every stage has set
    // its flags so the priority order sees the whole cycle; the cached
    // classification is what skipIdleCycles() attributes to a skipped
    // span (during which, by the nextEventTick() contract, none of the
    // inputs below can change).
    if (accountant_) {
        lastCat_ = classifyCycle();
        lastBarrier_ = barrierPending();
        accountant_->account(lastCat_, lastBarrier_, 1);
    }

    if (tracer_) {
        // Fence-stall intervals: one span from the first blocked cycle
        // to the first cycle the head is no longer fence-blocked
        // (retired, or speculatively retired by the SP trigger).
        if (tracer_->enabled(kTraceSpec)) {
            if (flags_.fenceBlocked) {
                if (fenceStallBegin_ == kTickNever)
                    fenceStallBegin_ = now_;
            } else if (fenceStallBegin_ != kTickNever) {
                tracer_->span(kTraceSpec, TraceName::kFenceStall,
                              fenceStallBegin_, now_);
                fenceStallBegin_ = kTickNever;
            }
        }
        if (tracer_->enabled(kTraceCounters) && now_ >= nextSampleAt_) {
            sampleCounters();
            nextSampleAt_ = now_ + tracer_->sampleEvery();
        }
    }
}

bool
OooCore::chainPathOpen() const
{
    // The oracle clock stays the per-cycle reference the fast path is
    // checked against. A zero-width stage never moves an op, so the
    // fast path's one op per stage would be wrong there.
    const CoreConfig &core = cfg_.core;
    return cfg_.eventSkip && core.fetchWidth > 0 && core.dispatchWidth > 0 &&
        core.issueWidth > 0 && core.retireWidth > 0 && !tracer_ &&
        !accountant_ && !auditor_ && !injector_ && probePeriod_ == 0 &&
        probes_.empty();
}

bool
OooCore::chainCycleApplies() const
{
    if (specMode_ || postAbortDrain_ || sbInFlight_ ||
        !storeBuffer_.empty())
        return false;
    if (unissuedCount_ != cfg_.core.issueQueueSize ||
        fetchQ_.size() != cfg_.core.fetchQueueSize || rob_.size() < 2 ||
        !readySeqs_.empty() || pendingWakes_.empty())
        return false;
    const DynOp &head = rob_.front();
    if (head.op.type != OpType::kAluChain || !head.issued ||
        head.readyAt > now_ || fetchQ_.front().op.type != OpType::kAluChain)
        return false;
    // The one due wake is the op behind the head; the heap's top is the
    // earliest wake, so its children bound every other one.
    const std::vector<Tick> &at = pendingWakes_.at;
    return at[0] <= now_ && pendingWakes_.topSeq() == rob_[1].seq &&
        (at.size() < 2 || at[1] > now_) && (at.size() < 3 || at[2] > now_);
}

void
OooCore::stepChainCycle()
{
    // Each line below is what stepCycle() does in this state; the stages
    // it leaves out provably do nothing here. No probe source is
    // attached, so processProbes() is idle; the core does not speculate,
    // so the epoch manager is not ticked and maybeExitSpeculation()
    // returns at once; the store buffer is empty, so it does not drain.
    flags_ = CycleFlags{};
    mc_.advanceTo(now_);
    compactPersistState();

    // Retire the completed chain head (no LSQ entry, no observer). The
    // new head has not issued, so retirement stops after one op.
    const DynOp &head = rob_.front();
    stats_.instructions += head.op.instructionCount();
    releaseRetired(head.nextCursor);
    rob_.pop_front();
    flags_.progress = true;

    // Issue the one due wake, the new head. stepCycle() routes it
    // through readySeqs_, which is empty again once it issues.
    pendingWakes_.pop();
    executeOp(rob_.front());
    --unissuedCount_;

    // That issue freed the one issue-queue entry dispatch can fill; the
    // fetch-queue head is a chain element, so it needs no LSQ entry.
    dispatchFront();

    fetchStage();
    if (flags_.fetchBlocked)
        ++stats_.fetchQueueStallCycles;
}

Tick
OooCore::nextEventTick() const
{
    Tick next = kTickNever;
    auto consider = [&](Tick t) {
        if (t > now_ && t < next)
            next = t;
    };

    consider(mc_.nextEventTick());
    if (sbInFlight_)
        consider(sbHeadDoneAt_);
    for (Tick t : persistAcks_)
        consider(t);
    for (const FlushFlight &flight : flushes_) {
        if (flight.ackAt != kTickNever)
            consider(flight.ackAt);
    }
    for (const DynOp &op : rob_) {
        if (op.issued && op.readyAt > now_)
            consider(op.readyAt);
    }
    if (specMode_)
        consider(epochs_.nextEventTick());
    if (!probes_.empty())
        consider(probes_.begin()->first);
    if (probePeriod_ != 0 && specMode_)
        consider(nextProbeAt_);
    // Injector draws must happen on time even while idle (the schedule
    // is absolute); the backoff expiry unblocks a stalled fence.
    if (injector_)
        consider(injector_->nextAt());
    if (governor_.backoffUntil() > now_)
        consider(governor_.backoffUntil());
    // The interval sampler must fire at its exact tick even while the
    // pipeline is idle, or counter traces would depend on the skip
    // schedule instead of on simulated time.
    if (tracer_ && tracer_->enabled(kTraceCounters))
        consider(nextSampleAt_);
    return next;
}

void
OooCore::skipIdleCycles()
{
    Tick next = nextEventTick();
    if (next == kTickNever || next <= now_ + 1) {
        ++now_;
        return;
    }
    Tick delta = next - now_ - 1;
    if (flags_.fetchBlocked)
        stats_.fetchQueueStallCycles += delta;
    if (flags_.fenceBlocked)
        stats_.fenceStallCycles += delta;
    if (flags_.ssbBlocked)
        stats_.ssbFullStallCycles += delta;
    if (flags_.checkpointBlocked)
        stats_.checkpointStallCycles += delta;
    if (flags_.sbBlocked)
        stats_.storeBufferStallCycles += delta;
    // Attribute the skipped span to the first idle cycle's classification
    // (same contract as the stall counters above), so skipped cycles are
    // accounted, never lost: sum(categories) tracks now_ exactly.
    if (accountant_)
        accountant_->account(lastCat_, lastBarrier_, delta);
    now_ = next;
}

bool
OooCore::runUntil(Tick cycleLimit)
{
    // Observers and probe sources are attached between calls, and
    // scheduled probes only drain during one, so once the fast path is
    // open at entry it stays open for the whole call.
    const bool chain_path = chainPathOpen();
    uint64_t idle_streak = 0;
    while (!done()) {
        if (now_ >= cycleLimit) {
            stats_.cycles = now_;
            return false;
        }
        if (chain_path && chainCycleApplies()) {
            stepChainCycle();
            ++chainFastCycles_;
        } else {
            stepCycle();
        }
        if (flags_.progress) {
            idle_streak = 0;
            ++now_;
        } else if (cfg_.eventSkip) {
            ++idle_streak;
            SP_ASSERT(idle_streak < 1000,
                      "no forward progress for 1000 events at cycle ", now_);
            skipIdleCycles();
        } else {
            // Oracle tick loop (FastForwardBitIdentity baseline): one
            // cycle at a time. The streak here counts idle *cycles*,
            // which legitimately run to thousands while a flush drains,
            // so liveness is proven periodically instead of per event.
            if (++idle_streak % 65536 == 0) {
                SP_ASSERT(nextEventTick() != kTickNever,
                          "no future event after ", idle_streak,
                          " idle cycles at cycle ", now_);
            }
            ++now_;
        }
        if (cfg_.maxCycles && now_ > cfg_.maxCycles) {
            // Safety valve: report, don't kill the process. The caller
            // (sweep / campaign) records this as RunOutcome::kMaxCycles
            // so one runaway cell cannot take down a whole worker.
            hitMaxCycles_ = true;
            stats_.cycles = now_;
            return false;
        }
    }
    stats_.cycles = now_;
    return true;
}

void
OooCore::run()
{
    runUntil(kTickNever);
}

void
OooCore::collectPoolStats(std::vector<PoolStat> &out) const
{
    out.push_back(fetchQ_.stat("core.fetchQ"));
    out.push_back(rob_.stat("core.rob"));
    out.push_back(storeBuffer_.stat("core.storeBuffer"));
    out.push_back(readySeqs_.stat("core.readySeqs"));
    out.push_back({"core.pendingWakes", pendingWakes_.at.capacity(),
                   pendingWakes_.highWater});
    ssb_.collectPoolStats(out);
    epochs_.collectPoolStats(out);
    program_.collectPoolStats(out);
    mc_.collectPoolStats(out);
}

// --------------------------------------------------------------------------
// Whole-simulator snapshots
// --------------------------------------------------------------------------

bool
OooCore::quiescent() const
{
    return !specMode_ && !postAbortDrain_ && !flags_.fenceBlocked &&
           fenceStallBegin_ == kTickNever && epochs_.idle() &&
           mc_.outstandingFlushes() == 0;
}

void
OooCore::saveState(SnapshotWriter &w) const
{
    static_assert(std::is_trivially_copyable<DynOp>::value,
                  "DynOp must stay trivially copyable");
    static_assert(std::is_trivially_copyable<StoreBufEntry>::value,
                  "StoreBufEntry must stay trivially copyable");
    static_assert(std::is_trivially_copyable<FlushFlight>::value,
                  "FlushFlight must stay trivially copyable");
    SP_ASSERT(!ownedTracer_,
              "cannot snapshot with a text-sink tracer attached");
    w.putTag("CORE");
    w.putPod(now_);

    // Owned SP structures and the replay window.
    program_.saveState(w);
    ssb_.saveState(w);
    checkpoints_.saveState(w);
    bloom_.saveState(w);
    blt_.saveState(w);
    epochs_.saveState(w);

    // Pipeline queues. The issue heaps are serialized as raw arrays so
    // pop order among equal keys survives the round trip bit-for-bit.
    w.putRing(fetchQ_);
    w.putRing(rob_);
    w.putPodVec(readySeqs_.raw());
    w.putPodVec(pendingWakes_.at);
    w.putPodVec(pendingWakes_.seq);
    w.putPodVec(waitHead_);
    w.putPod(unissuedCount_);
    w.putPod(lsqCount_);
    w.putPod(nextSeq_);
    w.putPod(pendingAlu_);
    w.putPod(pendingAluCursor_);
    w.putPod(programEnded_);
    w.putPodVec(doneAt_);

    // Post-retirement store path.
    w.putRing(storeBuffer_);
    w.putPod(sbInFlight_);
    w.putPod(sbHeadDoneAt_);
    w.putPod(sbInFlightBlock_);

    // Persist-op bookkeeping (gateScratch_ is dead between uses).
    w.putPodVec(persistAcks_);
    w.putPodVec(flushes_);

    // Speculation state.
    w.putPod(specMode_);
    w.putPod(epochHasPersistOps_);
    w.putPod(postAbortDrain_);
    w.putPod(releasedCursor_);

    // Observer cursors (meaningful only with the observer attached, but
    // cheap and unconditional keeps the payload layout fixed).
    w.putPod(auditedCursor_);
    w.putPod(lastCat_);
    w.putPod(lastBarrier_);
    w.putPod(frontierCursor_);
    w.putPod(maxRetiredCursor_);
    w.putPod(replayUntil_);
    w.putPod(fenceStallBegin_);

    // Probe schedule (multimap serialized in iteration order; equal-key
    // order is insertion order and emplace preserves it on restore).
    w.putPod<uint64_t>(probes_.size());
    for (const auto &entry : probes_) {
        w.putPod(entry.first);
        w.putPod(entry.second);
    }
    w.putPod(probePeriod_);
    w.putPod(nextProbeAt_);
    w.putPod(probeBase_);
    w.putPod(probeRange_);
    w.putPod(probeRngState_);

    governor_.saveState(w);
    w.putPod(hitMaxCycles_);
    w.putPod(flags_);
}

void
OooCore::restoreState(SnapshotReader &r)
{
    SP_ASSERT(!ownedTracer_,
              "cannot restore with a text-sink tracer attached");
    r.checkTag("CORE");
    r.getPod(now_);

    program_.restoreState(r);
    ssb_.restoreState(r);
    checkpoints_.restoreState(r);
    bloom_.restoreState(r);
    blt_.restoreState(r);
    epochs_.restoreState(r);

    r.getRing(fetchQ_);
    r.getRing(rob_);
    {
        std::vector<uint64_t> heap;
        r.getPodVec(heap);
        readySeqs_.restoreRaw(heap);
    }
    r.getPodVec(pendingWakes_.at);
    r.getPodVec(pendingWakes_.seq);
    SP_ASSERT(pendingWakes_.at.size() == pendingWakes_.seq.size(),
              "wake-heap arrays out of step in snapshot");
    if (pendingWakes_.at.size() > pendingWakes_.highWater)
        pendingWakes_.highWater = pendingWakes_.at.size();
    r.getPodVec(waitHead_);
    SP_ASSERT(waitHead_.size() == kRingSize,
              "snapshot wait-ring size mismatch");
    r.getPod(unissuedCount_);
    r.getPod(lsqCount_);
    r.getPod(nextSeq_);
    r.getPod(pendingAlu_);
    r.getPod(pendingAluCursor_);
    r.getPod(programEnded_);
    r.getPodVec(doneAt_);
    SP_ASSERT(doneAt_.size() == kRingSize,
              "snapshot done-ring size mismatch");

    r.getRing(storeBuffer_);
    r.getPod(sbInFlight_);
    r.getPod(sbHeadDoneAt_);
    r.getPod(sbInFlightBlock_);

    r.getPodVec(persistAcks_);
    r.getPodVec(flushes_);

    r.getPod(specMode_);
    r.getPod(epochHasPersistOps_);
    r.getPod(postAbortDrain_);
    r.getPod(releasedCursor_);

    r.getPod(auditedCursor_);
    r.getPod(lastCat_);
    r.getPod(lastBarrier_);
    r.getPod(frontierCursor_);
    r.getPod(maxRetiredCursor_);
    r.getPod(replayUntil_);
    r.getPod(fenceStallBegin_);

    probes_.clear();
    uint64_t numProbes = r.getPod<uint64_t>();
    for (uint64_t i = 0; i < numProbes; ++i) {
        Tick at = r.getPod<Tick>();
        Addr block = r.getPod<Addr>();
        probes_.emplace(at, block);
    }
    r.getPod(probePeriod_);
    r.getPod(nextProbeAt_);
    r.getPod(probeBase_);
    r.getPod(probeRange_);
    r.getPod(probeRngState_);

    governor_.restoreState(r);
    r.getPod(hitMaxCycles_);
    r.getPod(flags_);

    // The interval sampler fires at absolute multiples of its period
    // (see stepCycle); re-derive the next firing from the restored
    // clock so a replayed slice samples at the serial run's exact
    // ticks whether or not the snapshotting run had a tracer.
    Tick every = tracer_ ? tracer_->sampleEvery() : 0;
    if (every != 0 && tracer_->enabled(kTraceCounters))
        nextSampleAt_ = (now_ + every - 1) / every * every;
    else
        nextSampleAt_ = now_;
}

} // namespace sp
