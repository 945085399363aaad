#include "pmem/op_emitter.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sp
{

const char *
persistModeName(PersistMode mode)
{
    switch (mode) {
      case PersistMode::kNone:
        return "Base";
      case PersistMode::kLog:
        return "Log";
      case PersistMode::kLogP:
        return "Log+P";
      case PersistMode::kLogPSf:
        return "Log+P+Sf";
    }
    return "?";
}

std::string
describeMutation(const BarrierMutation &m)
{
    if (!m.active())
        return "";
    std::string out;
    switch (m.kind) {
      case BarrierMutation::Kind::kNone:
        return "";
      case BarrierMutation::Kind::kDrop:
        out = "drop";
        break;
      case BarrierMutation::Kind::kDuplicate:
        out = "dup";
        break;
      case BarrierMutation::Kind::kDelay:
        out = "delay" + std::to_string(m.delayBarriers);
        break;
    }
    switch (m.target) {
      case BarrierMutation::Target::kClwb:
        out += ":clwb";
        break;
      case BarrierMutation::Target::kSfence:
        out += ":sfence";
        break;
      case BarrierMutation::Target::kPcommit:
        out += ":pcommit";
        break;
    }
    out += "@" + std::to_string(m.occurrence);
    return out;
}

namespace
{

bool
mutationTargets(BarrierMutation::Target target, OpType type)
{
    switch (target) {
      case BarrierMutation::Target::kClwb:
        return type == OpType::kClwb || type == OpType::kClflushOpt ||
            type == OpType::kClflush;
      case BarrierMutation::Target::kSfence:
        return type == OpType::kSfence || type == OpType::kMfence;
      case BarrierMutation::Target::kPcommit:
        return type == OpType::kPcommit;
    }
    return false;
}

} // namespace

OpEmitter::OpEmitter(MemImage &image, PersistMode mode)
    : image_(image), mode_(mode)
{
}

bool
OpEmitter::next(MicroOp &op)
{
    while (queue_.empty()) {
        if (finished_ || !generator_)
            return false;
        if (!generator_()) {
            finished_ = true;
            if (queue_.empty())
                return false;
            break;
        }
    }
    op = queue_.front();
    queue_.pop_front();
    return true;
}

uint16_t
OpEmitter::depDistance(Handle dep) const
{
    if (muted_ || dep == kNoDep)
        return 0;
    // `dep` is 1 + the producer's op index; the consumer will be op
    // number emitted_.
    uint64_t producer = dep - 1;
    if (producer >= emitted_)
        return 0;
    uint64_t distance = emitted_ - producer;
    if (distance > 4095)
        return 0;
    return static_cast<uint16_t>(distance);
}

void
OpEmitter::emitRaw(const MicroOp &op)
{
    queue_.push_back(op);
    ++emitted_;
}

void
OpEmitter::emit(const MicroOp &op)
{
    if (muted_ || shadow_)
        return;
    if (mutation_.active() && mutateEmit(op))
        return;
    emitRaw(op);
}

bool
OpEmitter::mutateEmit(const MicroOp &op)
{
    if (mutationHolding_) {
        // Pass everything through while counting barriers, then slot the
        // held op back in right after the sfence that ends the window.
        emitRaw(op);
        if (op.type == OpType::kPcommit)
            ++mutationPcommitsPassed_;
        if ((op.type == OpType::kSfence || op.type == OpType::kMfence) &&
            mutationPcommitsPassed_ >= mutation_.delayBarriers) {
            mutationHolding_ = false;
            emitRaw(mutationHeld_);
        }
        return true;
    }
    if (mutationDone_ || !mutationTargets(mutation_.target, op.type))
        return false;
    if (mutationMatches_++ != mutation_.occurrence)
        return false;
    mutationDone_ = true;
    switch (mutation_.kind) {
      case BarrierMutation::Kind::kNone:
        return false;
      case BarrierMutation::Kind::kDrop:
        return true;
      case BarrierMutation::Kind::kDuplicate:
        emitRaw(op);
        emitRaw(op);
        return true;
      case BarrierMutation::Kind::kDelay:
        mutationHolding_ = true;
        mutationHeld_ = op;
        mutationPcommitsPassed_ = 0;
        return true;
    }
    return false;
}

std::array<uint8_t, kBlockBytes> &
OpEmitter::overlayBlock(Addr blockAddr)
{
    uint32_t idx = overlayIndex_.find(blockAddr);
    if (idx == AddrIndexMap::kNotFound) {
        idx = overlayCount_++;
        if (idx == overlayBlocks_.size())
            overlayBlocks_.emplace_back();
        overlayIndex_.insert(blockAddr, idx);
        // Only writes open overlay blocks: this is the first write to
        // the block in this pass.
        shadowWrites_.push_back(blockAddr);
        image_.readBlock(blockAddr, overlayBlocks_[idx].data());
    }
    return overlayBlocks_[idx];
}

void
OpEmitter::recordRead(Addr addr, unsigned size)
{
    Addr blk_addr = blockAlign(addr);
    SP_ASSERT(blockAlign(addr + size - 1) == blk_addr,
              "shadow read crosses a block boundary");
    // Record each block once: a pass re-reads the same blocks many
    // times, and sorting the repeats away in endShadow costs more than
    // this probe.
    if (blk_addr != lastShadowRead_ &&
        shadowReadIndex_.find(blk_addr) == AddrIndexMap::kNotFound) {
        shadowReadIndex_.insert(blk_addr, 0);
        shadowReads_.push_back(blk_addr);
    }
    lastShadowRead_ = blk_addr;
}

uint64_t
OpEmitter::shadowRead(Addr addr, unsigned size)
{
    recordRead(addr, size);
    Addr blk_addr = blockAlign(addr);
    uint32_t idx = overlayIndex_.find(blk_addr);
    if (idx == AddrIndexMap::kNotFound)
        return image_.readInt(addr, size);
    uint64_t v = 0;
    std::copy_n(overlayBlocks_[idx].data() + blockOffset(addr), size,
                reinterpret_cast<uint8_t *>(&v));
    return v;
}

void
OpEmitter::shadowWrite(Addr addr, uint64_t value, unsigned size)
{
    Addr blk_addr = blockAlign(addr);
    SP_ASSERT(blockAlign(addr + size - 1) == blk_addr,
              "shadow write crosses a block boundary");
    auto &blk = overlayBlock(blk_addr);
    std::copy_n(reinterpret_cast<const uint8_t *>(&value), size,
                blk.data() + blockOffset(addr));
}

void
OpEmitter::beginPass()
{
    SP_ASSERT(!shadow_ && !journal_,
              "nested shadow or journal passes are not supported");
    overlayIndex_.clear();
    overlayCount_ = 0;
    journalStashed_ = false;
    shadowReadIndex_.clear();
    lastShadowRead_ = kNoShadowRead;
    shadowReads_.clear();
    shadowWrites_.clear();
}

void
OpEmitter::beginShadow()
{
    beginPass();
    shadow_ = true;
}

void
OpEmitter::endShadow(ShadowResult &out)
{
    SP_ASSERT(shadow_, "endShadow outside a shadow pass");
    shadow_ = false;
    out.readBlocks.swap(shadowReads_);
    out.writtenBlocks.swap(shadowWrites_);
    overlayIndex_.clear();
    overlayCount_ = 0;
    shadowReadIndex_.clear();
    // Both lists hold each block once already; only the order is left.
    std::sort(out.readBlocks.begin(), out.readBlocks.end());
    std::sort(out.writtenBlocks.begin(), out.writtenBlocks.end());
}

void
OpEmitter::beginJournal()
{
    SP_ASSERT(muted_, "journal passes run muted only");
    beginPass();
    journal_ = true;
}

void
OpEmitter::endJournal(ShadowResult &out)
{
    SP_ASSERT(journal_, "endJournal outside a journal pass");
    journal_ = false;
    journalStashed_ = true;
    out.readBlocks.swap(shadowReads_);
    // The stash stays indexed by shadowWrites_, so copy rather than swap.
    out.writtenBlocks.assign(shadowWrites_.begin(), shadowWrites_.end());
    shadowReadIndex_.clear();
    std::sort(out.readBlocks.begin(), out.readBlocks.end());
    std::sort(out.writtenBlocks.begin(), out.writtenBlocks.end());
}

void
OpEmitter::exchangeJournal()
{
    SP_ASSERT(journalStashed_, "exchangeJournal without a journal pass");
    uint8_t cur[kBlockBytes];
    for (uint32_t i = 0; i < overlayCount_; ++i) {
        Addr blk = shadowWrites_[i];
        image_.readBlock(blk, cur);
        image_.writeBlock(blk, overlayBlocks_[i].data());
        std::copy_n(cur, kBlockBytes, overlayBlocks_[i].data());
    }
}

OpEmitter::ShadowResult
OpEmitter::endShadow()
{
    ShadowResult result;
    endShadow(result);
    return result;
}

uint64_t
OpEmitter::load(Addr addr, unsigned size, Handle dep, Handle *handle)
{
    SP_ASSERT(size >= 1 && size <= 8, "load size out of range");
    if (shadow_) {
        if (handle)
            *handle = kNoDep;
        return shadowRead(addr, size);
    }
    if (journal_)
        recordRead(addr, size);
    uint64_t value = image_.readInt(addr, size);
    // Init-phase (muted) emission is a no-op; skip even constructing the
    // micro-op -- tens of millions flow through here per run.
    if (muted_) {
        if (handle)
            *handle = kNoDep;
        return value;
    }
    emit(MicroOp::load(addr, static_cast<uint8_t>(size),
                       depDistance(dep)));
    if (handle)
        *handle = emitted_;
    return value;
}

void
OpEmitter::store(Addr addr, uint64_t value, unsigned size, Handle dep)
{
    SP_ASSERT(size >= 1 && size <= 8, "store size out of range");
    ++stores_;
    if (shadow_) {
        shadowWrite(addr, value, size);
        return;
    }
    if (journal_) {
        // The first write to a block stashes its pre-image.
        Addr blk_addr = blockAlign(addr);
        SP_ASSERT(blockAlign(addr + size - 1) == blk_addr,
                  "journal write crosses a block boundary");
        overlayBlock(blk_addr);
    }
    image_.writeInt(addr, value, size);
    if (muted_)
        return;
    emit(MicroOp::store(addr, value, static_cast<uint8_t>(size),
                        depDistance(dep)));
}

void
OpEmitter::alu(unsigned count, Handle dep)
{
    if (muted_ || shadow_)
        return;
    while (count > 0) {
        uint16_t chunk =
            static_cast<uint16_t>(std::min<unsigned>(count, 0xffff));
        emit(MicroOp::alu(chunk, depDistance(dep)));
        count -= chunk;
        dep = kNoDep;
    }
}

OpEmitter::Handle
OpEmitter::aluChain(unsigned count, Handle dep)
{
    if (count == 0)
        return dep;
    // Muted (init phase) and shadow passes emit nothing; skip the
    // per-element loop entirely -- workload init runs billions of chain
    // elements through here.
    if (muted_ || shadow_)
        return kNoDep;
    // One micro-op per chain element: each occupies a ROB slot, so a
    // stalled fence can only overlap as much serial work as the reorder
    // buffer actually holds -- compressing the chain into multi-cycle
    // entries would let fences hide under impossibly deep lookahead.
    for (unsigned i = 0; i < count; ++i) {
        emit(MicroOp::aluChain(1, depDistance(dep)));
        dep = emitted_;
    }
    return dep;
}

void
OpEmitter::memcpy(Addr dst, Addr src, unsigned len, Handle dep)
{
    // Muted (init phase) copies emit nothing, so move the bytes in
    // block-sized pieces. A copy whose ranges overlap keeps the
    // chunk-by-chunk path below, which defines its result, and so do
    // shadow and journal passes, which record the blocks it touches.
    if (muted_ && !shadow_ && !journal_ &&
        (dst + len <= src || src + len <= dst)) {
        stores_ += (len + 7) / 8; // the chunked path's store count
        uint8_t buf[kBlockBytes];
        for (unsigned off = 0; off < len; off += kBlockBytes) {
            unsigned chunk = std::min<unsigned>(kBlockBytes, len - off);
            image_.read(src + off, buf, chunk);
            image_.write(dst + off, buf, chunk);
        }
        return;
    }
    unsigned off = 0;
    while (off < len) {
        unsigned chunk = std::min(8u, len - off);
        Handle h = kNoDep;
        uint64_t v = load(src + off, chunk, dep, &h);
        store(dst + off, v, chunk, h);
        off += chunk;
    }
}

void
OpEmitter::clwb(Addr addr)
{
    if (mode_ < PersistMode::kLogP || muted_ || shadow_)
        return;
    emit(evictOnPersist_ ? MicroOp::clflushOpt(addr) : MicroOp::clwb(addr));
}

void
OpEmitter::clwbRange(Addr addr, unsigned len)
{
    if (mode_ < PersistMode::kLogP || len == 0)
        return;
    Addr first = blockAlign(addr);
    Addr last = blockAlign(addr + len - 1);
    for (Addr blk = first; blk <= last; blk += kBlockBytes)
        clwb(blk);
}

void
OpEmitter::clflushOpt(Addr addr)
{
    if (mode_ >= PersistMode::kLogP)
        emit(MicroOp::clflushOpt(addr));
}

void
OpEmitter::pcommit()
{
    if (mode_ >= PersistMode::kLogP)
        emit(MicroOp::pcommit());
}

void
OpEmitter::sfence()
{
    if (mode_ >= PersistMode::kLogPSf)
        emit(MicroOp::sfence());
}

void
OpEmitter::persistBarrier()
{
    sfence();
    pcommit();
    sfence();
}

void
OpEmitter::saveState(SnapshotWriter &w) const
{
    SP_ASSERT(!shadow_ && !journal_,
              "cannot snapshot inside a shadow or journal pass");
    w.putTag("EMIT");
    w.putPod(muted_);
    w.putRing(queue_);
    w.putPod(emitted_);
    w.putPod(finished_);
    w.putPod(mutationMatches_);
    w.putPod(mutationDone_);
    w.putPod(mutationHolding_);
    w.putPod(mutationHeld_);
    w.putPod(mutationPcommitsPassed_);
}

void
OpEmitter::restoreState(SnapshotReader &r)
{
    SP_ASSERT(!shadow_ && !journal_,
              "cannot restore inside a shadow or journal pass");
    r.checkTag("EMIT");
    r.getPod(muted_);
    r.getRing(queue_);
    r.getPod(emitted_);
    r.getPod(finished_);
    r.getPod(mutationMatches_);
    r.getPod(mutationDone_);
    r.getPod(mutationHolding_);
    r.getPod(mutationHeld_);
    r.getPod(mutationPcommitsPassed_);
}

} // namespace sp
