#include "mem/mem_system.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sp
{

MemSystem::MemSystem(const MemConfig &cfg, MemImage &durable)
{
    unsigned n = cfg.numMemCtrls ? cfg.numMemCtrls : 1;
    ctrls_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        ctrls_.push_back(std::make_unique<MemCtrl>(cfg, durable));
}

unsigned
MemSystem::ownerOf(Addr blockAddr) const
{
    return static_cast<unsigned>((blockAddr / kBlockBytes) %
                                 ctrls_.size());
}

void
MemSystem::setStats(Stats *stats)
{
    stats_ = stats;
    for (auto &ctrl : ctrls_)
        ctrl->setStats(stats);
}

void
MemSystem::setTracer(Tracer *tracer)
{
    for (size_t i = 0; i < ctrls_.size(); ++i)
        ctrls_[i]->setTracer(tracer, static_cast<uint64_t>(i + 1) << 32);
}

void
MemSystem::advanceTo(Tick now)
{
    for (auto &ctrl : ctrls_)
        ctrl->advanceTo(now);
    // Prune completed system flushes from the front. Completion is in
    // id order on every controller, so a complete front means nothing
    // behind it can be blocking anyone's bookkeeping growth.
    size_t n = ctrls_.size();
    while (!flushParts_.empty()) {
        bool complete = true;
        for (size_t c = 0; c < n; ++c) {
            if (!ctrls_[c]->flushComplete(flushParts_[c])) {
                complete = false;
                break;
            }
        }
        if (!complete)
            break;
        flushParts_.popFront(n);
        ++firstFlushId_;
    }
}

Tick
MemSystem::nextEventTick() const
{
    Tick next = kTickNever;
    for (const auto &ctrl : ctrls_)
        next = std::min(next, ctrl->nextEventTick());
    return next;
}

bool
MemSystem::wpqHasSpace(Addr blockAddr) const
{
    return ctrls_[ownerOf(blockAddr)]->wpqHasSpace();
}

void
MemSystem::insertWrite(Addr blockAddr, const uint8_t *data, bool force)
{
    ctrls_[ownerOf(blockAddr)]->insertWrite(blockAddr, data, force);
}

size_t
MemSystem::wpqOccupancy() const
{
    size_t total = 0;
    for (const auto &ctrl : ctrls_)
        total += ctrl->wpqOccupancy();
    return total;
}

size_t
MemSystem::wpqPeak() const
{
    size_t peak = 0;
    for (const auto &ctrl : ctrls_)
        peak = std::max(peak, ctrl->wpqPeak());
    return peak;
}

void
MemSystem::resetWpqPeak()
{
    for (const auto &ctrl : ctrls_)
        ctrl->resetWpqPeak();
}

Tick
MemSystem::read(Addr blockAddr, Tick now)
{
    return ctrls_[ownerOf(blockAddr)]->read(blockAddr, now);
}

void
MemSystem::readBlockData(Addr blockAddr, uint8_t *out) const
{
    ctrls_[ownerOf(blockAddr)]->readBlockData(blockAddr, out);
}

uint64_t
MemSystem::startFlush(Tick now)
{
    uint64_t id = nextFlushId_++;
    if (flushParts_.empty())
        firstFlushId_ = id;
    SP_ASSERT(firstFlushId_ + flushRecordCount() == id,
              "system flush ids must be contiguous");
    // Broadcast: every controller must flush and acknowledge.
    for (auto &ctrl : ctrls_)
        flushParts_.push_back(ctrl->startFlush(now));
    return id;
}

bool
MemSystem::flushComplete(uint64_t id) const
{
    SP_ASSERT(id >= 1 && id < nextFlushId_, "unknown system flush id ",
              id);
    if (id < firstFlushId_)
        return true;
    size_t n = ctrls_.size();
    size_t base = static_cast<size_t>(id - firstFlushId_) * n;
    SP_ASSERT(base < flushParts_.size(), "system flush id ", id,
              " beyond the pending range");
    for (size_t c = 0; c < n; ++c) {
        if (!ctrls_[c]->flushComplete(flushParts_[base + c]))
            return false;
    }
    return true;
}

unsigned
MemSystem::outstandingFlushes() const
{
    unsigned worst = 0;
    for (const auto &ctrl : ctrls_)
        worst = std::max(worst, ctrl->outstandingFlushes());
    return worst;
}

void
MemSystem::drainAll()
{
    for (auto &ctrl : ctrls_)
        ctrl->drainAll();
}

void
MemSystem::setWriteJitter(unsigned maxExtraCycles, uint64_t seed)
{
    for (size_t i = 0; i < ctrls_.size(); ++i)
        ctrls_[i]->setWriteJitter(maxExtraCycles, seed + i);
}

unsigned
MemSystem::applyTornWrites(uint64_t seed)
{
    unsigned torn = 0;
    for (size_t i = 0; i < ctrls_.size(); ++i)
        torn += ctrls_[i]->applyTornWrites(seed + i);
    return torn;
}

template <class Ar>
void
MemSystem::serialize(Ar &ar)
{
    ar.tag("MSYS");
    ar.pod(nextFlushId_);
    ar.ring(flushParts_);
    ar.pod(firstFlushId_);
    for (auto &ctrl : ctrls_)
        ctrl->serialize(ar);
}

template void MemSystem::serialize(SnapshotWriter &);
template void MemSystem::serialize(SnapshotReader &);

} // namespace sp
