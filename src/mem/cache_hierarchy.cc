#include "mem/cache_hierarchy.hh"

#include <cstring>
#include <vector>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sp
{

CacheHierarchy::CacheHierarchy(const SimConfig &cfg, MemSystem &mc)
    : l1d_("L1D", cfg.l1d), l2_("L2", cfg.l2), l3_("L3", cfg.l3), mc_(mc)
{
}

void
CacheHierarchy::handleVictim(Cache &level, const Cache::Victim &victim)
{
    if (!victim.valid || !victim.dirty)
        return;
    if (&level == &l1d_) {
        Cache::Block *blk = installBlock(l2_, victim.addr, victim.data,
                                         true);
        (void)blk;
    } else if (&level == &l2_) {
        installBlock(l3_, victim.addr, victim.data, true);
    } else {
        // LLC dirty eviction: the data leaves the volatile domain and
        // enters the WPQ. Evictions must not be lost, so they may
        // transiently overfill the queue.
        mc_.insertWrite(victim.addr, victim.data, /*force=*/true);
    }
}

Cache::Block *
CacheHierarchy::installBlock(Cache &level, Addr blockAddr,
                             const uint8_t *data, bool dirty)
{
    Cache::Victim victim;
    Cache::Block *blk = level.allocate(blockAddr, &victim);
    handleVictim(level, victim);
    std::memcpy(blk->data, data, kBlockBytes);
    // Never demote a frame that was already dirty (allocate() of a resident
    // block keeps its state; merging identical data preserves dirtiness).
    blk->dirty = blk->dirty || dirty;
    return blk;
}

Tick
CacheHierarchy::ensureInL1(Addr blockAddr, Tick now, Cache::Block **out)
{
    Tick t = now + l1d_.latency();
    if (Cache::Block *blk = l1d_.find(blockAddr)) {
        if (stats_)
            ++stats_->l1dHits;
        *out = blk;
        return t;
    }
    if (stats_)
        ++stats_->l1dMisses;

    t += l2_.latency();
    if (Cache::Block *l2blk = l2_.find(blockAddr)) {
        if (stats_)
            ++stats_->l2Hits;
        // Ownership moves up with the fill: at most one dirty copy may
        // exist, or an eviction of a stale lower-level copy would regress
        // the durable image outside any transaction.
        bool dirty = l2blk->dirty;
        l2blk->dirty = false;
        Cache::Block *blk = installBlock(l1d_, blockAddr, l2blk->data,
                                         dirty);
        *out = blk;
        return t;
    }
    if (stats_)
        ++stats_->l2Misses;

    t += l3_.latency();
    if (Cache::Block *l3blk = l3_.find(blockAddr)) {
        if (stats_)
            ++stats_->l3Hits;
        bool dirty = l3blk->dirty;
        l3blk->dirty = false;
        installBlock(l2_, blockAddr, l3blk->data, false);
        Cache::Block *blk = installBlock(l1d_, blockAddr, l3blk->data,
                                         dirty);
        *out = blk;
        return t;
    }
    if (stats_)
        ++stats_->l3Misses;

    // LLC miss: fetch from the memory controller / NVMM.
    uint8_t data[kBlockBytes];
    mc_.readBlockData(blockAddr, data);
    Tick done = mc_.read(blockAddr, t);
    installBlock(l3_, blockAddr, data, false);
    installBlock(l2_, blockAddr, data, false);
    Cache::Block *blk = installBlock(l1d_, blockAddr, data, false);
    *out = blk;
    return done;
}

Tick
CacheHierarchy::readAccess(Addr addr, unsigned size, Tick now)
{
    SP_ASSERT(blockAlign(addr) == blockAlign(addr + size - 1),
              "read crosses block boundary at 0x", std::hex, addr);
    Cache::Block *blk = nullptr;
    return ensureInL1(blockAlign(addr), now, &blk);
}

Tick
CacheHierarchy::writeAccess(Addr addr, uint64_t value, unsigned size,
                            Tick now)
{
    SP_ASSERT(size >= 1 && size <= 8, "store size out of range");
    SP_ASSERT(blockAlign(addr) == blockAlign(addr + size - 1),
              "store crosses block boundary at 0x", std::hex, addr);
    Cache::Block *blk = nullptr;
    Tick done = ensureInL1(blockAlign(addr), now, &blk);
    std::memcpy(blk->data + blockOffset(addr), &value, size);
    blk->dirty = true;
    return done;
}

bool
CacheHierarchy::writebackBlock(Addr blockAddr, bool invalidate, Tick now,
                               Tick &ackTick)
{
    SP_ASSERT(blockOffset(blockAddr) == 0, "unaligned writeback");

    // Find the newest copy: closest level to the core wins.
    Cache::Block *newest = nullptr;
    bool dirty = false;
    for (Cache *level : {&l1d_, &l2_, &l3_}) {
        if (Cache::Block *blk = level->find(blockAddr)) {
            if (!newest)
                newest = blk;
            if (blk->dirty)
                dirty = true;
        }
    }

    Tick lookupDone = now + l1d_.latency() + l2_.latency() + l3_.latency();

    if (dirty) {
        if (!mc_.wpqHasSpace(blockAddr))
            return false;
        SP_ASSERT(newest, "dirty block with no resident copy");
        mc_.insertWrite(blockAddr, newest->data, /*force=*/false);
        ackTick = lookupDone + mc_.roundTrip();
    } else {
        // Clean or absent: nothing to write back; ack after the lookup.
        ackTick = lookupDone + (newest ? mc_.roundTrip() : 0);
    }

    // Clean every copy, propagating the newest data into stale lower
    // copies: the L1 copy may later be dropped silently (it is clean
    // now), and a re-fill must not resurrect pre-writeback data.
    for (Cache *level : {&l1d_, &l2_, &l3_}) {
        if (Cache::Block *blk = level->find(blockAddr)) {
            if (newest && blk != newest)
                std::memcpy(blk->data, newest->data, kBlockBytes);
            blk->dirty = false;
            if (invalidate)
                level->invalidate(blockAddr);
        }
    }
    if (tracer_ && tracer_->enabled(kTraceCache)) {
        uint8_t flags = (invalidate ? kTraceInvalidate : 0) |
            (dirty ? kTraceDirty : 0);
        tracer_->span(kTraceCache, TraceName::kWriteback, now, ackTick,
                      {blockAddr, 0, flags});
    }
    return true;
}

bool
CacheHierarchy::isDirty(Addr blockAddr) const
{
    for (const Cache *level : {&l1d_, &l2_, &l3_}) {
        if (const Cache::Block *blk = level->peek(blockAddr)) {
            if (blk->dirty)
                return true;
        }
    }
    return false;
}

bool
CacheHierarchy::isCached(Addr blockAddr) const
{
    for (const Cache *level : {&l1d_, &l2_, &l3_}) {
        if (level->peek(blockAddr))
            return true;
    }
    return false;
}

void
CacheHierarchy::invalidateAll()
{
    l1d_.flushAll();
    l2_.flushAll();
    l3_.flushAll();
}

void
CacheHierarchy::writebackAll()
{
    // Collect every dirty block address across the hierarchy.
    std::vector<Addr> dirty_addrs;
    for (Cache *level : {&l1d_, &l2_, &l3_}) {
        level->forEachBlock([&](Cache::Block &blk) {
            if (blk.dirty)
                dirty_addrs.push_back(blk.tag);
        });
    }
    for (Addr addr : dirty_addrs) {
        // The newest copy is the one closest to the core.
        Cache::Block *newest = nullptr;
        for (Cache *level : {&l1d_, &l2_, &l3_}) {
            if (Cache::Block *blk = level->find(addr)) {
                newest = blk;
                if (isDirty(addr))
                    mc_.insertWrite(addr, blk->data, /*force=*/true);
                break;
            }
        }
        for (Cache *level : {&l1d_, &l2_, &l3_}) {
            if (Cache::Block *blk = level->find(addr)) {
                if (newest && blk != newest)
                    std::memcpy(blk->data, newest->data, kBlockBytes);
                blk->dirty = false;
            }
        }
    }
}

template <class Ar>
void
CacheHierarchy::serialize(Ar &ar)
{
    ar.tag("CHIE");
    l1d_.serialize(ar);
    l2_.serialize(ar);
    l3_.serialize(ar);
}

template void CacheHierarchy::serialize(SnapshotWriter &);
template void CacheHierarchy::serialize(SnapshotReader &);

} // namespace sp
