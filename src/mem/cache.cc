#include "mem/cache.hh"

#include <cstring>
#include <utility>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sp
{

Cache::Cache(std::string name, const CacheConfig &cfg)
    : name_(std::move(name)), cfg_(cfg)
{
    SP_ASSERT(cfg_.ways > 0, name_, ": ways must be positive");
    SP_ASSERT(cfg_.sizeBytes % (cfg_.ways * kBlockBytes) == 0,
              name_, ": size must be a multiple of ways * block size");
    numSets_ = static_cast<unsigned>(cfg_.sizeBytes /
                                     (cfg_.ways * kBlockBytes));
    SP_ASSERT((numSets_ & (numSets_ - 1)) == 0,
              name_, ": set count must be a power of two");
    blocks_.resize(static_cast<size_t>(numSets_) * cfg_.ways);
}

unsigned
Cache::setIndex(Addr addr) const
{
    return static_cast<unsigned>((addr / kBlockBytes) & (numSets_ - 1));
}

Cache::Block *
Cache::setBase(unsigned set)
{
    return &blocks_[static_cast<size_t>(set) * cfg_.ways];
}

Cache::Block *
Cache::find(Addr addr)
{
    Addr tag = blockAlign(addr);
    Block *base = setBase(setIndex(addr));
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        Block &blk = base[w];
        if (blk.valid && blk.tag == tag) {
            touch(&blk);
            return &blk;
        }
    }
    return nullptr;
}

const Cache::Block *
Cache::peek(Addr addr) const
{
    Addr tag = blockAlign(addr);
    unsigned set = static_cast<unsigned>((addr / kBlockBytes) &
                                         (numSets_ - 1));
    const Block *base = &blocks_[static_cast<size_t>(set) * cfg_.ways];
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        const Block &blk = base[w];
        if (blk.valid && blk.tag == tag)
            return &blk;
    }
    return nullptr;
}

Cache::Block *
Cache::allocate(Addr addr, Victim *victim)
{
    Addr tag = blockAlign(addr);
    Block *base = setBase(setIndex(addr));

    if (victim)
        victim->valid = false;

    // Reuse an existing frame for the same block or pick an invalid one.
    Block *target = nullptr;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        Block &blk = base[w];
        if (blk.valid && blk.tag == tag) {
            touch(&blk);
            return &blk;
        }
        if (!blk.valid && !target)
            target = &blk;
    }

    if (!target) {
        // Evict the least recently used way.
        target = base;
        for (unsigned w = 1; w < cfg_.ways; ++w) {
            if (base[w].lastUse < target->lastUse)
                target = &base[w];
        }
        if (victim) {
            victim->valid = true;
            victim->dirty = target->dirty;
            victim->addr = target->tag;
            std::memcpy(victim->data, target->data, kBlockBytes);
        }
    }

    target->tag = tag;
    target->valid = true;
    target->dirty = false;
    std::memset(target->data, 0, kBlockBytes);
    touch(target);
    return target;
}

void
Cache::invalidate(Addr addr)
{
    Addr tag = blockAlign(addr);
    Block *base = setBase(setIndex(addr));
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        Block &blk = base[w];
        if (blk.valid && blk.tag == tag) {
            blk.valid = false;
            blk.dirty = false;
            return;
        }
    }
}

void
Cache::touch(Block *blk)
{
    blk->lastUse = ++useCounter_;
}

void
Cache::flushAll()
{
    for (auto &blk : blocks_) {
        blk.valid = false;
        blk.dirty = false;
    }
}

template <class Ar>
void
Cache::serialize(Ar &ar)
{
    ar.tag("CACH");
    ar.pod(useCounter_);
    size_t frames = blocks_.size();
    ar.podVec(blocks_);
    SP_ASSERT(blocks_.size() == frames, name_,
              ": snapshot geometry mismatch (", blocks_.size(), " frames vs ",
              frames, ")");
}

template void Cache::serialize(SnapshotWriter &);
template void Cache::serialize(SnapshotReader &);

} // namespace sp
