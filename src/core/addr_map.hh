/**
 * @file
 * Open-addressing address-indexed side structures for the SP hot path.
 *
 * The BLT is probed on every external coherence operation and the SSB is
 * CAM-searched on every speculative load; both sat on node-based standard
 * containers (unordered_set, deque scans) that show up at the top of
 * sweep profiles. These two structures replace them with flat
 * power-of-two tables, linear probing, and generation-stamped O(1)
 * clear -- no allocation on the steady-state path, no per-node pointer
 * chasing, and `clear()` (which fires on every abort and speculation
 * exit) touches one counter instead of the whole table.
 *
 * Neither supports erase: SP structures only ever grow within one
 * speculative episode and are discarded wholesale at its end, which is
 * exactly the access pattern generation clearing is free for.
 */

#ifndef SP_CORE_ADDR_MAP_HH
#define SP_CORE_ADDR_MAP_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace sp
{

/** Mix a 64-bit key into a table index (splitmix64 finalizer). */
inline uint64_t
addrHashMix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Open-addressing set of addresses with O(1) generation clear. */
class AddrSet
{
  public:
    explicit AddrSet(size_t initialSlots = 64)
    {
        size_t cap = 16;
        while (cap < initialSlots)
            cap <<= 1;
        slots_.resize(cap);
    }

    /** @return true if the key was not present before. */
    bool insert(Addr key)
    {
        if ((count_ + 1) * 10 >= slots_.size() * 7)
            grow();
        Slot &slot = probe(slots_, key);
        if (slot.gen == gen_)
            return false;
        slot.key = key;
        slot.gen = gen_;
        ++count_;
        return true;
    }

    bool contains(Addr key) const
    {
        size_t mask = slots_.size() - 1;
        for (size_t i = addrHashMix(key) & mask;; i = (i + 1) & mask) {
            const Slot &slot = slots_[i];
            if (slot.gen != gen_)
                return false;
            if (slot.key == key)
                return true;
        }
    }

    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /**
     * Visit every live key (slot order, not insertion order). Used by
     * snapshot save; membership is order-independent, so restoring by
     * re-inserting the visited keys reproduces identical behaviour.
     */
    template <typename Fn>
    void forEach(Fn &&fn) const
    {
        for (const Slot &slot : slots_) {
            if (slot.gen == gen_)
                fn(slot.key);
        }
    }

    void clear()
    {
        count_ = 0;
        if (++gen_ == 0) {
            // Generation counter wrapped: stale slots from 2^32 clears
            // ago would read as live, so wipe them the slow way once.
            for (Slot &slot : slots_)
                slot.gen = 0;
            gen_ = 1;
        }
    }

  private:
    struct Slot
    {
        Addr key = 0;
        uint32_t gen = 0;
    };

    std::vector<Slot> slots_;
    uint32_t gen_ = 1;
    size_t count_ = 0;

    /** First slot that holds `key` or is free, this generation. */
    Slot &probe(std::vector<Slot> &slots, Addr key) const
    {
        size_t mask = slots.size() - 1;
        for (size_t i = addrHashMix(key) & mask;; i = (i + 1) & mask) {
            Slot &slot = slots[i];
            if (slot.gen != gen_ || slot.key == key)
                return slot;
        }
    }

    void grow()
    {
        std::vector<Slot> bigger(slots_.size() * 2);
        for (const Slot &slot : slots_) {
            if (slot.gen != gen_)
                continue;
            Slot &dst = probe(bigger, slot.key);
            dst.key = slot.key;
            dst.gen = gen_;
        }
        slots_.swap(bigger);
    }
};

/**
 * Open-addressing map from address to a 32-bit index with O(1)
 * generation clear. Same table discipline as AddrSet (pow-2 slots,
 * linear probing, no erase); used where a structure needs to attach a
 * payload slot to each address it has seen within one episode, e.g. the
 * OpEmitter shadow and journal passes mapping block address -> index of
 * the block's record.
 */
class AddrIndexMap
{
  public:
    explicit AddrIndexMap(size_t initialSlots = 64)
    {
        size_t cap = 16;
        while (cap < initialSlots)
            cap <<= 1;
        slots_.resize(cap);
    }

    /** Value stored for `key`; when absent, store `val` and return it. */
    uint32_t findOrInsert(Addr key, uint32_t val)
    {
        if ((count_ + 1) * 10 >= slots_.size() * 7)
            grow();
        size_t mask = slots_.size() - 1;
        for (size_t i = addrHashMix(key) & mask;; i = (i + 1) & mask) {
            Slot &slot = slots_[i];
            if (slot.gen != gen_) {
                slot.key = key;
                slot.val = val;
                slot.gen = gen_;
                ++count_;
                return val;
            }
            if (slot.key == key)
                return slot.val;
        }
    }

    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    void clear()
    {
        count_ = 0;
        if (++gen_ == 0) {
            for (Slot &slot : slots_)
                slot.gen = 0;
            gen_ = 1;
        }
    }

  private:
    struct Slot
    {
        Addr key = 0;
        uint32_t val = 0;
        uint32_t gen = 0;
    };

    std::vector<Slot> slots_;
    uint32_t gen_ = 1;
    size_t count_ = 0;

    void grow()
    {
        std::vector<Slot> bigger(slots_.size() * 2);
        size_t mask = bigger.size() - 1;
        for (const Slot &slot : slots_) {
            if (slot.gen != gen_)
                continue;
            for (size_t i = addrHashMix(slot.key) & mask;;
                 i = (i + 1) & mask) {
                if (bigger[i].gen != gen_) {
                    bigger[i] = slot;
                    break;
                }
            }
        }
        slots_.swap(bigger);
    }
};

/**
 * Per-byte coverage counts over 8-byte words: how many live SSB stores
 * cover each byte of each word. Existence of an overlapping store --
 * everything store-to-load forwarding needs -- is then two word lookups
 * instead of a scan of the whole buffer. Counts are 16-bit because an
 * SSB of up to 1024 entries can stack that many stores on one byte.
 */
class ByteCoverageMap
{
  public:
    explicit ByteCoverageMap(size_t initialSlots = 256)
    {
        size_t cap = 16;
        while (cap < initialSlots)
            cap <<= 1;
        slots_.resize(cap);
    }

    /** Count a store over [addr, addr+size); size <= 8. */
    void add(Addr addr, unsigned size) { adjust(addr, size, +1); }

    /** Remove a previously add()ed store's coverage. */
    void sub(Addr addr, unsigned size) { adjust(addr, size, -1); }

    /** Is any byte of [addr, addr+size) covered by a live store? */
    bool anyCovered(Addr addr, unsigned size) const
    {
        while (size > 0) {
            Addr word = addr & ~Addr{7};
            unsigned off = static_cast<unsigned>(addr - word);
            unsigned chunk = size < 8 - off ? size : 8 - off;
            if (const Slot *slot = find(word)) {
                for (unsigned b = off; b < off + chunk; ++b) {
                    if (slot->count[b] != 0)
                        return true;
                }
            }
            addr += chunk;
            size -= chunk;
        }
        return false;
    }

    void clear()
    {
        count_ = 0;
        if (++gen_ == 0) {
            for (Slot &slot : slots_)
                slot.gen = 0;
            gen_ = 1;
        }
    }

  private:
    struct Slot
    {
        Addr word = 0;
        uint32_t gen = 0;
        std::array<uint16_t, 8> count{};
    };

    std::vector<Slot> slots_;
    uint32_t gen_ = 1;
    size_t count_ = 0;

    const Slot *find(Addr word) const
    {
        size_t mask = slots_.size() - 1;
        for (size_t i = addrHashMix(word) & mask;; i = (i + 1) & mask) {
            const Slot &slot = slots_[i];
            if (slot.gen != gen_)
                return nullptr;
            if (slot.word == word)
                return &slot;
        }
    }

    Slot &ensure(Addr word)
    {
        if ((count_ + 1) * 10 >= slots_.size() * 7)
            grow();
        size_t mask = slots_.size() - 1;
        for (size_t i = addrHashMix(word) & mask;; i = (i + 1) & mask) {
            Slot &slot = slots_[i];
            if (slot.gen != gen_) {
                slot.word = word;
                slot.gen = gen_;
                slot.count.fill(0);
                ++count_;
                return slot;
            }
            if (slot.word == word)
                return slot;
        }
    }

    void adjust(Addr addr, unsigned size, int delta)
    {
        while (size > 0) {
            Addr word = addr & ~Addr{7};
            unsigned off = static_cast<unsigned>(addr - word);
            unsigned chunk = size < 8 - off ? size : 8 - off;
            Slot &slot = ensure(word);
            for (unsigned b = off; b < off + chunk; ++b) {
                slot.count[b] =
                    static_cast<uint16_t>(slot.count[b] + delta);
            }
            addr += chunk;
            size -= chunk;
        }
    }

    void grow()
    {
        std::vector<Slot> bigger(slots_.size() * 2);
        size_t mask = bigger.size() - 1;
        for (const Slot &slot : slots_) {
            if (slot.gen != gen_)
                continue;
            for (size_t i = addrHashMix(slot.word) & mask;;
                 i = (i + 1) & mask) {
                if (bigger[i].gen != gen_) {
                    bigger[i] = slot;
                    break;
                }
            }
        }
        slots_.swap(bigger);
    }
};

} // namespace sp

#endif // SP_CORE_ADDR_MAP_HH
