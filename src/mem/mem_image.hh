/**
 * @file
 * Sparse byte-addressable memory images.
 *
 * Two images exist per simulation: the *volatile* image, mutated eagerly by
 * functional workload execution (which runs ahead of timing), and the
 * *durable* image, which only receives data when the memory controller
 * drains a write to the NVMM device. A crash snapshot is simply a copy of
 * the durable image, which is what recovery code gets to see.
 */

#ifndef SP_MEM_MEM_IMAGE_HH
#define SP_MEM_MEM_IMAGE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace sp
{


/**
 * Standard CRC-32 (ISO-HDLC, reflected poly 0xEDB88320) used for log
 * entries, data-line slots, and the media-fault detection contract.
 * `seed` chains incremental computations (pass a previous return value).
 */
uint32_t crc32(const void *data, size_t size, uint32_t seed = 0);

/** Sparse page-granular byte image of the simulated address space. */
class MemImage
{
  public:
    static constexpr unsigned kPageBytes = 4096;

    MemImage() { resetTranslationCache(); }
    MemImage(const MemImage &other);
    MemImage &operator=(const MemImage &other);
    MemImage(MemImage &&other) noexcept;
    MemImage &operator=(MemImage &&other) noexcept;

    /**
     * Read `size` bytes at `addr`; unwritten bytes read as zero.
     *
     * Functional workload execution performs tens of millions of these
     * per simulated run, so the translation-cache hit path (same page,
     * no page crossing) is inline; everything else takes the slow path.
     */
    void read(Addr addr, void *out, unsigned size) const
    {
        uint64_t num = addr / kPageBytes;
        unsigned off = static_cast<unsigned>(addr % kPageBytes);
        const TransEntry &e = transSlot(num);
        if (off + size <= kPageBytes && e.num == num) {
            ++transHits_;
            std::memcpy(out, e.page->data() + off, size);
            return;
        }
        readSlow(addr, out, size);
    }

    /** Write `size` bytes at `addr`. */
    void write(Addr addr, const void *in, unsigned size)
    {
        uint64_t num = addr / kPageBytes;
        unsigned off = static_cast<unsigned>(addr % kPageBytes);
        const TransEntry &e = transSlot(num);
        if (off + size <= kPageBytes && e.num == num) {
            ++transHits_;
            std::memcpy(e.page->data() + off, in, size);
            return;
        }
        writeSlow(addr, in, size);
    }

    /**
     * Read up to 8 bytes as a little-endian integer. Nearly every
     * workload access is a whole word, and a copy of constant size
     * compiles to one 8-byte move where a runtime size goes through a
     * size-dispatching copy, so the word gets its own branch; the size
     * check of the others is out of line, which keeps this small enough
     * to inline.
     */
    uint64_t readInt(Addr addr, unsigned size) const
    {
        uint64_t v = 0;
        if (size == 8) {
            read(addr, &v, 8);
        } else {
            checkIntSize(size);
            read(addr, &v, size);
        }
        return v;
    }

    /** Write up to 8 bytes as a little-endian integer (see readInt). */
    void writeInt(Addr addr, uint64_t value, unsigned size)
    {
        if (size == 8) {
            write(addr, &value, 8);
        } else {
            checkIntSize(size);
            write(addr, &value, size);
        }
    }

    /** Copy one cache block (64B) out of the image. */
    void readBlock(Addr blockAddr, uint8_t *out) const;

    /** Copy one cache block (64B) into the image. */
    void writeBlock(Addr blockAddr, const uint8_t *in);

    /** Number of resident pages (for tests and memory accounting). */
    size_t pageCount() const { return pages_.size(); }

    /**
     * Translation-cache effectiveness counters. A hit is any access that
     * resolved a page through the direct-mapped cache (including the
     * per-chunk lookups inside the slow path); a miss is a lookup that
     * had to fall back to the hash map. Plain increments on the fast
     * path, so always on. Not copied/moved with the image contents --
     * they describe this object's access history, not the data.
     */
    uint64_t translationHits() const { return transHits_; }
    uint64_t translationMisses() const { return transMisses_; }

    /**
     * Deterministic 64-bit content hash (FNV-1a over pages in address
     * order). All-zero pages hash identically to absent ones, so two
     * images that read the same everywhere hash the same. Used by the
     * sweep determinism suite to compare durable images cheaply.
     */
    uint64_t hash() const;

    /** Resident page numbers, sorted (media-fault targeting, diffing). */
    std::vector<uint64_t> residentPageNumbers() const;

    /**
     * ECC poison, modelling detectable media faults: reads of a marked
     * line would surface a MediaFault signal on real hardware. The
     * poison set rides along on copies (a crash snapshot keeps its
     * faults) but never contributes to hash(), and a full-line rewrite
     * during recovery clears it (rewriting re-encodes the ECC word).
     */
    void markPoison(Addr line) { poison_.insert(blockAlign(line)); }

    /** Clear poison on one line (recovery rewrote it). */
    void clearPoison(Addr line) { poison_.erase(blockAlign(line)); }

    /** Any poisoned line overlapping [addr, addr+size)? */
    bool poisoned(Addr addr, unsigned size) const
    {
        if (poison_.empty())
            return false;
        Addr line = blockAlign(addr);
        Addr last = blockAlign(addr + (size ? size - 1 : 0));
        for (; line <= last; line += kBlockBytes)
            if (poison_.count(line))
                return true;
        return false;
    }

    /** All poisoned lines, sorted. */
    std::vector<Addr> poisonedLines() const;

    /** Number of poisoned lines. */
    size_t poisonCount() const { return poison_.size(); }

    /** Drop all contents. */
    void clear()
    {
        pages_.clear();
        poison_.clear();
        resetTranslationCache();
    }

    /**
     * Snapshot serializer (sim/snapshot.hh): resident pages in sorted
     * page-number order plus the sorted poison set. The translation
     * cache and hit/miss counters are measurement state, not contents,
     * and are reset (not restored) like they are on copy.
     */
    template <class Ar> void serialize(Ar &ar);

  private:
    friend bool sameContents(const MemImage &a, const MemImage &b);

    using Page = std::array<uint8_t, kPageBytes>;

    /** Pages are heap-allocated so the map stays cheap to rehash. */
    std::unordered_map<uint64_t, std::unique_ptr<Page>> pages_;

    /** ECC-poisoned lines (block-aligned addresses). */
    std::unordered_set<Addr> poison_;

    /**
     * Direct-mapped page-translation cache in front of the hash map.
     * Functional execution reads and writes the same handful of pages
     * over and over (tree nodes, the log tail), so nearly every access
     * resolves here without hashing. Page storage is heap-owned and
     * never moves under rehash, so cached pointers stay valid until the
     * map itself is cleared or replaced (which resets the cache). Only
     * present pages are cached: a negative entry would go stale the
     * moment ensurePage() materializes the page elsewhere.
     *
     * Below 4 GiB the slot is the page number modulo the slot count,
     * so pages a multiple of kTransSlots apart share a slot. The undo
     * log starts at page 0x10001 and the heap 256 pages (the 1 MiB log
     * region) later, so at 128 or 256 slots every undo-log entry
     * evicted the heap page it copies from: logged tree setup missed 7%
     * of its lookups at 0.06 scale (AT Log+P+Sf: 70,316 misses against
     * 55 for Base) and seed_sweep 9.3%. At 512 slots the log and the
     * first 1 MiB of the heap map to distinct slots, and AT Log+P+Sf
     * setup misses 110 times.
     *
     * The checksummed format's CRC slot table (kCrcBase in
     * pmem/layout.hh) starts 2^20 pages above kHeapBase, and 512
     * divides 2^20, so under the plain modulo the first heap pages and
     * the slot-table pages covering them shared slots: checksummed
     * AT/BT/RT Log+P+Sf setup missed 13.4% / 3.2% / 15.9% of lookups.
     * transSlot() therefore folds the page number's bits from 2^20 up
     * into the index; moving kCrcBase instead would change checksummed
     * image bytes. Pages below 4 GiB (metadata, log and all but the top
     * of the heap) have no such bits and keep their modulo slot.
     */
    static constexpr unsigned kTransSlots = 512;

    /** One slot: the page number it holds and that page's storage. */
    struct TransEntry
    {
        uint64_t num;
        Page *page;
    };
    mutable std::array<TransEntry, kTransSlots> trans_;

    static constexpr uint64_t kNoPageNum = ~0ull;

    mutable uint64_t transHits_ = 0;
    mutable uint64_t transMisses_ = 0;

    void resetTranslationCache() { trans_.fill({kNoPageNum, nullptr}); }

    /** The slot that caches page `num` (see kTransSlots). */
    TransEntry &transSlot(uint64_t num) const
    {
        return trans_[(num ^ ((num >> 20) << 7)) % kTransSlots];
    }

    /** Assert that readInt/writeInt's `size` is 1 to 8. */
    static void checkIntSize(unsigned size);
    Page *findPage(Addr addr);
    const Page *findPage(Addr addr) const;
    Page &ensurePage(Addr addr);
    void readSlow(Addr addr, void *out, unsigned size) const;
    void writeSlow(Addr addr, const void *in, unsigned size);
};

/**
 * All 64B lines whose bytes differ between two images, sorted. Sparse-
 * aware: an absent page reads as zeros, so a page resident in only one
 * image contributes only its non-zero lines. The backbone of the
 * media-fault campaign's escape check (faulted-recovery image vs
 * clean-recovery image).
 */
std::vector<Addr> diffLines(const MemImage &a, const MemImage &b);

/**
 * True when `a` and `b` read the same at every address: the exact
 * equality hash() approximates, with the same conventions (an absent
 * page equals an all-zero one, poison is ignored) and no collisions.
 * One memcmp per resident page, so it is also cheaper than hashing
 * both images.
 */
bool sameContents(const MemImage &a, const MemImage &b);

} // namespace sp

#endif // SP_MEM_MEM_IMAGE_HH
