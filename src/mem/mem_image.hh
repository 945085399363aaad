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
        unsigned slot = static_cast<unsigned>(num % kTransSlots);
        if (off + size <= kPageBytes && transNum_[slot] == num) {
            ++transHits_;
            std::memcpy(out, transPage_[slot]->data() + off, size);
            return;
        }
        readSlow(addr, out, size);
    }

    /** Write `size` bytes at `addr`. */
    void write(Addr addr, const void *in, unsigned size)
    {
        uint64_t num = addr / kPageBytes;
        unsigned off = static_cast<unsigned>(addr % kPageBytes);
        unsigned slot = static_cast<unsigned>(num % kTransSlots);
        if (off + size <= kPageBytes && transNum_[slot] == num) {
            ++transHits_;
            std::memcpy(transPage_[slot]->data() + off, in, size);
            return;
        }
        writeSlow(addr, in, size);
    }

    /** Read up to 8 bytes as a little-endian integer. */
    uint64_t readInt(Addr addr, unsigned size) const
    {
        SP_ASSERT(size >= 1 && size <= 8, "readInt size out of range");
        uint64_t v = 0;
        read(addr, &v, size);
        return v;
    }

    /** Write up to 8 bytes as a little-endian integer. */
    void writeInt(Addr addr, uint64_t value, unsigned size)
    {
        SP_ASSERT(size >= 1 && size <= 8, "writeInt size out of range");
        write(addr, &value, size);
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
     * moment ensurePage() materializes the page elsewhere. 128 slots
     * keep the working set of the paper-scale workloads (tree interior
     * nodes + log tail + metadata) resident: at 64 slots the seed sweep
     * missed ~11% of accesses, at 128 it misses well under 5%.
     */
    static constexpr unsigned kTransSlots = 128;
    mutable std::array<uint64_t, kTransSlots> transNum_;
    mutable std::array<Page *, kTransSlots> transPage_;

    static constexpr uint64_t kNoPageNum = ~0ull;

    mutable uint64_t transHits_ = 0;
    mutable uint64_t transMisses_ = 0;

    void resetTranslationCache()
    {
        transNum_.fill(kNoPageNum);
        transPage_.fill(nullptr);
    }

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
