/**
 * @file
 * A single set-associative, write-back, data-carrying cache level.
 *
 * Blocks hold real 64-byte payloads so dirty data can flow down the
 * hierarchy into the memory controller and, eventually, the durable NVMM
 * image; that is what makes crash-injection testing meaningful.
 */

#ifndef SP_MEM_CACHE_HH
#define SP_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/types.hh"

namespace sp
{


/** One cache level. */
class Cache
{
  public:
    /** One cache block frame. */
    struct Block
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        /** Always zero: named padding (see SnapshotWriter::determinedBytes). */
        uint8_t reserved[6] = {};
        uint64_t lastUse = 0;
        uint8_t data[kBlockBytes] = {};
    };

    /** Information about a block evicted to make room for a fill. */
    struct Victim
    {
        bool valid = false;
        bool dirty = false;
        Addr addr = 0;
        uint8_t data[kBlockBytes] = {};
    };

    /**
     * @param name Human-readable name for diagnostics ("L1D", ...).
     * @param cfg Geometry and latency.
     */
    Cache(std::string name, const CacheConfig &cfg);

    /** Find the block containing `addr`, or nullptr on miss. */
    Block *find(Addr addr);

    /** Find without updating recency (for probes and inspection). */
    const Block *peek(Addr addr) const;

    /**
     * Allocate a frame for the block containing `addr`, evicting the LRU
     * victim of its set if necessary. The new frame is returned valid,
     * clean, and zero-filled; the caller installs data and dirty state.
     *
     * @param addr Address anywhere inside the block to install.
     * @param victim Filled with the displaced block, if any.
     */
    Block *allocate(Addr addr, Victim *victim);

    /** Invalidate the block containing `addr` if present. */
    void invalidate(Addr addr);

    /** Mark the block recently used. */
    void touch(Block *blk);

    /** Hit latency in cycles. */
    unsigned latency() const { return cfg_.latency; }

    const std::string &name() const { return name_; }
    unsigned numSets() const { return numSets_; }
    unsigned ways() const { return cfg_.ways; }

    /** Invalidate everything (used between experiment phases). */
    void flushAll();

    /**
     * Snapshot serializer: frame array verbatim (tags, dirty bits, data,
     * LRU timestamps) + the recency counter. Geometry is rebuilt from
     * config; the restored machine must use the same CacheConfig.
     */
    template <class Ar> void serialize(Ar &ar);

    /** Visit every valid block frame (inspection, bulk writeback). */
    template <typename Fn>
    void
    forEachBlock(Fn &&fn)
    {
        for (Block &blk : blocks_) {
            if (blk.valid)
                fn(blk);
        }
    }

  private:
    std::string name_;
    CacheConfig cfg_;
    unsigned numSets_;
    uint64_t useCounter_ = 0;
    /** blocks_[set * ways + way]. */
    std::vector<Block> blocks_;

    unsigned setIndex(Addr addr) const;
    Block *setBase(unsigned set);
};

} // namespace sp

#endif // SP_MEM_CACHE_HH
