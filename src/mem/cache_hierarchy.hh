/**
 * @file
 * Three-level write-back cache hierarchy in front of the memory controller.
 *
 * Geometry and latencies follow Table 2 (L1D 32KB/8w/2cyc, L2 256KB/8w/11cyc,
 * L3 2MB/16w/20cyc, 64B blocks). The hierarchy is non-inclusive: the newest
 * copy of a block is the one closest to the core; dirty evictions merge
 * downward and L3 dirty evictions enter the memory controller's WPQ. Blocks
 * carry data so the durable NVMM image reflects exactly what would survive a
 * crash.
 *
 * Instruction fetch is not modeled through a cache: the micro-op stream has
 * no code addresses, and the paper's effects are store/fence-side (the L1I
 * row of Table 2 only matters for fetch bandwidth, which we model directly).
 */

#ifndef SP_MEM_CACHE_HIERARCHY_HH
#define SP_MEM_CACHE_HIERARCHY_HH

#include "mem/cache.hh"
#include "mem/mem_system.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace sp
{

/** L1D + L2 + L3 with write-back, write-allocate policies. */
class CacheHierarchy
{
  public:
    CacheHierarchy(const SimConfig &cfg, MemSystem &mc);

    /** Attach the statistics sink (may be null). */
    void setStats(Stats *stats) { stats_ = stats; }

    /**
     * Attach the trace bus (may be null). Successful writebacks publish
     * `writeback` spans covering the lookup-to-ack interval.
     */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    /**
     * Timed load.
     *
     * @param addr Byte address; the access must not cross a block boundary.
     * @param size Bytes read.
     * @param now Cycle the access starts.
     * @return Tick at which the data is available.
     */
    Tick readAccess(Addr addr, unsigned size, Tick now);

    /**
     * Timed store perform: write `size` low bytes of `value` at `addr`.
     *
     * @return Tick at which the store has been applied to the L1D.
     */
    Tick writeAccess(Addr addr, uint64_t value, unsigned size, Tick now);

    /**
     * clwb / clflushopt / clflush: write the newest dirty copy of the
     * block back to the memory controller, cleaning every cached copy;
     * clflush variants also invalidate.
     *
     * @param blockAddr Block-aligned address.
     * @param invalidate Evict the block from all levels (clflush family).
     * @param now Cycle the operation reaches the cache.
     * @param ackTick Out: tick at which the core receives the MC ack.
     * @retval false The WPQ had no space; retry later.
     */
    bool writebackBlock(Addr blockAddr, bool invalidate, Tick now,
                        Tick &ackTick);

    /** True if any level holds a dirty copy of the block. */
    bool isDirty(Addr blockAddr) const;

    /** True if any level holds the block. */
    bool isCached(Addr blockAddr) const;

    /** Discard all cached state, losing dirty data (crash modeling). */
    void invalidateAll();

    /**
     * Write back every dirty block into the WPQ (clean shutdown between
     * experiment phases; does not wait for the WPQ to drain).
     */
    void writebackAll();

    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    Cache &l3() { return l3_; }

    /** Snapshot serializer: delegate to the three levels. */
    template <class Ar> void serialize(Ar &ar);

  private:
    Cache l1d_;
    Cache l2_;
    Cache l3_;
    MemSystem &mc_;
    Stats *stats_ = nullptr;
    Tracer *tracer_ = nullptr;

    /**
     * Ensure the block is resident in L1D, filling from the closest level
     * that has it (or NVMM). Returns the data-ready tick.
     */
    Tick ensureInL1(Addr blockAddr, Tick now, Cache::Block **blk);

    /** Install a block into a level, handling the displaced victim. */
    Cache::Block *installBlock(Cache &level, Addr blockAddr,
                               const uint8_t *data, bool dirty);

    /** Handle a victim evicted from `level`. */
    void handleVictim(Cache &level, const Cache::Victim &victim);
};

} // namespace sp

#endif // SP_MEM_CACHE_HIERARCHY_HH
