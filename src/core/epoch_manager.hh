/**
 * @file
 * Speculative epoch lifecycle and in-order commit engine.
 *
 * An epoch is the execution between two speculation boundaries (paper
 * Section 4.1). Epoch 0 starts when an sfence stalled behind a pcommit is
 * speculatively retired; children start at subsequent ordering
 * instructions (one checkpoint per sfence-pcommit-sfence triple).
 *
 * Draining is *pipelined*: SSB entries issue in order at one cache port
 * per cycle -- stores perform to the cache, delayed clwbs push dirty
 * blocks into the memory controller's WPQ, delayed pcommits place flush
 * markers -- and the drain never stalls waiting for a persist ack,
 * because the WPQ is FIFO: anything issued later can only become durable
 * later. The fences' ordering guarantees are therefore preserved while
 * their latency overlaps, which is exactly how speculation converts the
 * synchronous sfence-pcommit-sfence into buffered, ordered persists
 * (and why Figure 11 observes several pcommits in flight at once).
 *
 * Epochs still *commit* (free their checkpoint) strictly oldest-first,
 * each once its SSB entries have drained and its flush markers have
 * completed; epoch 0 additionally waits for the pre-speculation drain
 * condition its speculatively retired sfence promised.
 */

#ifndef SP_CORE_EPOCH_MANAGER_HH
#define SP_CORE_EPOCH_MANAGER_HH

#include <cstdint>
#include <vector>

#include "core/checkpoint.hh"
#include "core/ssb.hh"
#include "mem/cache_hierarchy.hh"
#include "mem/mem_system.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace sp
{


/** Orchestrates speculative epochs and their in-order commit. */
class EpochManager
{
  public:
    /**
     * @param strictCommit Paper-literal serialized commit (see
     *        SpConfig::strictCommit); default is the pipelined engine.
     */
    EpochManager(SpeculativeStoreBuffer &ssb, CheckpointBuffer &checkpoints,
                 CacheHierarchy &caches, MemSystem &mc, Stats &stats,
                 bool strictCommit = false);

    /**
     * Attach the trace bus (may be null). Epoch lifecycle publishes
     * `epoch` async spans plus checkpoint take/restore instants.
     */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    /** Is the core currently in speculative mode? */
    bool speculating() const { return !epochs_.empty(); }

    /** Identifier of the epoch new speculative state belongs to. */
    uint64_t currentEpoch() const;

    /** Live epochs (diagnostics / tests). */
    size_t epochCount() const { return epochs_.size(); }

    /**
     * Enter speculation: allocate a checkpoint for epoch 0.
     *
     * @param cursor Program position to restore on rollback (just past the
     *               speculatively retired sfence).
     * @param gateFlushes Memory-controller flush ids the retired sfence
     *                    was waiting on; they gate epoch 0's commit.
     * @param now Current cycle (trace timestamps only).
     * @retval false No checkpoint was free; the trigger must retry.
     */
    bool beginSpeculation(uint64_t cursor,
                          const std::vector<uint64_t> &gateFlushes,
                          Tick now = 0);

    /** Can a child epoch be created right now? */
    bool canStartChild() const { return checkpoints_.available(); }

    /**
     * Close the current epoch at an ordering instruction and open a child.
     *
     * @param cursor Rollback point for the child (just past the boundary).
     * @param now Current cycle (trace timestamps only).
     * @retval false No checkpoint free; retirement must stall.
     */
    bool startChild(uint64_t cursor, Tick now = 0);

    /**
     * Tell epoch 0 whether its pre-speculation drain condition (store
     * buffer empty, earlier persist acks received) now holds.
     */
    void setPreSpecDrained(bool drained) { preSpecDrained_ = drained; }
    /** The drain condition last passed to setPreSpecDrained(). */
    bool preSpecDrained() const { return preSpecDrained_; }

    /**
     * Advance the commit engine by one cycle.
     *
     * @return true if state changed (an entry drained, a flush was issued,
     *         or an epoch committed) -- used by the core's idle skipping.
     */
    bool tick(Tick now);

    /**
     * Earliest future tick at which the commit engine can make progress
     * on its own; kTickNever when progress depends on the memory
     * controller or the core instead.
     */
    Tick nextEventTick() const;

    /**
     * All epochs drained and committed except the live one, whose flushes
     * have completed and whose SSB entries are gone: the core may exit
     * speculation (it still owns bloom-filter/BLT reset).
     */
    bool readyToExit() const;

    /** Leave speculation; frees the final epoch's checkpoint.
     *  @param now Current cycle (trace timestamps only). */
    void exitSpeculation(Tick now = 0);

    /** Rollback target: cursor of the oldest live checkpoint. */
    uint64_t oldestCursor() const;

    /**
     * Any live epoch still gated on an incomplete memory-controller
     * flush (epoch 0's speculatively retired sfence gate, or a delayed
     * pcommit's marker). While true, the persist barrier the core
     * speculated past has not finished -- the cycle-account ledger's
     * "barrier pending" condition during speculation.
     */
    bool gateOutstanding() const;

    /** Abort: discard every epoch and checkpoint. Caller clears the SSB.
     *  @param now Current cycle (trace timestamps only). */
    void abortAll(Tick now = 0);

    /** Append epoch-queue and flush-pool capacity/high-water stats. */
    void collectPoolStats(std::vector<PoolStat> &out) const;

    /** No live epochs (no open epoch trace spans): a quiescent point. */
    bool idle() const { return epochs_.empty(); }

    /** Snapshot serializer: live epochs + ids and drain bookkeeping. */
    template <class Ar> void serialize(Ar &ar);

  private:
    struct Epoch
    {
        uint64_t id;
        unsigned checkpointIdx;
        /** Flush markers that must complete before this epoch commits. */
        std::vector<uint64_t> flushes;
        bool isFirst;
        /** A child exists; no more state will be tagged with this id. */
        bool closed = false;
    };

    SpeculativeStoreBuffer &ssb_;
    CheckpointBuffer &checkpoints_;
    CacheHierarchy &caches_;
    MemSystem &mc_;
    Stats &stats_;

    RingDeque<Epoch> epochs_;
    /**
     * Recycled flush-id vectors: a sweep retires millions of epochs and
     * each used to heap-allocate its flushes vector; the pool reuses the
     * committed epochs' buffers instead.
     */
    VecPool<uint64_t> flushPool_;
    Tracer *tracer_ = nullptr;
    uint64_t nextEpochId_ = 1;
    bool preSpecDrained_ = false;
    bool strictCommit_;
    /** strict mode: flush id the drain is blocked on (0 = none). */
    uint64_t strictWaitFlush_ = 0;

    /** Cache/WPQ port for draining is busy until this tick. */
    Tick drainBusyUntil_ = 0;

    Epoch &epochById(uint64_t id);
    bool canRetire(const Epoch &epoch) const;
    bool drainAllowed(const SsbEntry &entry) const;
    bool drainOne(Tick now);
    void recycleFlushes(Epoch &epoch);
};

} // namespace sp

#endif // SP_CORE_EPOCH_MANAGER_HH
