/**
 * @file
 * Memory controller with a write-pending queue (WPQ) in front of an NVMM
 * device.
 *
 * Dirty blocks written back from the LLC (or pushed by clwb/clflushopt)
 * land in the WPQ; they are not durable until the controller drains them
 * to the device. pcommit places a flush marker: it completes once every
 * WPQ entry older than the marker has been written to NVMM, which is the
 * long-latency event the paper speculates past. The device is occupied
 * serially (50 ns reads, 150 ns writes at 2.1 GHz), so pcommit latency
 * emerges from queue occupancy rather than being a constant.
 */

#ifndef SP_MEM_MEM_CTRL_HH
#define SP_MEM_MEM_CTRL_HH

#include <cstdint>
#include <vector>

#include "mem/mem_image.hh"
#include "sim/config.hh"
#include "sim/pool.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace sp
{


/** Memory controller + NVMM device model. */
class MemCtrl
{
  public:
    /**
     * @param cfg Latency and queue parameters.
     * @param durable Image that receives data only when writes drain.
     */
    MemCtrl(const MemConfig &cfg, MemImage &durable);

    /** Attach the statistics sink (may be null). */
    void setStats(Stats *stats) { stats_ = stats; }

    /**
     * Attach the trace bus (may be null). pcommit flushes publish
     * `pcommit` async spans (issue -> drain-past-marker).
     *
     * @param idBase Added to this controller's flush ids so spans from
     *               different controllers never share an async id.
     */
    void
    setTracer(Tracer *tracer, uint64_t idBase = 0)
    {
        tracer_ = tracer;
        traceIdBase_ = idBase;
    }

    /**
     * Advance the controller's internal timeline to `now`, draining as
     * many WPQ writes as the device completes by then. Must be called
     * with monotonically non-decreasing `now`.
     *
     * The result does not depend on which earlier ticks were visited: a
     * write is dispatched at `max(bank free, readyAt)` and completes at
     * its `doneAt`, neither of them the tick of the call, and one call
     * takes completions and dispatches in the order per-tick calls do.
     * So advancing straight to `now` leaves the same state as advancing
     * through every tick before it (MemSystem.LeapingAdvanceMatchesEveryTick),
     * and a caller that inserts no write and starts no flush may skip
     * the calls between two nextEventTick() ticks: flushComplete(),
     * wpqOccupancy() and the durable image answer the same there either
     * way (MemSystem.AdvancingOnlyAtEventsMatchesEveryTick).
     */
    void advanceTo(Tick now);

    /**
     * Earliest future tick at which controller state changes on its own
     * (a drain completing or starting); kTickNever when idle. Never
     * later than the next write completion, so a caller that advances
     * at this tick observes every completion on the tick it happens.
     */
    Tick nextEventTick() const;

    /** True if the WPQ can accept another write without overflowing. */
    bool
    wpqHasSpace() const
    {
        return wpq_.size() + inflight_.size() < cfg_.wpqEntries;
    }

    /**
     * Enqueue a 64B block write at the current timeline position.
     *
     * @param force Evictions must not be lost, so they may transiently
     *              overfill the queue; clwb-initiated writes pass false
     *              and must check wpqHasSpace() first.
     */
    void insertWrite(Addr blockAddr, const uint8_t *data, bool force);

    /** Current WPQ occupancy in entries (queued + on the device). */
    size_t wpqOccupancy() const { return wpq_.size() + inflight_.size(); }

    /**
     * Highest wpqOccupancy() since construction or resetWpqPeak().
     * Telemetry only: not part of Stats or of a snapshot.
     */
    size_t wpqPeak() const { return wpqPeak_; }
    void resetWpqPeak() { wpqPeak_ = wpqOccupancy(); }

    /**
     * Start a block read at `now`.
     *
     * @return Tick at which the data is available at the controller.
     */
    Tick read(Addr blockAddr, Tick now);

    /**
     * Compose fill data: the durable image overlaid with any younger
     * writes still pending in the WPQ.
     */
    void readBlockData(Addr blockAddr, uint8_t *out) const;

    /**
     * Begin a pcommit flush: all writes currently pending must drain.
     *
     * @return Flush identifier to poll with flushComplete().
     */
    uint64_t startFlush(Tick now);

    /** True once every write older than the flush marker has drained. */
    bool flushComplete(uint64_t id) const;

    /** Flushes started but not yet complete. */
    unsigned outstandingFlushes() const
    {
        return static_cast<unsigned>(pending_.size());
    }

    /** Live flush-tracking records (bounded-state diagnostics). */
    size_t flushRecordCount() const { return pending_.size(); }

    /** Extra cycles for a command/ack round trip between core and MC. */
    unsigned roundTrip() const { return cfg_.ctrlRoundTrip; }

    /** Drain everything immediately (used between experiment phases). */
    void drainAll();

    /**
     * Enable deterministic per-write latency jitter (crash-injection
     * campaigns): each dispatched NVMM write takes up to `maxExtraCycles`
     * additional cycles, drawn from an Rng seeded with `seed`. Shifts
     * pcommit completion times so crash cells sample different
     * durability frontiers. 0 disables (the default).
     */
    void setWriteJitter(unsigned maxExtraCycles, uint64_t seed);

    /**
     * Power-failure tearing. The device commits pending writes strictly
     * in seq order, so a crash exposes a FIFO prefix of the pending
     * stream (inflight + WPQ): a pseudo-random cut point is drawn, every
     * write before it commits whole, the write AT the cut -- the one on
     * the media when power failed -- commits a pseudo-random subset of
     * its 8-byte words (words stay atomic, the architectural guarantee
     * the WAL protocol assumes), and everything younger is lost with the
     * volatile queues.
     *
     * @return Number of durable blocks the crash modified.
     */
    unsigned applyTornWrites(uint64_t seed);

    /** Timeline position of the last advanceTo()/read() call. */
    Tick currentTick() const { return lastNow_; }

    /**
     * Snapshot serializer: WPQ + device-in-flight queues, flush flights,
     * bank timing, and the jitter RNG stream. Config and the durable
     * image reference are rebuilt by the restoring machine.
     */
    template <class Ar> void serialize(Ar &ar);

    /** Append WPQ/in-flight/flush-record capacity and high-water stats. */
    void
    collectPoolStats(std::vector<PoolStat> &out) const
    {
        out.push_back(wpq_.stat("mc.wpq"));
        out.push_back(inflight_.stat("mc.inflight"));
        out.push_back(pending_.stat("mc.pendingFlushes"));
    }

  private:
    struct WpqEntry
    {
        Addr addr;
        uint64_t seq;
        /** Tick the entry entered the queue (drain may not start before). */
        Tick readyAt;
        uint8_t data[kBlockBytes];
    };

    /** A write dispatched to an NVMM bank, completing at doneAt. */
    struct InFlight
    {
        Addr addr;
        uint64_t seq;
        Tick doneAt;
        uint8_t data[kBlockBytes];
    };

    /**
     * One incomplete flush. Markers are snapshots of nextSeq_, so they
     * are monotone in flush id; writes drain in seq order, so flushes
     * complete strictly in id order. Incomplete flushes therefore form
     * a contiguous id range [firstPendingId_, firstPendingId_ +
     * pending_.size()): completion is a front-pop, lookup is an index,
     * and completed flushes occupy no memory at all -- where the old
     * unordered_map kept every flush ever started.
     */
    struct PendingFlush
    {
        /** All entries with seq <= marker must drain. */
        uint64_t marker;
        /** Tick the flush was issued (latency statistics). */
        Tick startedAt;
    };

    MemConfig cfg_;
    MemImage &durable_;
    Stats *stats_ = nullptr;
    Tracer *tracer_ = nullptr;
    uint64_t traceIdBase_ = 0;

    RingDeque<WpqEntry> wpq_;
    /** Writes on the device; in-order dispatch keeps doneAt monotone. */
    RingDeque<InFlight> inflight_;
    uint64_t nextSeq_ = 1;
    uint64_t drainedSeq_ = 0;

    /** Per-bank busy-until ticks. */
    std::vector<Tick> bankFreeAt_;
    /** Fault injection: extra write-latency jitter (0 = off). */
    unsigned jitterMax_ = 0;
    Rng jitterRng_{1};
    /** High-water mark of observed time. */
    Tick lastNow_ = 0;
    size_t wpqPeak_ = 0;

    uint64_t nextFlushId_ = 1;
    /** Incomplete flushes, oldest first; see PendingFlush. */
    RingDeque<PendingFlush> pending_;
    /** Flush id of pending_.front(); ids below it are complete. */
    uint64_t firstPendingId_ = 1;

    unsigned bankOf(Addr blockAddr) const;
    void updateFlushes(Tick now);
};

} // namespace sp

#endif // SP_MEM_MEM_CTRL_HH
