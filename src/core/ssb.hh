/**
 * @file
 * Speculative Store Buffer (SSB).
 *
 * A FIFO between the pipeline and the cache that holds speculatively
 * retired stores and *delayed* PMEM instructions until their epoch commits
 * (paper Section 4.2.2). Entries are tagged with the speculative epoch that
 * produced them; epochs drain strictly oldest-first, so the buffer order is
 * also the commit order. The sfence-pcommit-sfence triple is represented by
 * a single special entry (kSps) so the whole sequence costs one checkpoint.
 */

#ifndef SP_CORE_SSB_HH
#define SP_CORE_SSB_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/addr_map.hh"
#include "sim/config.hh"
#include "sim/pool.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace sp
{

class SnapshotWriter;
class SnapshotReader;

/** Kinds of entries buffered in the SSB. */
enum class SsbEntryType : uint8_t
{
    /** Speculatively retired store: performs to cache at drain. */
    kStore,
    /** Delayed clwb: issues its writeback at drain. */
    kClwb,
    /** Delayed clflushopt. */
    kClflushOpt,
    /** Delayed clflush. */
    kClflush,
    /** Delayed standalone pcommit. */
    kPcommit,
    /**
     * The sfence-pcommit-sfence triple folded into one opcode: drain must
     * wait for earlier writebacks to ack, flush the WPQ, and wait for the
     * flush ack before any later entry drains.
     */
    kSps,
    /** A bare fence boundary: wait for earlier persist acks at drain. */
    kFenceMark,
};

/** One SSB entry. */
struct SsbEntry
{
    SsbEntryType type = SsbEntryType::kStore;
    uint8_t size = 0;
    /** Always zero: named padding (see SnapshotWriter::determinedBytes). */
    uint8_t reserved[6] = {};
    uint64_t epoch = 0;
    Addr addr = 0;
    uint64_t value = 0;
};

/** The buffer itself: bounded FIFO with store-search support. */
class SpeculativeStoreBuffer
{
  public:
    /** @param entries Capacity (Table 3 column). */
    explicit SpeculativeStoreBuffer(unsigned entries);

    bool full() const { return entries_.size() >= capacity_; }
    bool empty() const { return entries_.empty(); }
    size_t size() const { return entries_.size(); }
    unsigned capacity() const { return capacity_; }

    /** CAM+RAM access latency for this capacity (Table 3). */
    unsigned latency() const { return latency_; }

    /**
     * Attach the trace bus (may be null). Occupancy changes publish an
     * `ssb_occupancy` counter track; tracing never affects behaviour.
     */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    /**
     * Append an entry; the buffer must not be full.
     *
     * @param now Current cycle, used only to timestamp trace events.
     */
    void push(const SsbEntry &entry, Tick now = 0);

    /** Oldest entry; the buffer must not be empty. */
    const SsbEntry &front() const;

    /** Remove the oldest entry. @param now Trace timestamp only. */
    void pop(Tick now = 0);

    /**
     * Search for the youngest store overlapping [addr, addr+size).
     * Used for store-to-load forwarding during speculation. O(1): the
     * per-byte coverage index answers existence without a CAM scan.
     *
     * @retval true a store overlapping the range is buffered.
     */
    bool searchForLoad(Addr addr, unsigned size) const;

    /** True if any entry tagged with `epoch` remains. */
    bool hasEntriesFor(uint64_t epoch) const;

    /** Discard everything (abort or speculation exit). */
    void clear();

    /** Append buffer capacity/high-water stats. */
    void collectPoolStats(std::vector<PoolStat> &out) const;

    /**
     * Snapshot visitors: entries in FIFO order. Restore re-pushes them
     * (tracer detached), rebuilding the coverage index and the epoch
     * run-length view through the same invariant-preserving path.
     */
    void saveState(SnapshotWriter &w) const;
    void restoreState(SnapshotReader &r);

  private:
    unsigned capacity_;
    unsigned latency_;
    RingDeque<SsbEntry> entries_;
    /**
     * Byte-granular coverage counts of the buffered kStore entries,
     * kept coherent with the deque on push/pop/clear. Existence of an
     * overlap is exactly "some covered byte count is nonzero", so the
     * index answers searchForLoad() without scanning.
     */
    ByteCoverageMap storeCover_;
    /**
     * Run-length view of the entries' (monotone) epoch tags, oldest
     * first, in structure-of-arrays form: epochIds_[i] holds the id and
     * epochLive_[i] the live entry count of run i. Epoch ids only grow
     * and entries leave FIFO, so hasEntriesFor() scans the handful of
     * live runs -- contiguous ids only -- instead of the whole buffer.
     */
    RingDeque<uint64_t> epochIds_;
    RingDeque<uint32_t> epochLive_;
    Tracer *tracer_ = nullptr;
};

} // namespace sp

#endif // SP_CORE_SSB_HH
