/**
 * @file
 * The memory system: one or more memory controllers, block-interleaved.
 *
 * The paper's pcommit semantics are explicitly multi-controller:
 * "pcommit's completion is detected when the write buffers in the memory
 * controller are flushed and the processor has received acknowledgement
 * from ALL memory controllers" (Section 2.2). A pcommit therefore
 * broadcasts a flush marker to every controller and completes only when
 * each one has drained past its marker. With numMemCtrls = 1 (the
 * default) this is a thin veneer over MemCtrl.
 */

#ifndef SP_MEM_MEM_SYSTEM_HH
#define SP_MEM_MEM_SYSTEM_HH

#include <memory>
#include <vector>

#include "mem/mem_ctrl.hh"
#include "sim/pool.hh"

namespace sp
{

/** Block-interleaved array of memory controllers. */
class MemSystem
{
  public:
    /**
     * @param cfg Per-controller latency/queue parameters (numMemCtrls
     *            selects how many controllers to instantiate).
     * @param durable Shared durable image (controllers own disjoint
     *                block sets, so writes never race).
     */
    MemSystem(const MemConfig &cfg, MemImage &durable);

    /** Attach the statistics sink (may be null). */
    void setStats(Stats *stats);

    /**
     * Attach the trace bus (may be null), fanning out to every
     * controller with a per-controller async-id base so pcommit spans
     * from different controllers never collide.
     */
    void setTracer(Tracer *tracer);

    /** Advance every controller's timeline to `now`. */
    void advanceTo(Tick now);

    /** Earliest controller-internal event; kTickNever when all idle. */
    Tick nextEventTick() const;

    /** Can the owning controller accept a write for this block? */
    bool wpqHasSpace(Addr blockAddr) const;

    /** Enqueue a block write at its owning controller. */
    void insertWrite(Addr blockAddr, const uint8_t *data, bool force);

    /** Total queued + in-flight writes across controllers. */
    size_t wpqOccupancy() const;

    /** Largest controller's MemCtrl::wpqPeak(), and its reset. */
    size_t wpqPeak() const;
    void resetWpqPeak();

    /** Start a block read at its owning controller. */
    Tick read(Addr blockAddr, Tick now);

    /** Fill data: durable image overlaid with the owner's pending writes. */
    void readBlockData(Addr blockAddr, uint8_t *out) const;

    /**
     * pcommit: broadcast a flush marker to every controller.
     *
     * @return System-level flush id; complete once ALL controllers ack.
     */
    uint64_t startFlush(Tick now);

    /** True once every controller drained past its marker. */
    bool flushComplete(uint64_t id) const;

    /** System-level flushes started but not complete everywhere. */
    unsigned outstandingFlushes() const;

    /** Command/ack round trip (identical across controllers). */
    unsigned roundTrip() const { return ctrls_.front()->roundTrip(); }

    /** Drain every controller completely. */
    void drainAll();

    /**
     * Enable write-latency jitter on every controller (each gets a
     * distinct stream derived from `seed`). 0 disables.
     */
    void setWriteJitter(unsigned maxExtraCycles, uint64_t seed);

    /**
     * Power-failure tearing across all controllers (see
     * MemCtrl::applyTornWrites).
     *
     * @return Total writes torn.
     */
    unsigned applyTornWrites(uint64_t seed);

    /** Number of controllers (diagnostics / tests). */
    unsigned numCtrls() const
    {
        return static_cast<unsigned>(ctrls_.size());
    }

    /** Direct access for controller-level tests. */
    MemCtrl &ctrl(unsigned i) { return *ctrls_[i]; }

    /** Live flush-tracking records (bounded-state diagnostics). */
    size_t flushRecordCount() const
    {
        return flushParts_.size() / ctrls_.size();
    }

    /** Append queue capacity/high-water stats of every controller. */
    void
    collectPoolStats(std::vector<PoolStat> &out) const
    {
        for (const auto &ctrl : ctrls_)
            ctrl->collectPoolStats(out);
        out.push_back(flushParts_.stat("mc.flushParts"));
    }

    /** Snapshot serializer: system flush tracking + every controller. */
    template <class Ar> void serialize(Ar &ar);

  private:
    std::vector<std::unique_ptr<MemCtrl>> ctrls_;
    Stats *stats_ = nullptr;

    uint64_t nextFlushId_ = 1;
    /**
     * Per-controller flush ids of system flushes not yet pruned, flat:
     * system flush firstFlushId_+k owns entries [k*N, (k+1)*N) for N
     * controllers. Controllers complete their flushes in id order, so
     * finished system flushes are a prefix; advanceTo() pops them,
     * keeping the deque bounded by the number of flushes genuinely in
     * flight (the old map kept every flush ever started). Ids below
     * firstFlushId_ are complete by construction.
     */
    RingDeque<uint64_t> flushParts_;
    uint64_t firstFlushId_ = 1;

    unsigned ownerOf(Addr blockAddr) const;
};

} // namespace sp

#endif // SP_MEM_MEM_SYSTEM_HH
