/**
 * @file
 * Out-of-order core model with speculative persistence support.
 *
 * The pipeline follows Table 2: 4-wide fetch/dispatch/issue/retire, a
 * 128-entry ROB, 48-entry fetch and issue queues, a 48-entry LSQ, and a
 * post-retirement store buffer that drains into the L1D. Micro-ops carry
 * backward dependence distances, so load-to-use chains (pointer chasing in
 * the tree benchmarks) serialize execution exactly where a real core would
 * stall.
 *
 * Persistence semantics at retirement:
 *   - stores enter the store buffer (or the SSB when speculating);
 *   - clwb/clflushopt/clflush walk the hierarchy and push dirty data into
 *     the memory controller's WPQ, acking asynchronously;
 *   - pcommit retires immediately but opens a WPQ flush whose ack a later
 *     sfence must wait for;
 *   - sfence blocks retirement until the store buffer is empty and every
 *     earlier persist operation has acked.
 *
 * Speculative persistence (paper Section 4): when an sfence is blocked at
 * the head of the ROB behind an outstanding pcommit and SP is enabled, the
 * core checkpoints, retires the fence speculatively, and runs on. Stores
 * and PMEM ops retire into the SSB; loads consult the Bloom filter and pay
 * the SSB CAM latency on a hit; ordering instructions start child epochs
 * (one checkpoint per sfence-pcommit-sfence triple thanks to the peephole);
 * epochs commit oldest-first through the EpochManager. External coherence
 * probes that hit the BLT abort to the oldest checkpoint.
 */

#ifndef SP_CPU_OOO_CORE_HH
#define SP_CPU_OOO_CORE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/blt.hh"
#include "core/bloom_filter.hh"
#include "core/checkpoint.hh"
#include "core/epoch_manager.hh"
#include "core/ssb.hh"
#include "isa/program.hh"
#include "sim/audit.hh"
#include "sim/cycle_account.hh"
#include "sim/fault.hh"
#include "mem/cache_hierarchy.hh"
#include "mem/mem_system.hh"
#include "sim/config.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace sp
{


/** The simulated core: owns the SP structures, drives the whole machine. */
class OooCore
{
  public:
    /**
     * @param cfg Full machine configuration.
     * @param program Dynamic micro-op source (wrapped for replay).
     * @param caches The cache hierarchy (shared with the epoch manager).
     * @param mc The memory controller.
     * @param stats Statistics sink.
     */
    OooCore(const SimConfig &cfg, Program &program, CacheHierarchy &caches,
            MemSystem &mc, Stats &stats);

    /** Run to completion (program exhausted and pipeline drained). */
    void run();

    /**
     * Run until `cycleLimit` (absolute cycle count) or completion.
     * Known defect: on the event-skip clock an idle skip that starts
     * before the limit can carry the clock past it (see
     * docs/PERFORMANCE.md, "Serial-chain steady state").
     *
     * @return true if the run completed before the limit.
     */
    bool runUntil(Tick cycleLimit);

    /** All work has been fetched, executed, retired, and drained. */
    bool done() const;

    /** Current cycle. */
    Tick now() const { return now_; }

    /** Is the core in speculative-persistence mode right now? */
    bool speculating() const { return specMode_; }

    /**
     * Attach the source of external coherence probes (may be null = no
     * probes), drawn on stepped cycles only. A probe that hits the BLT
     * while speculating aborts to the oldest checkpoint. Not owned.
     */
    void setProbeSource(ProbeSource *probes) { probes_ = probes; }

    /** True if runUntil() stopped because cfg.maxCycles was exceeded. */
    bool hitMaxCycles() const { return hitMaxCycles_; }

    /** Forward-progress watchdog state (diagnostics / tests). */
    const SpecGovernor &governor() const { return governor_; }

    /**
     * Attach the structured trace bus (may be null = tracing off) and
     * propagate it to every component the core owns or drives (SSB,
     * epoch manager, caches, memory system). The core publishes retire
     * instants, SPECULATE/COMMIT/ABORT markers, fence-stall spans,
     * Bloom/SSB-forward instants, and interval-sampled occupancy
     * counters, none inside a chain jump. The caller keeps ownership.
     */
    void setTracer(Tracer *tracer);

    /**
     * Attach a durability auditor (may be null = audit off). The core
     * feeds it every retired non-ALU op (none in a chain jump) exactly
     * once, in program order, deduplicated across abort/replay by the
     * op's program cursor. Pure observer: it never changes timing.
     */
    void setAuditor(DurabilityAuditor *auditor) { auditor_ = auditor; }

    /**
     * Attach a cycle accountant (may be null = accounting off). Each
     * stepped cycle, skipped idle span and chain jump is booked by
     * accountSpan() with the Stats stall counters, so sum(categories)
     * == Stats::cycles always holds. Pure observer: attaching it never
     * changes timing.
     */
    void setAccountant(CycleAccountant *accountant)
    {
        accountant_ = accountant;
    }

    /** Diagnostics for tests. */
    const SpeculativeStoreBuffer &ssb() const { return ssb_; }
    const BlockLookupTable &blt() const { return blt_; }
    const BloomFilter &bloom() const { return bloom_; }
    const EpochManager &epochs() const { return epochs_; }

    // --- Bounded-state diagnostics (long-run steady-state tests) --------
    /** Undelivered persist-ack ticks currently tracked. */
    size_t persistAckBacklog() const { return persistAcks_.size(); }
    /** pcommit flush flights currently tracked. */
    size_t flushFlightBacklog() const { return flushes_.size(); }
    /** Dispatched-but-unissued window size. */
    size_t unissuedBacklog() const { return unissuedCount_; }
    /** Reorder-buffer occupancy. */
    size_t robOccupancy() const { return rob_.size(); }

    /**
     * Cycles this core object covered with chain jumps (jumpChain())
     * instead of stepping them. Host telemetry: it is in no Stats, trace
     * or snapshot, and a restored core counts from zero.
     */
    uint64_t chainJumpCycles() const { return chainJumpCycles_; }

    /**
     * Capacity/high-water of every pooled structure the core owns or
     * drives (ROB, queues, SSB, epoch pools, program window, WPQ),
     * appended to `out`. Cheap: reads counters the pools keep anyway.
     */
    void collectPoolStats(std::vector<PoolStat> &out) const;

    /**
     * A quiescent cut point: not speculating, no post-abort drain in
     * progress, retirement not fence-blocked, no open fence-stall span,
     * no live epochs, and no pcommit flush pending in the memory system.
     * At such a point every trace span and every cycle-account ledger
     * episode is closed.
     */
    bool quiescent() const;

    /**
     * Snapshot serializer for the core and everything it owns (SSB,
     * checkpoints, Bloom, BLT, epochs, replay window, pipeline queues,
     * governor). External structures (caches, memory system, program
     * source, probe source) are serialized by their owners; observer
     * pointers are re-attached before a restore runs, and the interval
     * sampler's next firing tick is recomputed from the attached tracer
     * so a restored run samples at the identical absolute ticks.
     */
    template <class Ar> void serialize(Ar &ar);

  private:
    /** One in-flight dynamic micro-op. */
    struct DynOp
    {
        MicroOp op;
        /** Dynamic sequence number after RLE expansion. */
        uint64_t seq = 0;
        /** Program cursor just past this op's source (rollback point). */
        uint64_t nextCursor = 0;
        /** Next seq in this op's dependence-wait chain (0 = end). */
        uint64_t waitNext = 0;
        bool issued = false;
        /** Always zero: named padding (see SnapshotWriter::determinedBytes). */
        uint8_t reserved[7] = {};
        /** Completion tick, valid once issued. */
        Tick readyAt = 0;
    };

    /** Entry in the post-retirement store buffer. */
    struct StoreBufEntry
    {
        Addr addr;
        uint64_t value;
        uint8_t size;
        /** Always zero: named padding (see SnapshotWriter::determinedBytes). */
        uint8_t reserved[7] = {};
    };

    /** A pcommit flush the core has issued and not yet seen acked. */
    struct FlushFlight
    {
        uint64_t id;
        /** Ack delivery tick; kTickNever until completion is observed. */
        Tick ackAt = kTickNever;
    };

    // --- Configuration and external structure references ---------------
    SimConfig cfg_;
    ReplayableProgram program_;
    CacheHierarchy &caches_;
    MemSystem &mc_;
    Stats &stats_;

    // --- Speculative persistence hardware -------------------------------
    SpeculativeStoreBuffer ssb_;
    CheckpointBuffer checkpoints_;
    BloomFilter bloom_;
    BlockLookupTable blt_;
    EpochManager epochs_;

    // --- Pipeline state --------------------------------------------------
    Tick now_ = 0;
    RingDeque<DynOp> fetchQ_;
    RingDeque<DynOp> rob_;

    /**
     * Event-driven issue wakeup. Scanning the whole issue window every
     * cycle was the simulator's hottest loop; instead every dispatched
     * op lives in exactly one of three places until it issues:
     *  - readySeqs_: dependence satisfied; a min-heap on seq so ready
     *    ops still issue oldest-first, exactly like the former scan;
     *  - pendingWakes_: dependence completion tick known but in the
     *    future; a min-heap on that tick, drained into readySeqs_;
     *  - a wait chain hanging off the producer's doneAt_ ring slot
     *    (waitHead_[slot] -> DynOp::waitNext), moved to pendingWakes_
     *    the moment the producer executes and its tick becomes known.
     * The reachable-ready sets per cycle are identical to the scan's,
     * so issue order and timing are bit-identical.
     */
    BinaryHeap<uint64_t> readySeqs_;
    /**
     * Timed-wake min-heap in structure-of-arrays form: the comparison
     * key (`at`) scans contiguously during sifts instead of striding
     * over {at, seq} pairs, and both arrays keep their capacity across
     * clear() (an abort used to free the heap's buffer). Pop order among
     * equal ticks is unspecified, exactly like the former
     * priority_queue, and irrelevant: everything due by `now_` drains
     * into readySeqs_, which orders issue by seq.
     */
    struct WakeHeap
    {
        std::vector<Tick> at;
        std::vector<uint64_t> seq;
        size_t highWater = 0;

        bool empty() const { return at.empty(); }
        Tick topAt() const { return at.front(); }
        uint64_t topSeq() const { return seq.front(); }
        void push(Tick t, uint64_t s);
        void pop();
        void
        clear()
        {
            at.clear();
            seq.clear();
        }
    };
    WakeHeap pendingWakes_;
    std::vector<uint64_t> waitHead_;
    /** Dispatched-but-unissued ops (issue-queue occupancy). */
    unsigned unissuedCount_ = 0;

    unsigned lsqCount_ = 0;
    uint64_t nextSeq_ = 1;
    /** Remaining repeats of an ALU RLE group being expanded by fetch. */
    unsigned pendingAlu_ = 0;
    uint64_t pendingAluCursor_ = 0;
    bool programEnded_ = false;

    /** Completion-tick ring indexed by seq (for dependence checks). */
    static constexpr unsigned kRingSize = 8192;
    std::vector<Tick> doneAt_;

    // --- Post-retirement store path --------------------------------------
    RingDeque<StoreBufEntry> storeBuffer_;
    bool sbInFlight_ = false;
    Tick sbHeadDoneAt_ = 0;
    Addr sbInFlightBlock_ = 0;

    /** Is a store to this block still pending in the store buffer? */
    bool storePendingTo(Addr blockAddr) const;

    // --- Persist-op bookkeeping (non-speculative) -------------------------
    std::vector<Tick> persistAcks_;
    std::vector<FlushFlight> flushes_;
    /** Reused speculation-gate scratch (incomplete flush ids). */
    std::vector<uint64_t> gateScratch_;

    // --- Speculation state -------------------------------------------------
    bool specMode_ = false;
    /** Current epoch contains delayed PMEM ops (forces fence boundaries). */
    bool epochHasPersistOps_ = false;
    /** After an abort: hold retirement until pre-spec persists drain. */
    bool postAbortDrain_ = false;

    uint64_t releasedCursor_ = 0;
    /** Retirement releases the replay window in steps of this many ops. */
    static constexpr uint64_t kReleaseStride = 4096;

    // --- Tracing ----------------------------------------------------------
    /** Event bus; null = tracing off (the bit-identical fast path). */
    Tracer *tracer_ = nullptr;
    DurabilityAuditor *auditor_ = nullptr;
    /** Program cursor already fed to the auditor (abort/replay dedup). */
    uint64_t auditedCursor_ = 0;

    // --- Cycle accounting (all state dead while accountant_ == null) ------
    /** CPI-stack observer; null = accounting off (the seed path). */
    CycleAccountant *accountant_ = nullptr;
    /** Classification of the most recent stepped cycle; reused verbatim
     *  for the bulk span skipIdleCycles() fast-forwards, because no
     *  machine state changes during a skipped span. */
    CycleCat lastCat_ = CycleCat::kIdle;
    bool lastBarrier_ = false;
    /** Program cursor of the most recently retired op (rewound on
     *  abort); below replayUntil_ means progress is re-execution. */
    uint64_t frontierCursor_ = 0;
    /** High-water retired cursor, including speculatively retired work
     *  that a later abort may discard. */
    uint64_t maxRetiredCursor_ = 0;
    /** Replay ends when the frontier passes the pre-abort high water. */
    uint64_t replayUntil_ = 0;

    /** Exclusive category of the cycle just stepped (priority order). */
    CycleCat classifyCycle() const;
    /** Ledger condition: a persist barrier is pending this cycle. */
    bool barrierPending() const;
    /** Book `n` cycles as flags_, lastCat_ and lastBarrier_ say. */
    inline void accountSpan(uint64_t n);
    /** Start of the fence-stall interval in progress; kTickNever = none. */
    Tick fenceStallBegin_ = kTickNever;
    /** Next interval-sampler firing tick. */
    Tick nextSampleAt_ = 0;

    /** Publish one sample on every occupancy counter track. */
    void sampleCounters();

    // --- Fault injection & forward progress --------------------------------
    /** External coherence probes (not owned; null = none). */
    ProbeSource *probes_ = nullptr;
    /** Abort-livelock watchdog (constructed from cfg.fault.watchdog). */
    SpecGovernor governor_;
    /** runUntil() stopped at the cfg.maxCycles safety valve. */
    bool hitMaxCycles_ = false;

    // --- Per-cycle bookkeeping ----------------------------------------------
    struct CycleFlags
    {
        bool progress = false;
        bool fetchBlocked = false;
        bool fenceBlocked = false;
        bool ssbBlocked = false;
        bool checkpointBlocked = false;
        bool sbBlocked = false;
    };
    CycleFlags flags_;

    // --- Serial-chain steady state ------------------------------------------
    uint64_t chainJumpCycles_ = 0;

    /**
     * O(1) test, on the event-skip clock, that the coming cycle is the
     * serial-chain steady state, speculating or not: no post-abort drain
     * and an empty store buffer; the ROB head a completed chain element
     * and exactly one wake due now, on the op behind it; the issue and
     * fetch queues full, with a chain element at the fetch-queue head.
     */
    bool chainCycleApplies() const;
    /**
     * Step cycles while chainCycleApplies() holds, advancing now_ past
     * each, and stop at `cycleLimit` or the maxCycles valve. Spans that
     * chainJumpSpan() admits are taken by jumpChain(); the rest are
     * stepCycle() calls. Requires chainCycleApplies() on entry.
     */
    void runChainBatch(Tick cycleLimit);
    /**
     * Cycles the coming chain cycles can be jumped in one step, given
     * chainCycleApplies(): 0 unless the wake heap holds only the due
     * wake, no compaction is due, no ALU group is being expanded, and
     * every op behind the ROB head is a plain chain element (single
     * cycle, `dep = 1`). Then the program's chain run ahead, capped at
     * `cycleLimit`, the maxCycles valve, free ring slots, the next probe
     * draw and the next counter sample. While speculating it is also 0
     * unless the SSB is empty, no controller event is due now, the epoch
     * manager has seen the current pre-speculation drain state and no
     * window release is due; `k` then ends before the next controller
     * event, persist ack or backoff expiry. When it returns 0, `retryAt`
     * is the first tick at which it could return more.
     */
    uint64_t chainJumpSpan(Tick cycleLimit, Tick &retryAt) const;
    /**
     * Leave the core, the program and the attached observers as `k`
     * stepCycle() calls would, writing only the queue entries, ring
     * slots and window entries those cycles leave changed. Requires
     * 0 < k <= chainJumpSpan(). The caller advances the controller.
     */
    void jumpChain(uint64_t k);

    // --- Stages -----------------------------------------------------------
    void stepCycle();
    void processProbes();
    void retireStage();
    void issueStage();
    void dispatchStage();
    /** Move the fetch-queue head into the ROB and the issue window. */
    void dispatchFront();
    void fetchStage();
    void drainStoreBuffer();
    void maybeExitSpeculation();
    Tick nextEventTick() const;
    void skipIdleCycles();

    // --- Retirement helpers -------------------------------------------------
    /** @return true if the head op retired (pop already done). */
    bool retireHead();
    bool retireStore(const DynOp &head);
    bool retireWriteback(const DynOp &head);
    bool retirePcommit(const DynOp &head);
    bool retireFence(const DynOp &head);
    bool retireSpecFence(const DynOp &head);
    bool retireXchg(const DynOp &head);
    void popHead();
    void countRetired(const DynOp &op);

    // --- Conditions ---------------------------------------------------------
    bool storeBufferEmpty() const;
    bool persistAcksDone() const;
    /**
     * Drop persist bookkeeping whose every future effect is spent. It
     * does nothing unless persistAcks_ or flushes_ holds kCompactAt
     * entries, so callers test compactionDue() inline and skip the
     * call. A chain cycle adds to neither list, so below the bound a
     * chain jump can skip compaction for its whole span.
     */
    void compactPersistState();
    static constexpr size_t kCompactAt = 64;
    bool
    compactionDue() const
    {
        return persistAcks_.size() >= kCompactAt ||
            flushes_.size() >= kCompactAt;
    }
    void updateFlushAcks();
    bool flushesAcked() const;
    bool anyFlushOutstanding() const;
    bool preSpecDrained() const;

    // --- Speculation control ---------------------------------------------
    bool triggerSpeculation(const DynOp &fence);
    void abortSpeculation();
    void noteSpecStore(const DynOp &op);

    // --- Utilities -----------------------------------------------------------
    DynOp *findBySeq(uint64_t seq);
    bool depReady(const DynOp &op) const;
    Tick depReadyAt(const DynOp &op) const;
    void enqueueForIssue(DynOp &op);
    void clearIssueQueues();
    void executeOp(DynOp &op);
    void releaseRetired(uint64_t nextCursor);
};

} // namespace sp

#endif // SP_CPU_OOO_CORE_HH
