/**
 * @file
 * Durability audit: happens-before-durable checking of the committed
 * micro-op stream.
 *
 * The auditor watches every retired op in program order and maintains,
 * per cache line, where that line's newest store sits on the durability
 * timeline. "Durable" means different things at different points of a
 * block's life and the rules below mirror the machine exactly:
 *
 *  - A plain store only dirties a cache line. The line may reach NVMM at
 *    any time (eviction) or never -- the program has made no ordering
 *    promise about it.
 *  - A clwb/clflushopt/clflush of a dirty line pushes it into its memory
 *    controller's write-pending queue (WPQ). The WPQ drains FIFO, so
 *    within one controller flush order IS durability order even without
 *    any fence.
 *  - A pcommit marks the WPQ contents existing at that point; the
 *    following sfence blocks until those writes (and all prior flush
 *    acks) are durable. Only a completed pcommit+sfence pair -- a
 *    "durability epoch" boundary -- orders flushes across controllers
 *    or lets the program *depend* on data being durable.
 *
 * Violations flagged:
 *  - kUnorderedStore (rule A): a line's dirty store from epoch E is
 *    still unflushed when some other line's store from a *later* epoch
 *    is flushed. The machine can make the younger data durable while
 *    the elder store sits in a cache indefinitely; a crash between the
 *    two exposes state no transaction boundary permits (the classic
 *    missing/late clwb).
 *  - kUnorderedFlush (rule B, multi-controller only): a flush that
 *    missed its pcommit (issued after the marker, or the pcommit was
 *    dropped) is still pending when a later-epoch flush lands on a
 *    *different* controller. Independent WPQs drain independently, so
 *    the younger write can become durable first. With one controller
 *    the global FIFO makes this case benign, and the auditor is
 *    deliberately silent -- the crash campaign would never reproduce a
 *    divergence, and checker and campaign must agree.
 *
 * Redundant barriers (warnings, not violations): flushes of lines with
 * nothing new to write back, fences that order nothing, pcommits with no
 * flush since the previous one. They cost cycles but cannot tear
 * recovery, so clean() ignores them.
 *
 * The audit is an observer: it never feeds back into timing, so Stats
 * and the durable image are bit-identical with the audit on or off
 * (guarded by tests/test_audit.cc).
 */

#ifndef SP_SIM_AUDIT_HH
#define SP_SIM_AUDIT_HH

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "isa/microop.hh"
#include "sim/types.hh"

namespace sp
{

class SnapshotReader;
class SnapshotWriter;

/** Audit knobs threaded through RunConfig (plain data, sweepable). */
struct AuditOptions
{
    /** Master switch; off costs nothing on the hot path. */
    bool enabled = false;
    /**
     * Make finalize() (and thus runExperiment) throw std::runtime_error
     * when the report has violations, so a sweep cell surfaces them as a
     * SweepFailureRecord naming the offending RunConfig.
     */
    bool failOnViolation = false;
    /** Cap on retained findings; excess only bumps the counters. */
    unsigned maxFindings = 256;
};

/** What kind of durability-order violation a finding describes. */
enum class AuditFindingKind : uint8_t
{
    /** Rule A: dirty store overtaken by a later-epoch flush. */
    kUnorderedStore,
    /** Rule B: unsealed flush overtaken on another controller. */
    kUnorderedFlush,
};

const char *auditFindingKindName(AuditFindingKind kind);

/**
 * One violated line. `storeOp`/`flushOp`/`witnessOp` are dynamic op
 * indices in the retired stream -- the simulator's notion of a PC.
 * Ticks bound the wall-clock window in which a crash can expose the
 * violation; the mutation tests use them to focus their crash scans.
 */
struct AuditFinding
{
    AuditFindingKind kind = AuditFindingKind::kUnorderedStore;
    /** Always zero: named padding (see SnapshotWriter::determinedBytes). */
    uint8_t reserved[7] = {};
    /** The line whose durability ordering was lost. */
    Addr line = 0;
    /** Dynamic index of the unordered store (rule A) or flush (rule B). */
    uint64_t storeOp = 0;
    /** Durability epoch that store/flush belongs to. */
    uint64_t storeEpoch = 0;
    /** The younger store whose flush overtook it. */
    Addr witnessLine = 0;
    uint64_t witnessOp = 0;
    uint64_t witnessEpoch = 0;
    /** Dynamic index of the witness flush that created the first edge. */
    uint64_t flushOp = 0;
    /** Retirement tick of that witness flush. */
    Tick firstTick = 0;
    /** Tick of the line's own (late) flush; 0 = never flushed again. */
    Tick resolvedTick = 0;
    /** Dynamic index of that late flush; 0 = none. */
    uint64_t resolvedOp = 0;
    /** Happens-before-durable edges collapsed into this finding. */
    uint64_t edges = 1;

    /** One-line human-readable rendering. */
    std::string toString() const;
};

/** Everything one audited run produces. */
struct AuditReport
{
    bool enabled = false;

    // --- Stream counters --------------------------------------------------
    uint64_t ops = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t flushes = 0;
    uint64_t pcommits = 0;
    uint64_t fences = 0;
    /** Completed pcommit+sfence pairs (durability epoch boundaries). */
    uint64_t epochs = 0;

    // --- Redundant-barrier warnings ---------------------------------------
    /** Flushes of lines with no store since their last flush. */
    uint64_t redundantFlushes = 0;
    /** Fences with no store/flush/pcommit since the last ordering point. */
    uint64_t redundantFences = 0;
    /** pcommits with no flush since the previous pcommit. */
    uint64_t redundantPcommits = 0;

    // --- Violations -------------------------------------------------------
    /** Total violation edges (>= findings.size(); edges are deduped). */
    uint64_t violationEdges = 0;
    /** True when maxFindings dropped some distinct findings. */
    bool findingsTruncated = false;
    std::vector<AuditFinding> findings;

    /** No violations (warnings are allowed). */
    bool clean() const { return findings.empty() && violationEdges == 0; }

    /** One-line JSON object (machine-readable report for spcli). */
    std::string toJson() const;
};

/**
 * The checker. Feed it the retired op stream via observe(); call
 * finalize() once at end of run.
 *
 * Complexity: O(1) amortized per op; rule A scans only the set of
 * currently dirty-unflushed lines at each flush, which in a disciplined
 * workload is the handful of lines of the open transaction.
 */
class DurabilityAuditor
{
  public:
    /**
     * @param numMemCtrls Controller count of the machine under audit;
     *        rule B needs the flush->controller mapping (and is skipped
     *        entirely when there is only one controller).
     */
    explicit DurabilityAuditor(const AuditOptions &opts,
                               unsigned numMemCtrls = 1);

    /**
     * One retired op, in program order. `opIndex` is the op's dynamic
     * index (stable across speculative abort/replay); `now` the
     * retirement tick.
     */
    void observe(const MicroOp &op, uint64_t opIndex, Tick now);

    /**
     * Close the stream and return the report. Idempotent. Throws
     * std::runtime_error when opts.failOnViolation and the report is
     * not clean.
     */
    const AuditReport &finalize();

    /** The report built so far (finalize() need not have run). */
    const AuditReport &report() const { return report_; }

    /**
     * Snapshot visitors: full tracking state (per-line durability
     * timeline, unsealed flushes, epoch counters) plus the report built
     * so far, so a resumed run emits byte-identical --audit JSON.
     * Options and controller count are rebuilt from config.
     */
    void saveState(SnapshotWriter &w) const;
    void restoreState(SnapshotReader &r);

  private:
    struct LineState
    {
        uint64_t lastStoreOp = 0;
        uint64_t lastStoreEpoch = 0;
        /** Stored since the line's last flush. */
        bool dirty = false;
        /** Always zero: named padding (see SnapshotWriter::determinedBytes). */
        uint8_t reserved[3] = {};
        /** Open finding for this line, or -1. */
        int findingIdx = -1;
    };

    /** A flush in some WPQ not yet covered by a completed pcommit. */
    struct PendingFlush
    {
        Addr line = 0;
        uint64_t flushOp = 0;
        uint64_t storeEpoch = 0;
        unsigned ctrl = 0;
        int findingIdx = -1;
    };

    void observeStore(Addr addr, uint64_t opIndex);
    void observeFlush(Addr addr, uint64_t opIndex, Tick now);
    void observePcommit(uint64_t opIndex);
    void observeFence(uint64_t opIndex, Tick now);
    void flagUnorderedStore(Addr line, LineState &ls, Addr witnessLine,
                            uint64_t witnessOp, uint64_t witnessEpoch,
                            uint64_t flushOp, Tick now);
    void flagUnorderedFlush(PendingFlush &pf, Addr witnessLine,
                            uint64_t witnessOp, uint64_t witnessEpoch,
                            uint64_t flushOp, Tick now);
    /** Record a new finding; returns its index or -1 when truncated. */
    int addFinding(const AuditFinding &f);
    unsigned ctrlOf(Addr line) const;

    AuditOptions opts_;
    unsigned numMemCtrls_;
    AuditReport report_;
    bool finalized_ = false;

    std::unordered_map<Addr, LineState> lines_;
    /** Lines with dirty == true (rule A scans only these). */
    std::unordered_set<Addr> dirtyLines_;
    /** Reused sorted-scan scratch (rule A; keeps the hot path
     *  allocation-free and the scan order canonical). */
    std::vector<Addr> scanScratch_;
    /** Unsealed flushes, FIFO; maintained only with > 1 controller. */
    std::deque<PendingFlush> pending_;

    uint64_t epoch_ = 0;
    /** Op index of the last pcommit not yet sealed by an sfence; 0=none. */
    uint64_t openPcommitOp_ = 0;
    /** Flushes observed since the last pcommit (redundancy warning). */
    uint64_t flushesSincePcommit_ = 0;
    /** Activity since the last ordering point (redundancy warning). */
    uint64_t workSinceFence_ = 0;
};

} // namespace sp

#endif // SP_SIM_AUDIT_HH
