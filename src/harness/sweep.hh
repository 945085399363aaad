/**
 * @file
 * Parallel sweep engine for the experiment harness.
 *
 * Every figure in the paper is a grid of *independent* simulations
 * (workload x persist-mode x SP on/off x seed). The engine runs such a
 * grid across a work-stealing thread pool and returns the results in
 * submission order, so benches and tests read exactly what a serial loop
 * would have produced -- just faster. Determinism is a hard contract:
 * runExperiment() shares no mutable state between runs, so a run's Stats
 * and durable MemImage are bit-identical for any worker count and any
 * scheduling (guarded by tests/test_sweep_determinism.cc).
 *
 * Parallelism is at *run* granularity, never cycle granularity: a single
 * simulated machine is a tight feedback loop (core <-> caches <-> WPQ)
 * whose state changes every cycle; threading inside it would buy little
 * and cost reproducibility. Grids, by contrast, are embarrassingly
 * parallel.
 */

#ifndef SP_HARNESS_SWEEP_HH
#define SP_HARNESS_SWEEP_HH

#include <functional>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace sp
{

/** One cell of a sweep grid: a RunConfig plus an optional crash point. */
struct SweepJob
{
    RunConfig cfg;
    /** If nonzero, crash the machine at this cycle (see runExperiment). */
    Tick crashAtCycle = 0;
};

/** Outcome of one sweep cell, tagged with its submission index. */
struct SweepRunResult
{
    /** Position of the job in the submitted vector. */
    size_t index = 0;
    /** The experiment's output; default-constructed when !ok. */
    RunResult run;
    /** Wall-clock time this run took on its worker, in milliseconds. */
    double wallMs = 0;
    /** False if the run threw; siblings are unaffected. */
    bool ok = true;
    /** what() of the exception when !ok. */
    std::string error;
    /** How the run ended; kException when !ok. */
    RunOutcome outcome = RunOutcome::kOk;
    /** Transient-failure retries this cell consumed (see
     *  SweepOptions::transientRetries); wallMs covers every attempt. */
    unsigned retries = 0;
    /**
     * Human-readable description of the offending RunConfig, filled by
     * run() for every cell that did not end kOk so failure reports can
     * name the configuration without re-deriving it from the index.
     */
    std::string configDesc;
};

/** Snapshot passed to the progress callback after each completed run. */
struct SweepProgress
{
    /** Runs finished so far, including this one. */
    size_t completed = 0;
    /** Total runs in the sweep. */
    size_t total = 0;
    /** Submission index of the run that just finished. */
    size_t index = 0;
    /** Wall-clock milliseconds of the run that just finished. */
    double wallMs = 0;
};

struct SweepOptions
{
    /**
     * Worker threads. 0 = automatic: the SP_JOBS environment variable if
     * set and positive, else std::thread::hardware_concurrency().
     */
    unsigned workers = 0;
    /**
     * Called exactly once per completed run, serialized under the
     * engine's progress mutex (safe to print from).
     */
    std::function<void(const SweepProgress &)> onProgress;
    /**
     * Per-run wall-clock budget in milliseconds; 0 = unlimited. A
     * simulated machine cannot be preempted mid-cycle, so the budget is
     * enforced post-hoc: the run finishes, and a run whose wall time
     * exceeded the budget is reclassified RunOutcome::kTimeout and lands
     * in SweepSummary::failures. Its RunResult is still valid and still
     * feeds the cycle aggregates -- wall time is the one nondeterministic
     * input to a sweep, and dropping slow runs from the aggregates would
     * make mean/min/max depend on machine load. Leave this 0 for any
     * sweep whose failure list feeds a determinism check.
     */
    double runTimeoutMs = 0;
    /**
     * Extra attempts for a cell whose task threw (0 = fail fast). The
     * simulator itself is deterministic, so a retry only helps when the
     * failure is environmental (OOM, filesystem hiccup in a task that
     * does I/O); a deterministic throw simply fails again and the cell
     * reports kException with the final error and the retry count.
     */
    unsigned transientRetries = 0;
    /**
     * Backoff before retry k (0-based) is retryBackoffMs << k
     * milliseconds, so repeated environmental failures spread out
     * instead of hammering the same contended resource.
     */
    unsigned retryBackoffMs = 10;
};

/**
 * Work-stealing thread-pool sweep engine.
 *
 * Jobs are dealt round-robin onto per-worker deques; a worker pops from
 * the front of its own deque and, when empty, steals from the back of a
 * sibling's. Each worker runs jobs to completion; results land in a
 * pre-sized vector slot unique to the job, so no locking is needed on
 * the result path and output order equals submission order.
 */
class SweepEngine
{
  public:
    explicit SweepEngine(SweepOptions opts = {});

    /** Worker threads this engine will spawn (resolved, never 0). */
    unsigned workers() const { return workers_; }

    /** Run a grid of experiments; results in submission order. */
    std::vector<SweepRunResult>
    run(const std::vector<SweepJob> &jobs) const;

    /** Convenience overload: no crash injection. */
    std::vector<SweepRunResult>
    run(const std::vector<RunConfig> &configs) const;

    /**
     * Generic core: execute `task(i)` for i in [0, count) on the pool.
     * run() is a thin wrapper; tests drive this directly with synthetic
     * tasks. `task` must be safe to call concurrently from multiple
     * threads with distinct indices.
     */
    std::vector<SweepRunResult>
    runTasks(size_t count,
             const std::function<RunResult(size_t)> &task) const;

    /** Resolve the automatic worker count (SP_JOBS, else hardware). */
    static unsigned defaultWorkers();

  private:
    unsigned workers_;
    std::function<void(const SweepProgress &)> onProgress_;
    double runTimeoutMs_;
    unsigned transientRetries_;
    unsigned retryBackoffMs_;
};

/** One non-kOk sweep cell, with enough context to reproduce it. */
struct SweepFailureRecord
{
    /** Submission index of the cell. */
    size_t index = 0;
    RunOutcome outcome = RunOutcome::kOk;
    /** Exception what() (empty unless outcome == kException). */
    std::string error;
    /** describeRunConfig() of the offending cell (when available). */
    std::string config;
    /** Transient-failure retries the cell consumed before this outcome. */
    unsigned retries = 0;
};

/**
 * Aggregate statistics over the completed runs of a sweep --
 * mean/stddev/min/max of cycle counts plus wall-time accounting.
 */
struct SweepSummary
{
    /** Completed (ok) runs aggregated. */
    unsigned runs = 0;
    /** Runs that threw (excluded from the aggregates). */
    unsigned failed = 0;

    // --- Per-outcome counts (okRuns + ... + exceptionRuns == cells) -------
    unsigned okRuns = 0;
    unsigned crashedRuns = 0;
    unsigned degradedRuns = 0;
    unsigned maxCyclesRuns = 0;
    unsigned exceptionRuns = 0;
    /** Runs reclassified by the wall-clock budget (still aggregated). */
    unsigned timeoutRuns = 0;
    /** Transient-failure retries consumed across every cell. */
    uint64_t totalRetries = 0;
    /** Every cell that did not end kOk (kCrashed cells included: crash
     *  campaigns read them; plain sweeps have none). */
    std::vector<SweepFailureRecord> failures;
    double meanCycles = 0;
    double stddevCycles = 0;
    uint64_t minCycles = 0;
    uint64_t maxCycles = 0;
    double meanInstructions = 0;
    /** Sum of per-run wall times (CPU work), in milliseconds. */
    double totalWallMs = 0;

    // --- Trace aggregates (zero when no run was traced) -------------------
    /** Runs whose TraceSummary was enabled. */
    unsigned tracedRuns = 0;
    /** Total events published across traced runs. */
    uint64_t traceEvents = 0;
    /** fence_stall span durations merged across traced runs. */
    Histogram fenceStall;
    /** Epoch async-span durations merged across traced runs. */
    Histogram epochDuration;

    // --- Audit aggregates (zero when no run was audited) -------------------
    /** Runs whose AuditReport was enabled. */
    unsigned auditedRuns = 0;
    /** Audited runs with zero violations. */
    unsigned auditCleanRuns = 0;
    /** Distinct violation findings across audited runs. */
    uint64_t auditFindings = 0;
    /** Violation edges across audited runs. */
    uint64_t auditViolationEdges = 0;
    /** Redundant flushes+fences+pcommits across audited runs. */
    uint64_t auditRedundantBarriers = 0;

    // --- Cycle-account aggregates (zero when no run was accounted) --------
    /** Runs whose CycleAccount was enabled. */
    unsigned accountedRuns = 0;
    /**
     * Per-category cycles and speculation ledger merged across accounted
     * runs, in submission order (bit-identical for any worker count).
     * account.cycles sums the accounted runs' simCycles.
     */
    CycleAccount account;

    /** One-line JSON object with every field above. */
    std::string toJson() const;
};

/** Summarize a whole sweep (or any slice copied out of one). */
SweepSummary summarizeSweep(const std::vector<SweepRunResult> &results);

} // namespace sp

#endif // SP_HARNESS_SWEEP_HH
