/**
 * @file
 * Machine: one fully assembled experiment (workload + caches + memory
 * system + core + observers) with a lifetime the caller controls.
 *
 * runExperiment() is a thin wrapper -- construct, run to the limit,
 * finish() -- and is bit-identical to the pre-Machine runner. The class
 * exists for the callers that need more than run-to-completion:
 *
 *  - whole-simulator snapshots: takeSnapshot() serializes every stateful
 *    component; a Machine constructed with deferSetup (skipping the
 *    functional fast-forward entirely) restores it and continues with
 *    bit-identical results (harness/slice.hh, spcli --snapshot/--resume);
 *  - slice-parallel replay: the producer advances between quiescent cut
 *    points and snapshots each one while trailing workers replay slices
 *    with observers attached (harness/slice.hh);
 *  - sampled measurement: short measured windows at functional offsets
 *    (harness/slice.hh, runSampledExperiment).
 *
 * Snapshot contract (enforced by tests/test_snapshot.cc): for any run R
 * and any tick T on R's step trajectory, snapshot-at-T + restore + run to
 * completion produces byte-identical Stats, durable-image hash,
 * TraceSummary, audit report, and cycle account to the uninterrupted run.
 */

#ifndef SP_HARNESS_MACHINE_HH
#define SP_HARNESS_MACHINE_HH

#include <memory>

#include "harness/runner.hh"
#include "sim/snapshot.hh"

namespace sp
{

class CacheHierarchy;
class MemSystem;
class OooCore;

/** One assembled experiment; see the file comment. */
class Machine
{
  public:
    /**
     * Assemble the machine exactly as runExperiment() always has:
     * workload, functional setup, initial durable image, memory system,
     * caches, core, observers, probes, injector.
     *
     * @param cfg The experiment; validated here.
     * @param tracer Caller-owned event bus; when null and
     *        cfg.trace.categories != 0 a summary-only tracer is created
     *        internally (the runExperiment contract).
     * @param deferSetup Skip the functional fast-forward (setup()) and
     *        the initial durable-image copy; the machine is not runnable
     *        until restoreSnapshot(). This is what makes slice replay
     *        cheap: a worker pays construction, not InitOps.
     * @param setup Captured post-setup state of exactly cfg's (kind,
     *        params), restored instead of running setup(); the durable
     *        image is then copied as usual, so the run is bit-identical.
     *        Mismatched (kind, params) or combining it with deferSetup
     *        is an assertion failure.
     */
    explicit Machine(const RunConfig &cfg, Tracer *tracer = nullptr,
                     bool deferSetup = false,
                     const WorkloadSetup *setup = nullptr);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Run until `cycleLimit` or completion; true when complete. */
    bool runUntil(Tick cycleLimit);

    Tick now() const;
    bool done() const;

    /** Quiescent cut point (OooCore::quiescent); slice boundaries only
     *  happen here so per-slice observer results merge exactly. */
    bool quiescent() const;

    /** Measured-phase operations generated so far (sampled mode). */
    uint64_t opsGenerated() const;

    /** Statistics accumulated so far (authoritative copy at finish()). */
    const Stats &stats() const { return stats_; }

    /** The attached cycle accountant, or null (sampled-mode deltas). */
    CycleAccountant *accountant() { return accountant_; }

    /**
     * Attach a per-slice cycle accountant (caller-owned; null detaches).
     * Replaces any config-owned accountant on the core; used by slice
     * replay, where each slice accounts separately and the accounts are
     * summed in slice order.
     */
    void setAccountant(CycleAccountant *accountant);

    /**
     * Attach a caller-owned tracer (null detaches), replacing any
     * config-owned one. Attach BEFORE restore(): the core re-derives its
     * interval-sampler schedule from the tracer attached at restore
     * time.
     */
    void setTracer(Tracer *tracer);

    /**
     * Serialize / restore every stateful component. Restoring requires
     * the same observer attachment the snapshot was taken with or fewer
     * (a snapshot with no tracer section restores fine into a machine
     * with a fresh tracer -- the slice-replay case -- but a snapshot
     * carrying observer state cannot restore into a machine lacking
     * that observer).
     */
    void save(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);

    /** save() wrapped in a versioned, config-stamped container. */
    SimSnapshot takeSnapshot() const;

    /** Restore; throws SnapshotError on config or layout mismatch. */
    void restoreSnapshot(const SimSnapshot &snap);

    /**
     * End the machine's life and assemble the RunResult exactly as
     * runExperiment() always has: clean-shutdown writeback (or crash
     * semantics, torn writes, media faults), observer finalization,
     * pool/translation telemetry. The durable image is moved out; the
     * machine must not be used afterwards.
     *
     * @param crashAtCycle The crash cycle the run was limited to, or 0;
     *        only consulted when the run did not complete.
     */
    RunResult finish(Tick crashAtCycle = 0);

  private:
    RunConfig cfg_;
    std::unique_ptr<Tracer> ownedTracer_;
    Tracer *tracer_ = nullptr;
    std::unique_ptr<Workload> workload_;
    Stats stats_;
    MemImage durable_;
    std::unique_ptr<MemSystem> mc_;
    std::unique_ptr<CacheHierarchy> caches_;
    std::unique_ptr<OooCore> core_;
    std::unique_ptr<DurabilityAuditor> auditor_;
    std::unique_ptr<CycleAccountant> ownedAccountant_;
    CycleAccountant *accountant_ = nullptr;
    std::unique_ptr<ConflictInjector> injector_;
    bool finished_ = false;
};

} // namespace sp

#endif // SP_HARNESS_MACHINE_HH
