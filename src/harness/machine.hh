/**
 * @file
 * Machine: one fully assembled experiment (workload + caches + memory
 * system + core + observers) with a lifetime the caller controls.
 *
 * runExperiment() is a thin wrapper -- construct, run to the limit,
 * finish() -- and is bit-identical to the pre-Machine runner. The class
 * exists for the callers that need more than run-to-completion:
 *
 *  - whole-simulator snapshots: serialize() saves or restores every
 *    stateful component; a Machine constructed with deferSetup (skipping
 *    the functional fast-forward entirely) restores a snapshot and
 *    continues with bit-identical results (spcli --snapshot/--resume);
 *  - sampled measurement: short measured windows at functional offsets
 *    (harness/sampled.hh, runSampledExperiment).
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
     *        until restoreSnapshot(). This is what makes a resume
     *        cheap: it pays construction, not InitOps.
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

    /** Quiescent cut point (OooCore::quiescent): no speculation, open
     *  epoch, fence stall or outstanding flush. */
    bool quiescent() const;

    /** Measured-phase operations generated so far (sampled mode). */
    uint64_t opsGenerated() const;

    /** Statistics accumulated so far (authoritative copy at finish()). */
    const Stats &stats() const { return stats_; }

    /** The config-owned cycle accountant, or null (sampled-mode deltas). */
    const CycleAccountant *accountant() const { return accountant_.get(); }

    /**
     * Save or restore every stateful component (sim/snapshot.hh).
     * Restoring requires the same observer attachment the snapshot was
     * taken with or more: a snapshot with no tracer section restores
     * fine into a machine with a fresh tracer, but a snapshot carrying
     * observer state cannot restore into a machine lacking that
     * observer.
     */
    template <class Ar> void serialize(Ar &ar);

    /** serialize() wrapped in a versioned, config-stamped container. */
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
    std::unique_ptr<CycleAccountant> accountant_;
    std::unique_ptr<ConflictInjector> injector_;
    bool finished_ = false;
    /** PerfTelemetry::setupSeconds and simSeconds, as they accrue. */
    double setupSeconds_ = 0;
    double simSeconds_ = 0;
};

} // namespace sp

#endif // SP_HARNESS_MACHINE_HH
