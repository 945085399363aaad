/**
 * @file
 * Experiment runner: assembles a full machine (workload + caches + memory
 * controller + core), runs it, and returns the statistics. This is the
 * function every bench, test, and example builds on.
 */

#ifndef SP_HARNESS_RUNNER_HH
#define SP_HARNESS_RUNNER_HH

#include <memory>
#include <string>

#include "mem/mem_image.hh"
#include "sim/audit.hh"
#include "sim/config.hh"
#include "sim/cycle_account.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "workloads/factory.hh"

namespace sp
{

/** One experiment: a workload variant on a machine configuration. */
struct RunConfig
{
    WorkloadKind kind = WorkloadKind::kLinkedList;
    WorkloadParams params;
    SimConfig sim;
    /**
     * Failure injection: probe a random heap block every `probePeriod`
     * cycles (0 = none), modeling coherence traffic from another core.
     */
    Tick probePeriod = 0;
    uint64_t probeSeed = 99;
    /**
     * Tracing knobs. categories == 0 (the default) is tracing fully off;
     * nonzero makes the runner attach a per-run Tracer in summary-only
     * mode (retainEvents = false) unless the caller passes its own
     * tracer to runExperiment(). Tracing never perturbs the simulation:
     * Stats and the durable image are bit-identical either way.
     */
    TraceOptions trace;
    /**
     * Durability-audit knobs. enabled == false (the default) is audit
     * fully off; on, the runner attaches a DurabilityAuditor to the core
     * and fills RunResult::audit. Like tracing, the audit is a pure
     * observer: Stats and the durable image are bit-identical either
     * way. With audit.failOnViolation, runExperiment throws
     * std::runtime_error on a dirty report so sweep cells record it.
     */
    AuditOptions audit;
    /**
     * Cycle-accounting knobs. enabled == false (the default) is
     * accounting fully off; on, the runner attaches a CycleAccountant to
     * the core and fills RunResult::account with the exhaustive CPI
     * stack and speculation ledger. Pure observer like tracing/audit:
     * Stats and the durable image are bit-identical either way.
     */
    AccountOptions account;
};

/**
 * How a run ended. Everything except kException is a normal, reportable
 * result; kException only appears in sweep records (runExperiment itself
 * lets std::invalid_argument from validateRunConfig() propagate).
 */
enum class RunOutcome : uint8_t
{
    /** Ran to completion. */
    kOk,
    /** Stopped at crashAtCycle; durable image is a crash snapshot. */
    kCrashed,
    /** Completed, but the watchdog fell back to non-speculative
     *  execution at least once along the way. */
    kWatchdogDegraded,
    /** Terminated by the cfg.sim.maxCycles safety valve. */
    kMaxCycles,
    /** The run threw; see the sweep record's error string. */
    kException,
    /** The run exceeded the sweep's per-run wall-clock timeout. Appended
     *  after kException so existing outcome encodings (and the verdict
     *  signatures built over them) are unchanged. */
    kTimeout,
};

const char *runOutcomeName(RunOutcome outcome);

/**
 * Perf-infrastructure telemetry, filled for every run: the capacity and
 * high-water mark of each steady-state pool/arena in the machine
 * (fetch queue, ROB, SSB, epoch queue, WPQ, ...), the
 * page-translation-cache hit/miss counters of both memory images, and
 * the WPQ occupancy peaks of the timed run and of the shutdown drain.
 * Collected after the run ends, so it is pure observation -- Stats and
 * the durable image are bit-identical whether anyone reads it or not.
 */
struct PerfTelemetry
{
    std::vector<PoolStat> pools;
    /** Volatile image (functional execution) translation cache. */
    uint64_t volatileTransHits = 0;
    uint64_t volatileTransMisses = 0;
    /** Durable image (NVMM device) translation cache. */
    uint64_t durableTransHits = 0;
    uint64_t durableTransMisses = 0;
    /**
     * Peak WPQ occupancy (queued + on the device, largest controller)
     * during the timed run, and during a completed run's clean-shutdown
     * writeback (0 otherwise). Forced evictions may overfill past
     * MemConfig::wpqEntries; the shutdown pushes every dirty block
     * through at once, so its peak far exceeds the capacity by design.
     */
    uint64_t wpqPeakTimed = 0;
    uint64_t wpqPeakShutdown = 0;
    /**
     * Cycles the core ran through its serial-chain fast path
     * (OooCore::chainFastCycles; counted by the machine that finished
     * the run, so a restored run counts from the restore). Outside every
     * fingerprint: it says how the host simulated, not what.
     */
    uint64_t chainFastCycles = 0;

    /** Human-readable table (spcli --cycle-account, bench reports). */
    void print(std::ostream &os, const std::string &prefix = "") const;
};

/** Everything a run produces. */
struct RunResult
{
    Stats stats;
    /** The durable NVMM image at the end of the run (or at the crash). */
    MemImage durable;
    /** True if the run finished; false if it stopped at crashAtCycle. */
    bool completed = true;
    /** How the run ended (refines `completed`). */
    RunOutcome outcome = RunOutcome::kOk;
    /** Generation counter reached by the volatile (functional) state. */
    uint64_t functionalGeneration = 0;
    /** Condensed trace view (enabled == false when tracing was off). */
    TraceSummary trace;
    /** Durability-audit report (enabled == false when audit was off). */
    AuditReport audit;
    /** Cycle account (enabled == false when accounting was off);
     *  account.cycles == stats.cycles by the finalize() identity. */
    CycleAccount account;
    /** Media faults injected into the crash snapshot (empty when
     *  sim.fault.media is off or the run completed). */
    MediaFaultPlan mediaFaults;
    /** Pool high-water marks and translation-cache counters. */
    PerfTelemetry perf;
};

/**
 * Reject impossible configurations before building the machine.
 *
 * @throws std::invalid_argument so a sweep worker records the cell as
 *         RunOutcome::kException instead of dying on an SP_FATAL deep in
 *         construction.
 */
void validateRunConfig(const RunConfig &cfg);

/** One-line human-readable description (sweep failure records). */
std::string describeRunConfig(const RunConfig &cfg);

/**
 * Run one experiment end to end.
 *
 * @param cfg What to run.
 * @param crashAtCycle If nonzero, stop the machine at this cycle and
 *        return the durable image as a crash snapshot (caches and the WPQ
 *        are lost, exactly as in a power failure).
 * @param tracer Optional caller-owned event bus (e.g. for file export).
 *        When null and cfg.trace.categories != 0 the runner creates a
 *        summary-only tracer internally; either way RunResult::trace is
 *        filled from the tracer's summary.
 * @param setup Optional post-setup state of cfg's (kind, params),
 *        restored instead of running setup() (see Machine).
 */
RunResult runExperiment(const RunConfig &cfg, Tick crashAtCycle = 0,
                        Tracer *tracer = nullptr,
                        const WorkloadSetup *setup = nullptr);

/**
 * Apply SP_OPS / SP_INIT / SP_SEED environment overrides (used by benches
 * so paper-scale runs don't require a rebuild).
 */
void applyEnvOverrides(WorkloadParams &params);

/** Build a RunConfig for a kind/mode/SP combination with bench defaults. */
RunConfig makeRunConfig(WorkloadKind kind, PersistMode mode, bool sp,
                        unsigned ssbEntries = 256, double scale = 1.0);

} // namespace sp

#endif // SP_HARNESS_RUNNER_HH
