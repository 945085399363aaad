/**
 * @file
 * Fault-injection campaigns: adversarial conflict and crash matrices with
 * mechanical pass/fail verdicts.
 *
 * A campaign turns the fault injectors (sim/fault.hh) into a repeatable
 * experiment: for every workload it captures the post-setup workload
 * state once (WorkloadSetup, plus a checksummed variant for media
 * cells), derives a reference run and a non-speculative golden run from
 * it, then executes a grid of fault cells on the SweepEngine --
 *
 *  - crash cells: stop the machine at log-spaced cycles (optionally with
 *    write-latency jitter and torn cache-line writes), run undo-log
 *    recovery -- including interrupted double/triple-crash schedules --
 *    and require the recovered image to equal a functional replay to the
 *    recovered transaction boundary;
 *
 *  - conflict cells: run to completion under an injected-probe adversary
 *    (policy x period grid) with the forward-progress watchdog armed,
 *    and require completion plus a final durable image bit-identical
 *    (MemImage::hash) to the golden non-speculative run's.
 *
 * Every run and every functional replay of a workload restores that
 * one captured state instead of re-running setup(), which is
 * bit-identical and leaves the campaign's cost in simulation and
 * recovery; each state is released once the last cell of its workload
 * finishes.
 *
 * Determinism is part of the contract: CampaignReport::signature() is a
 * pure function of cell outcomes (wall time excluded), and identical
 * options must produce identical signatures for any worker count.
 */

#ifndef SP_HARNESS_CAMPAIGN_HH
#define SP_HARNESS_CAMPAIGN_HH

#include <ostream>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "pmem/recovery.hh"

namespace sp
{

/** Which fault family a campaign cell exercises. */
enum class CampaignCellKind : uint8_t
{
    kCrash,
    kConflict,
    /** Crash + NVMM media corruption + hardened recovery (checksums on). */
    kMedia,
};

const char *campaignCellKindName(CampaignCellKind kind);

/**
 * The workload set campaigns default to: the seven Table 1 benchmarks
 * plus AT-inc (incremental logging), whose many small transactions put
 * the most crash points inside transaction bodies.
 */
std::vector<WorkloadKind> campaignWorkloads();

/** Everything that parameterizes one campaign. */
struct CampaignOptions
{
    std::vector<WorkloadKind> kinds = campaignWorkloads();

    // --- Crash axis -------------------------------------------------------
    /** Log-spaced crash points per workload (0 disables crash cells). */
    unsigned crashPoints = 6;
    /** Tear in-flight NVMM writes at 8-byte granularity at the crash. */
    bool tornWrites = true;
    /** Max extra cycles of per-write NVMM latency jitter (0 = off). */
    unsigned pcommitJitterCycles = 64;
    /** Interrupted-recovery (double/triple-crash) schedules verified per
     *  crash cell. */
    unsigned doubleCrashDraws = 2;

    // --- Conflict axis ----------------------------------------------------
    /** Adversary inter-probe periods (0 entries disables conflict cells). */
    std::vector<Tick> conflictPeriods = {400, 4000};
    std::vector<ConflictPolicy> policies = {
        ConflictPolicy::kUniform,
        ConflictPolicy::kHotSet,
        ConflictPolicy::kTrailWriter,
    };
    ConflictTiming timing = ConflictTiming::kPoisson;
    /** Watchdog armed for conflict cells (liveness under the adversary). */
    WatchdogConfig watchdog{true, 4, 256, 16384, 8};
    /** Safety valve for conflict cells, as a multiple of the reference
     *  run's cycle count. */
    Tick maxCyclesFactor = 50;

    // --- Media-fault axis -------------------------------------------------
    /**
     * Inject NVMM media faults into crash images and verify the hardened
     * detect-repair-degrade recovery (pmem/recovery.hh). Media cells run
     * the workload with checksums enabled, crash it on the same
     * log-spaced grid as crash cells, then recover the image twice: once
     * pristine (the oracle) and once after a seeded media-fault plan.
     * The verdict is mechanical: every line that differs between the two
     * recovered images must have been reported by recovery (detected or
     * degraded) -- zero silent-corruption escapes -- and the retry
     * counter must stay within the bounded-retry contract. Requires
     * crashPoints > 0 to generate any cells.
     */
    bool mediaFaults = false;
    /** Faults per media cell's plan. */
    unsigned mediaFaultCount = 3;
    /** Fraction of faults that corrupt silently (no ECC signal). */
    double mediaSilentFraction = 0.5;
    /** Patrol-scrubber period in cycles (0 = no scrubber). */
    Tick mediaScrubInterval = 0;
    /** Independent fault-plan draws per crash point. */
    unsigned mediaDraws = 2;
    /** Bounded-retry budget handed to hardened recovery. */
    unsigned mediaRetries = 2;

    // --- Shared -----------------------------------------------------------
    /** Master seed; every injector seed derives from it and a cell index. */
    uint64_t seed = 1;
    /** SweepEngine workers (0 = automatic). */
    unsigned workers = 0;
    /** Workload sizing (small defaults: campaigns multiply runs). */
    uint64_t initOps = 250;
    uint64_t simOps = 25;
};

/** One executed campaign cell. */
struct CampaignCellResult
{
    size_t index = 0;
    CampaignCellKind kind = CampaignCellKind::kCrash;
    WorkloadKind workload = WorkloadKind::kLinkedList;
    /** describeRunConfig() of the cell (always filled). */
    std::string config;
    RunOutcome outcome = RunOutcome::kOk;
    /** Exception what() when outcome == kException. */
    std::string error;

    Tick crashAt = 0;
    Tick cycles = 0;
    uint64_t aborts = 0;
    uint64_t conflictProbes = 0;
    uint64_t watchdogDegradations = 0;

    // --- Crash cells ------------------------------------------------------
    /** Recovery + replay comparison ran to a verdict. */
    bool recoveryChecked = false;
    /** Verdict: recovered image valid, equal to the replayed boundary,
     *  and invariant under interrupted-recovery schedules. */
    bool recoveryMatched = false;
    uint64_t recoveredGeneration = 0;

    // --- Conflict cells ---------------------------------------------------
    /** Final durable image equals the golden non-speculative run's. */
    bool finalStateMatched = false;

    // --- Media cells ------------------------------------------------------
    /** The cell reached the corruption experiment (the run crashed). */
    bool mediaChecked = false;
    /** Verdict: no unreported (silent) line escaped into live data. */
    bool mediaNoEscapes = false;
    /** Verdict: retries stayed within the bounded-retry contract. */
    bool mediaRetryBounded = false;
    /** Hardened-recovery verdict on the faulted image. */
    RecoveryVerdict mediaVerdict = RecoveryVerdict::kClean;
    uint64_t mediaPlanned = 0;
    uint64_t mediaApplied = 0;
    uint64_t mediaScrubbed = 0;
    uint64_t mediaDetected = 0;
    uint64_t mediaRepaired = 0;
    uint64_t mediaDegraded = 0;
    uint64_t mediaRetries = 0;
    /** Live lines that differ from the oracle without being reported. */
    uint64_t mediaEscapes = 0;

    /** Hash of the recovered (crash) or final (conflict) durable image. */
    uint64_t imageHash = 0;
    /** Wall-clock time of the cell (excluded from signature()). */
    double wallMs = 0;
};

/** Aggregate verdict of a campaign. */
struct CampaignReport
{
    std::vector<CampaignCellResult> cells;

    unsigned crashCells = 0;
    unsigned conflictCells = 0;
    unsigned exceptionCells = 0;
    unsigned maxCyclesCells = 0;
    unsigned recoveryChecked = 0;
    unsigned recoveryMatched = 0;
    unsigned conflictChecked = 0;
    unsigned conflictMatched = 0;
    unsigned mediaCells = 0;
    unsigned mediaChecked = 0;
    /** Media cells with zero silent escapes AND bounded retries. */
    unsigned mediaMatched = 0;
    /** Sum of per-cell silent escapes (the headline must be zero). */
    uint64_t silentEscapes = 0;
    // Hardened-recovery verdict counts across checked media cells.
    unsigned mediaCleanCells = 0;
    unsigned mediaRepairedCells = 0;
    unsigned mediaDegradedCells = 0;
    unsigned mediaUnrecoverableCells = 0;
    uint64_t mediaFaultsApplied = 0;
    uint64_t mediaFaultsScrubbed = 0;
    uint64_t mediaLinesRepaired = 0;
    uint64_t totalAborts = 0;
    uint64_t totalProbes = 0;
    double totalWallMs = 0;

    /**
     * The campaign's acceptance criterion: no exception or max-cycles
     * cells, every crash cell recovered exactly, every conflict cell
     * completed with a golden-identical final image, and every media
     * cell free of silent escapes with bounded recovery retries.
     */
    bool passed() const;

    /**
     * Deterministic digest of every cell's outcome fields (wall time
     * excluded). Identical options must yield identical signatures for
     * any worker count -- the campaign determinism test compares these.
     */
    uint64_t signature() const;

    /** One-line JSON summary (counts + signature + failures). */
    std::string toJson() const;

    /** Per-cell CSV (abort rates, recovery verdicts) for artifacts. */
    void writeCsv(std::ostream &os) const;
};

/** Run a full campaign; cells execute in parallel on the SweepEngine. */
CampaignReport runFaultCampaign(const CampaignOptions &opts);

} // namespace sp

#endif // SP_HARNESS_CAMPAIGN_HH
