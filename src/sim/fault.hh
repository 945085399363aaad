/**
 * @file
 * Deterministic fault injection: adversarial conflict traffic, crash-time
 * corruption, and the forward-progress watchdog.
 *
 * The paper's correctness story rests on its failure paths -- external
 * coherence probes that hit the BLT must roll back to the oldest
 * checkpoint (Section 4.2.2), and a crash at any cycle must leave an
 * image the undo log can recover (Section 3.1). Happy-path benchmarks
 * exercise neither systematically, so this module supplies three injector
 * families, all seeded from the run configuration and therefore
 * bit-reproducible for any sweep worker count:
 *
 *  - ConflictInjector: a configurable adversary that fires external
 *    coherence probes at addresses drawn from the workload's footprint.
 *    Policies range from background noise (uniform) through contended
 *    metadata (hot-set) to a worst case that probes the block the core
 *    just wrote speculatively (trailing-the-writer), which defeats the
 *    Bloom filter's sparseness and aborts almost every window.
 *
 *  - CrashInjectConfig: extends the crash model beyond "all volatile
 *    state vanishes atomically": writes in flight on an NVMM bank may be
 *    torn at 8-byte granularity (the architectural atomicity unit), and
 *    per-write device latency may jitter so pcommit completion times --
 *    and hence which state is durable at a given crash cycle -- shift
 *    between campaign cells.
 *
 *  - SpecGovernor: a per-core watchdog that detects abort livelock (N
 *    consecutive aborts with no successful speculation commit), responds
 *    with bounded exponential backoff on re-speculation, then falls back
 *    to non-speculative execution for K fences before re-arming. All
 *    transitions are counted in Stats and published on the trace bus.
 *
 * Configuration structs are plain data (embedded in SimConfig, and hence
 * in RunConfig) so campaigns can sweep them like any other parameter.
 */

#ifndef SP_SIM_FAULT_HH
#define SP_SIM_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace sp
{

class MemImage;
class Stats;
class Tracer;

/** Where the conflict adversary aims its probes. */
enum class ConflictPolicy : uint8_t
{
    /** Uniformly random blocks across the footprint (background noise). */
    kUniform,
    /** Mostly the hot window at the footprint base (metadata + log
     *  header -- blocks every transaction writes), rest uniform. */
    kHotSet,
    /** The block most recently written speculatively by the core; the
     *  worst case the BLT can face, aborting nearly every window. */
    kTrailWriter,
};

/** When the conflict adversary fires. */
enum class ConflictTiming : uint8_t
{
    /** Every `period` cycles exactly. */
    kFixed,
    /** Poisson process with mean inter-arrival `period` (models another
     *  core's bursty coherence traffic). */
    kPoisson,
};

const char *conflictPolicyName(ConflictPolicy policy);
const char *conflictTimingName(ConflictTiming timing);

/** Parse "uniform" / "hotset" / "trail"; fatal on unknown (user input). */
ConflictPolicy parseConflictPolicy(const std::string &name);

/** Conflict-injection adversary parameters. */
struct ConflictInjectConfig
{
    bool enabled = false;
    ConflictPolicy policy = ConflictPolicy::kUniform;
    ConflictTiming timing = ConflictTiming::kFixed;
    /** Inter-probe interval in cycles (mean when timing is kPoisson). */
    Tick period = 2000;
    /** Injector RNG seed; same seed -> same probe schedule. */
    uint64_t seed = 1;
    /** kHotSet: probability a probe targets the hot window. */
    double hotFraction = 0.9;
    /** kHotSet: hot-window size in bytes at the footprint base. */
    uint64_t hotBytes = 4096;
    /** Probe footprint; base 0 means "let the runner pick the region
     *  speculative writes live in" (metadata + log + early heap). */
    Addr footprintBase = 0;
    uint64_t footprintBytes = 0;
};

/** Crash-model extensions beyond the atomic-stop snapshot. */
struct CrashInjectConfig
{
    /**
     * At the crash cycle, commit a pseudo-random subset of the 8-byte
     * words of every write in flight on an NVMM bank into the durable
     * image (a torn cache-line write). 8-byte words themselves stay
     * atomic, matching the architectural guarantee the WAL protocol
     * assumes.
     */
    bool tornWrites = false;
    /**
     * Maximum extra cycles of deterministic jitter added to each NVMM
     * write's device latency (0 = off). Shifts pcommit completion times
     * so crash cells sample different durability frontiers.
     */
    unsigned pcommitJitterCycles = 0;
    /** Seed for tearing word selection and latency jitter. */
    uint64_t seed = 1;
};

/** What a media fault does to its target line. */
enum class MediaFaultKind : uint8_t
{
    /** One bit of the line flips (classic retention loss). */
    kBitFlip,
    /** Three spread bits flip (beyond single-bit ECC correction). */
    kMultiBitFlip,
    /** One 8-byte word sticks at all-zeros or all-ones (worn cells). */
    kStuckWord,
    /** One 8-byte word holds pseudo-random residue of an older write
     *  (a torn word that never completed re-programming). */
    kTornResidue,
};

/** How the fault surfaces to software. */
enum class MediaFaultClass : uint8_t
{
    /** The device ECC word no longer matches: reads of the line raise a
     *  MediaFault signal (modelled as image poison). */
    kEccDetectable,
    /** The corruption slips past device ECC; only software checksums or
     *  semantic checks can catch it. */
    kSilent,
};

const char *mediaFaultKindName(MediaFaultKind kind);
const char *mediaFaultClassName(MediaFaultClass cls);

/** NVMM media-fault injection parameters (applied at crash time). */
struct MediaFaultConfig
{
    bool enabled = false;
    /** Fault draws per crash image. */
    unsigned faults = 4;
    /** Probability a draw is kSilent (0 = all ECC-detectable, 1 = all
     *  silent). */
    double silentFraction = 0.5;
    /**
     * Optional background scrubber period in cycles (0 = off). A fault
     * whose arrival tick precedes the last scrub boundary before the
     * crash is corrected by the scrubber -- if it is ECC-detectable.
     * Silent faults always survive scrubbing.
     */
    Tick scrubInterval = 0;
    /** Fault-schedule seed; the plan is a pure function of (seed,
     *  resident footprint, crash tick). */
    uint64_t seed = 1;
};

/** One planned media fault. */
struct MediaFault
{
    /** Target 64B line (block-aligned). */
    Addr line = 0;
    MediaFaultKind kind = MediaFaultKind::kBitFlip;
    MediaFaultClass cls = MediaFaultClass::kEccDetectable;
    /** Cycle the cell degraded (relative to the run; < crash tick). */
    Tick arrivalTick = 0;
    /** RNG material selecting bits / words / patterns inside the line. */
    uint64_t payload = 0;
    /** Corrected by the scrub clock before the crash; not applied. */
    bool scrubbed = false;
};

/** Deterministic media-fault schedule for one crash image. */
struct MediaFaultPlan
{
    std::vector<MediaFault> faults;

    /** Draws the scrubber corrected before the crash. */
    unsigned scrubbed() const;

    /** Draws actually applied to the image. */
    unsigned applied() const;
};

/**
 * Plan the media faults for one crash snapshot. Pure function of the
 * config, the image's resident footprint, and the crash tick, so every
 * sweep worker (and every re-run) produces the identical plan. Targets
 * are drawn from resident lines of the metadata, log, and covered-heap
 * regions; the CRC slot table itself is exempt (slot corruption is
 * exercised by dedicated unit tests, keeping campaign verdicts sharp).
 */
MediaFaultPlan planMediaFaults(const MediaFaultConfig &cfg,
                               const MemImage &durable, Tick crashTick);

/**
 * Mutate `image` per the plan: flip/stick/shred the planned bytes and
 * mark ECC-detectable targets as poisoned. Scrubbed faults are skipped.
 */
void applyMediaFaults(MemImage &image, const MediaFaultPlan &plan);

/** Forward-progress watchdog parameters. */
struct WatchdogConfig
{
    bool enabled = false;
    /** Consecutive aborts with no speculation commit before the core
     *  falls back to non-speculative execution. */
    unsigned abortThreshold = 4;
    /** First re-speculation backoff after an abort, in cycles. */
    Tick backoffBase = 256;
    /** Bound on the exponential backoff. */
    Tick backoffCap = 16384;
    /** Fences retired non-speculatively while degraded before the
     *  watchdog re-arms speculation (the K of the contract). */
    unsigned fallbackFences = 8;
};

/** All fault-injection knobs of one run. */
struct FaultConfig
{
    ConflictInjectConfig conflict;
    CrashInjectConfig crash;
    WatchdogConfig watchdog;
    MediaFaultConfig media;
};

/**
 * Deterministic conflict adversary. The core asks `due()` each cycle it
 * processes probes, draws the target with `drawProbe()` (which schedules
 * the next firing), and feeds `noteSpecWrite()` so the trailing-the-
 * writer policy always has a fresh target. All draws come from a
 * splitmix-seeded xoshiro state owned by the injector, so a given
 * (config, footprint) pair replays the identical probe schedule on any
 * sweep worker.
 */
class ConflictInjector
{
  public:
    ConflictInjector(const ConflictInjectConfig &cfg, Addr footprintBase,
                     uint64_t footprintBytes);

    /** Earliest tick a probe is pending for. */
    Tick nextAt() const { return nextAt_; }

    /** A probe is due at or before `now`. */
    bool due(Tick now) const { return nextAt_ <= now; }

    /** Target block of the probe due now; schedules the next firing. */
    Addr drawProbe(Tick now);

    /** Trailing-the-writer hook: the core's latest speculative store. */
    void noteSpecWrite(Addr addr)
    {
        lastWriterBlock_ = blockAlign(addr);
        haveWriter_ = true;
    }

    /** Probes delivered so far. */
    uint64_t injected() const { return injected_; }

    /**
     * Snapshot serializer. The section is the object's own byte layout,
     * with its padding written as zeros.
     */
    template <class Ar> void serialize(Ar &ar);

  private:
    ConflictInjectConfig cfg_;
    Addr base_;
    uint64_t range_;
    uint64_t state_;
    Tick nextAt_;
    Addr lastWriterBlock_ = 0;
    bool haveWriter_ = false;
    uint64_t injected_ = 0;

    uint64_t draw();
    Tick interval();
};

/**
 * Forward-progress watchdog ("speculation governor").
 *
 * Tracks the abort streak between successful speculation commits. Every
 * abort arms a bounded exponential backoff window during which the core
 * may not re-enter speculation (the stalled fence simply waits, which is
 * the non-speculative semantics and always terminates). When the streak
 * reaches the configured threshold, the governor degrades: speculation
 * stays disabled for the next K retired fences, then re-arms with a
 * clean slate. Transitions are counted in Stats and published as
 * kTraceSpec instants (watchdog_backoff / watchdog_degrade /
 * watchdog_rearm), so campaigns can assert liveness mechanically.
 *
 * A disabled governor (enabled == false, the default) always allows
 * speculation and never touches Stats, keeping baseline runs
 * bit-identical to pre-watchdog builds.
 */
class SpecGovernor
{
  public:
    explicit SpecGovernor(const WatchdogConfig &cfg) : cfg_(cfg) {}

    /** Attach sinks (either may be null). */
    void attach(Stats *stats, Tracer *tracer)
    {
        stats_ = stats;
        tracer_ = tracer;
    }

    /** May the core enter speculation at `now`? */
    bool speculationAllowed(Tick now) const
    {
        if (!cfg_.enabled)
            return true;
        return degradedRemaining_ == 0 && now >= backoffUntil_;
    }

    /** An abort happened at `now`: extend backoff, maybe degrade. */
    void noteAbort(Tick now);

    /** A speculative episode committed: reset the streak and backoff. */
    void noteCommit(Tick now);

    /** A fence retired non-speculatively (counts down the K window). */
    void noteFenceRetired(Tick now);

    /** In the fallen-back (speculation-disabled) state right now? */
    bool degraded() const { return degradedRemaining_ > 0; }

    /** Consecutive aborts since the last commit / re-arm. */
    unsigned abortStreak() const { return streak_; }

    /** Tick until which re-speculation is backed off. */
    Tick backoffUntil() const { return backoffUntil_; }

    /**
     * Snapshot serializer: the three mutable fields only. Config and sink
     * pointers are rebuilt by the owner; attach() runs before restore.
     */
    template <class Ar> void serialize(Ar &ar);

  private:
    WatchdogConfig cfg_;
    Stats *stats_ = nullptr;
    Tracer *tracer_ = nullptr;
    unsigned streak_ = 0;
    Tick backoffUntil_ = 0;
    unsigned degradedRemaining_ = 0;
};

} // namespace sp

#endif // SP_SIM_FAULT_HH
