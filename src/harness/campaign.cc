#include "harness/campaign.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <sstream>

#include "harness/sweep.hh"
#include "pmem/log_format.hh"
#include "pmem/recovery.hh"
#include "sim/logging.hh"

namespace sp
{

const char *
campaignCellKindName(CampaignCellKind kind)
{
    switch (kind) {
      case CampaignCellKind::kCrash:
        return "crash";
      case CampaignCellKind::kConflict:
        return "conflict";
      case CampaignCellKind::kMedia:
        return "media";
    }
    return "?";
}

std::vector<WorkloadKind>
campaignWorkloads()
{
    std::vector<WorkloadKind> kinds = allWorkloadKinds();
    kinds.push_back(WorkloadKind::kAvlTreeIncremental);
    return kinds;
}

namespace
{

/** A recovered crash image and its hash(). */
struct HashedImage
{
    uint64_t generation;
    MemImage image;
    uint64_t hash;
};

/**
 * One structure's post-setup state, shared by every run and replay of
 * that structure and released by the last cell that uses it, so the
 * campaign holds the states of the structures still in flight rather
 * than of all of them.
 *
 * It also keeps the last recovered crash image a cell hashed: crash
 * points before the first committed transaction all recover to the
 * setup's image, and a dense one costs milliseconds to hash. A cell
 * whose recovered image has the same contents reuses the hash, which
 * sameContents() makes exact.
 */
struct SharedSetup
{
    std::unique_ptr<WorkloadSetup> state;
    /** Cells that have yet to finish with `state`. */
    std::atomic<size_t> users{0};

    std::mutex memoLock;
    /** Replaced whole, so a cell compares against its own reference
     *  outside the lock. */
    std::shared_ptr<const HashedImage> memo;

    /** hash() of `img`, recovered to `generation`; `fresh` says it was
     *  computed rather than taken from the memo. */
    uint64_t
    recoveredHash(const MemImage &img, uint64_t generation, bool &fresh)
    {
        std::shared_ptr<const HashedImage> last;
        {
            std::lock_guard<std::mutex> lock(memoLock);
            last = memo;
        }
        fresh = !(last && last->generation == generation &&
                  sameContents(last->image, img));
        return fresh ? img.hash() : last->hash;
    }

    /** Keep a freshly hashed image for the cells after this one. */
    void
    remember(uint64_t generation, MemImage &&img, uint64_t hash)
    {
        auto next = std::make_shared<const HashedImage>(
            HashedImage{generation, std::move(img), hash});
        std::lock_guard<std::mutex> lock(memoLock);
        memo.swap(next); // the old image is freed outside the lock
    }

    void release()
    {
        if (users.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            state.reset();
            std::lock_guard<std::mutex> lock(memoLock);
            memo.reset();
        }
    }
};

/** Per-workload context every cell of that workload shares. */
struct Prep
{
    RunConfig base;
    /** Cycle count of the SP-enabled reference run (grid spacing). */
    Tick refCycles = 0;
    /** Generation the reference run's volatile state reached. */
    uint64_t refGeneration = 0;
    /** Final durable image of the golden non-speculative run (owned by
     *  the campaign's prep results, alive until it returns) and its
     *  hash. */
    const MemImage *golden = nullptr;
    uint64_t goldenHash = 0;
    /** Checksums-on variant (media cells only; unused otherwise). */
    RunConfig csBase;
    Tick csRefCycles = 0;
    uint64_t csRefGeneration = 0;
    /** Post-setup states of base (crash and conflict cells) and csBase
     *  (media cells). */
    SharedSetup setup;
    SharedSetup csSetup;

    SharedSetup &setupFor(CampaignCellKind kind)
    {
        return kind == CampaignCellKind::kMedia ? csSetup : setup;
    }
};

/** One cell of the campaign grid, fully described before execution. */
struct Cell
{
    CampaignCellKind kind;
    size_t prepIndex;
    RunConfig cfg;
    Tick crashAt = 0;
    /** Media cells: seed of the fault plan this cell draws. */
    uint64_t mediaSeed = 0;
};

/**
 * Check a crash cell's recovered image `direct`: interrupted recoveries
 * of the crash image (consumed by the last draw) must converge to it,
 * and it must be the functional replay's image at its generation.
 */
void
checkCrashRecovery(const Prep &prep, const WorkloadSetup &setup,
                   MemImage &&crashImage, const MemImage &direct,
                   unsigned entriesApplied, unsigned doubleCrashDraws,
                   CampaignCellResult &out)
{
    // Crash-during-recovery: a partial pass (logged_bit never cleared),
    // possibly interrupted a second time, then a full pass must converge
    // to exactly the image an uninterrupted recovery produced.
    for (unsigned draw = 1; draw <= doubleCrashDraws; ++draw) {
        MemImage partial = draw < doubleCrashDraws
            ? MemImage(crashImage)
            : std::move(crashImage);
        unsigned k = entriesApplied
            ? (draw * entriesApplied) / (doubleCrashDraws + 1)
            : 0;
        recoverImageInterrupted(partial, k);
        if (k > 1)
            recoverImageInterrupted(partial, k / 2); // triple crash
        recoverImage(partial);
        if (!sameContents(partial, direct)) {
            out.error = "interrupted recovery diverged (draw " +
                std::to_string(draw) + ", k=" + std::to_string(k) + ")";
            return;
        }
    }

    if (out.recoveredGeneration > prep.refGeneration) {
        out.error = "recovered generation " +
            std::to_string(out.recoveredGeneration) +
            " exceeds the reference run's " +
            std::to_string(prep.refGeneration);
        return;
    }

    std::unique_ptr<Workload> replay = setup.instantiate();
    replay->runFunctionalToGeneration(out.recoveredGeneration);
    std::string why;
    if (!replay->checkImage(direct, &why)) {
        out.error = "recovered image invalid: " + why;
        return;
    }
    if (replay->contents(direct) != replay->contents(replay->image())) {
        out.error = "recovered contents differ from the replayed boundary";
        return;
    }
    out.recoveryMatched = true;
}

/**
 * Execute one crash cell: crash, recover (including interrupted
 * double/triple-crash schedules), replay, compare.
 */
void
runCrashCell(const Cell &cell, const Prep &prep, SharedSetup &shared,
             unsigned doubleCrashDraws, CampaignCellResult &out)
{
    const WorkloadSetup &setup = *shared.state;
    RunResult crashed =
        runExperiment(cell.cfg, cell.crashAt, nullptr, &setup);
    out.outcome = crashed.outcome;
    out.cycles = crashed.stats.cycles;
    out.aborts = crashed.stats.aborts;
    out.conflictProbes = crashed.stats.conflictProbes;
    out.watchdogDegradations = crashed.stats.watchdogDegradations;
    if (crashed.outcome != RunOutcome::kCrashed)
        return; // crashAt beyond completion etc.: nothing to recover

    out.recoveryChecked = true;

    MemImage direct = crashed.durable;
    RecoveryResult rec = recoverImage(direct);
    out.recoveredGeneration = Workload::generation(direct);
    bool fresh = false;
    out.imageHash =
        shared.recoveredHash(direct, out.recoveredGeneration, fresh);
    checkCrashRecovery(prep, setup, std::move(crashed.durable), direct,
                       rec.entriesApplied, doubleCrashDraws, out);
    if (fresh)
        shared.remember(out.recoveredGeneration, std::move(direct),
                        out.imageHash);
}

/** Execute one conflict cell: run under the adversary, compare final
 *  durable state against the golden non-speculative run. Comparing the
 *  images is exact and cheaper than hashing a dense one, so only a
 *  mismatch pays for hash(). */
void
runConflictCell(const Cell &cell, const Prep &prep,
                const WorkloadSetup &setup, CampaignCellResult &out)
{
    RunResult r = runExperiment(cell.cfg, 0, nullptr, &setup);
    out.outcome = r.outcome;
    out.cycles = r.stats.cycles;
    out.aborts = r.stats.aborts;
    out.conflictProbes = r.stats.conflictProbes;
    out.watchdogDegradations = r.stats.watchdogDegradations;
    if (!r.completed)
        return; // kMaxCycles: liveness failure, finalStateMatched stays false
    out.finalStateMatched = sameContents(r.durable, *prep.golden);
    out.imageHash =
        out.finalStateMatched ? prep.goldenHash : r.durable.hash();
    if (!out.finalStateMatched)
        out.error = "final durable image differs from the golden run";
}

/**
 * Check a media cell's pristine recovery `clean` against the functional
 * replay, then apply a seeded media-fault plan to the crash image
 * (consumed), run the hardened recovery on it, and count the silent
 * escapes.
 */
void
checkMediaRecovery(const Cell &cell, const Prep &prep,
                   const WorkloadSetup &setup, const CampaignOptions &opts,
                   const RecoveryOptions &ropts, RunResult &crashed,
                   const MemImage &clean, RecoveryVerdict cleanVerdict,
                   CampaignCellResult &out)
{
    if (cleanVerdict == RecoveryVerdict::kUnrecoverable) {
        out.error = "pristine crash image unrecoverable";
        return;
    }
    if (out.recoveredGeneration > prep.csRefGeneration) {
        out.error = "recovered generation " +
            std::to_string(out.recoveredGeneration) +
            " exceeds the reference run's " +
            std::to_string(prep.csRefGeneration);
        return;
    }
    std::unique_ptr<Workload> replay = setup.instantiate();
    replay->runFunctionalToGeneration(out.recoveredGeneration);
    std::string why;
    if (!replay->checkImage(clean, &why)) {
        out.error = "pristine recovered image invalid: " + why;
        return;
    }
    if (replay->contents(clean) != replay->contents(replay->image())) {
        out.error = "pristine recovery missed the replayed boundary";
        return;
    }

    // Faulted twin: a seeded fault plan over the same crash image.
    MediaFaultConfig mcfg;
    mcfg.enabled = true;
    mcfg.faults = opts.mediaFaultCount;
    mcfg.silentFraction = opts.mediaSilentFraction;
    mcfg.scrubInterval = opts.mediaScrubInterval;
    mcfg.seed = cell.mediaSeed;
    MemImage faulted = std::move(crashed.durable);
    MediaFaultPlan plan =
        planMediaFaults(mcfg, faulted, crashed.stats.cycles);
    applyMediaFaults(faulted, plan);
    out.mediaPlanned = plan.faults.size();
    out.mediaApplied = plan.applied();
    out.mediaScrubbed = plan.scrubbed();

    RecoveryReport repF = recoverImageHardened(faulted, ropts);
    out.mediaVerdict = repF.verdict;
    out.mediaDetected = repF.detectedLines.size();
    out.mediaRepaired = repF.linesRepaired;
    out.mediaDegraded = repF.degradedLines.size();
    out.mediaRetries = repF.retries;

    // Bounded-retry liveness: each applied fault corrupts exactly one
    // line, and recovery retries a line at most maxRetries times during
    // verification plus once in the poison sweep.
    out.mediaRetryBounded = repF.retries <=
        out.mediaApplied * (static_cast<uint64_t>(opts.mediaRetries) + 1);

    if (repF.verdict == RecoveryVerdict::kUnrecoverable) {
        // Loud failure: the broken log chain was detected and the image
        // reported unusable, so nothing escaped silently.
        out.mediaNoEscapes = true;
        return;
    }

    // Silent-escape scan.
    for (Addr line : diffLines(faulted, clean)) {
        if (line >= kCrcBase)
            continue; // slot table: derived data, rebuilt or invalidated
        if (line >= kLogEntryBase && line < kLogBase + kLogBytes)
            continue; // log entries are dead once the header clears
        if (std::binary_search(repF.detectedLines.begin(),
                               repF.detectedLines.end(), line))
            continue; // reported (detected or degraded)
        if (crcCovered(line)) {
            uint64_t slot = clean.readInt(crcSlotAddr(line), 8);
            if (!(slot & kCrcSlotValid))
                continue; // not covered in the oracle either: dead data
        }
        ++out.mediaEscapes;
    }
    out.mediaNoEscapes = out.mediaEscapes == 0;
}

/**
 * Execute one media cell: crash a checksummed run, recover the pristine
 * image as the oracle, then apply a seeded media-fault plan to a twin of
 * the same crash image, run the hardened detect-repair-degrade recovery,
 * and require every line that differs from the oracle to be dead or
 * reported -- zero silent escapes.
 */
void
runMediaCell(const Cell &cell, const Prep &prep, SharedSetup &shared,
             const CampaignOptions &opts, CampaignCellResult &out)
{
    const WorkloadSetup &setup = *shared.state;
    RunResult crashed =
        runExperiment(cell.cfg, cell.crashAt, nullptr, &setup);
    out.outcome = crashed.outcome;
    out.cycles = crashed.stats.cycles;
    out.aborts = crashed.stats.aborts;
    out.conflictProbes = crashed.stats.conflictProbes;
    out.watchdogDegradations = crashed.stats.watchdogDegradations;
    if (crashed.outcome != RunOutcome::kCrashed)
        return; // crashAt beyond completion: nothing to corrupt

    out.mediaChecked = true;

    RecoveryOptions ropts;
    ropts.checksums = true;
    ropts.maxRetries = opts.mediaRetries;

    // Oracle: hardened recovery of the pristine crash image must match
    // the functional replay, or the escape scan would diff against
    // garbage. (kDegraded is acceptable here: a crash can leave a
    // reallocated-but-unlogged line half-written, which recovery drops;
    // the replay comparison proves every *live* line is right.)
    MemImage clean = crashed.durable;
    RecoveryReport repClean = recoverImageHardened(clean, ropts);
    out.recoveredGeneration = Workload::generation(clean);
    bool fresh = false;
    out.imageHash =
        shared.recoveredHash(clean, out.recoveredGeneration, fresh);
    checkMediaRecovery(cell, prep, setup, opts, ropts, crashed, clean,
                       repClean.verdict, out);
    if (fresh)
        shared.remember(out.recoveredGeneration, std::move(clean),
                        out.imageHash);
}

} // namespace

CampaignReport
runFaultCampaign(const CampaignOptions &opts)
{
    SP_ASSERT(!opts.kinds.empty(), "campaign needs at least one workload");
    SweepOptions sweepOpts;
    sweepOpts.workers = opts.workers;
    SweepEngine engine(sweepOpts);

    // ---- Phase 1: capture each structure's post-setup state once, then
    // the reference (SP on) + golden (SP off) runs per workload from it.
    std::vector<Prep> preps(opts.kinds.size());
    std::vector<RunConfig> prepCfgs;
    std::vector<SharedSetup *> prepSetups;
    std::vector<std::pair<SharedSetup *, const RunConfig *>> captures;
    for (size_t i = 0; i < opts.kinds.size(); ++i) {
        Prep &prep = preps[i];
        prep.base.kind = opts.kinds[i];
        prep.base.params.seed = opts.seed;
        prep.base.params.initOps = opts.initOps;
        prep.base.params.simOps = opts.simOps;
        prep.base.params.mode = PersistMode::kLogPSf;
        prep.base.sim.sp.enabled = true;

        captures.emplace_back(&prep.setup, &prep.base);
        prepCfgs.push_back(prep.base); // reference
        prepSetups.push_back(&prep.setup);
        RunConfig golden = prep.base;
        golden.sim.sp.enabled = false;
        prepCfgs.push_back(golden);
        prepSetups.push_back(&prep.setup);
        if (opts.mediaFaults) {
            // Media cells run with checksums armed; their crash grid is
            // spaced by this variant's own cycle count (the CRC
            // maintenance stores stretch every transaction).
            prep.csBase = prep.base;
            prep.csBase.params.checksums = true;
            captures.emplace_back(&prep.csSetup, &prep.csBase);
            prepCfgs.push_back(prep.csBase);
            prepSetups.push_back(&prep.csSetup);
        }
    }
    const size_t stride = opts.mediaFaults ? 3 : 2;
    std::vector<SweepRunResult> captured =
        engine.runTasks(captures.size(), [&](size_t c) {
            auto [shared, cfg] = captures[c];
            shared->state =
                std::make_unique<WorkloadSetup>(cfg->kind, cfg->params);
            return RunResult{};
        });
    for (const SweepRunResult &c : captured)
        SP_ASSERT(c.ok, "campaign workload setup threw: ", c.error);
    std::vector<SweepRunResult> prepRuns =
        engine.runTasks(prepCfgs.size(), [&](size_t i) {
            return runExperiment(prepCfgs[i], 0, nullptr,
                                 prepSetups[i]->state.get());
        });
    // Cells compare against the golden image only, so the reference
    // runs' durable images are freed once read.
    for (size_t i = 0; i < preps.size(); ++i) {
        SweepRunResult &ref = prepRuns[stride * i];
        const SweepRunResult &golden = prepRuns[stride * i + 1];
        SP_ASSERT(ref.ok && golden.ok, "campaign reference run threw: ",
                  ref.ok ? golden.error : ref.error);
        preps[i].refCycles = ref.run.stats.cycles;
        preps[i].refGeneration = ref.run.functionalGeneration;
        ref.run.durable.clear();
        preps[i].golden = &golden.run.durable;
        preps[i].goldenHash = golden.run.durable.hash();
        if (opts.mediaFaults) {
            SweepRunResult &cs = prepRuns[stride * i + 2];
            SP_ASSERT(cs.ok, "campaign checksummed reference threw: ",
                      cs.error);
            preps[i].csRefCycles = cs.run.stats.cycles;
            preps[i].csRefGeneration = cs.run.functionalGeneration;
            cs.run.durable.clear();
        }
    }

    // ---- Phase 2: build the cell grid (fixed order = deterministic
    // seeds and indices regardless of how the pool schedules them).
    std::vector<Cell> grid;
    for (size_t p = 0; p < preps.size(); ++p) {
        const Prep &prep = preps[p];

        if (opts.crashPoints > 0) {
            // Log-spaced crash grid over [64, refCycles-1]: dense where
            // log initialization and early transactions live.
            double lo = std::log(64.0);
            double hi = std::log(static_cast<double>(
                prep.refCycles > 65 ? prep.refCycles - 1 : 65));
            for (unsigned i = 0; i < opts.crashPoints; ++i) {
                double t = opts.crashPoints > 1
                    ? lo + (hi - lo) * i / (opts.crashPoints - 1)
                    : (lo + hi) / 2;
                Cell cell;
                cell.kind = CampaignCellKind::kCrash;
                cell.prepIndex = p;
                cell.cfg = prep.base;
                cell.cfg.sim.fault.crash.tornWrites = opts.tornWrites;
                cell.cfg.sim.fault.crash.pcommitJitterCycles =
                    opts.pcommitJitterCycles;
                cell.cfg.sim.fault.crash.seed =
                    opts.seed * 1000003 + grid.size();
                cell.crashAt = static_cast<Tick>(std::exp(t));
                grid.push_back(cell);
            }
        }

        for (Tick period : opts.conflictPeriods) {
            for (ConflictPolicy policy : opts.policies) {
                Cell cell;
                cell.kind = CampaignCellKind::kConflict;
                cell.prepIndex = p;
                cell.cfg = prep.base;
                cell.cfg.sim.fault.conflict.enabled = true;
                cell.cfg.sim.fault.conflict.policy = policy;
                cell.cfg.sim.fault.conflict.timing = opts.timing;
                cell.cfg.sim.fault.conflict.period = period;
                cell.cfg.sim.fault.conflict.seed =
                    opts.seed * 1000003 + grid.size();
                cell.cfg.sim.fault.watchdog = opts.watchdog;
                cell.cfg.sim.maxCycles =
                    prep.refCycles * opts.maxCyclesFactor;
                grid.push_back(cell);
            }
        }

        if (opts.mediaFaults && opts.crashPoints > 0) {
            // Same log-spaced grid as the crash cells, but over the
            // checksummed variant's cycle count; each point draws
            // mediaDraws independent fault plans.
            double lo = std::log(64.0);
            double hi = std::log(static_cast<double>(
                prep.csRefCycles > 65 ? prep.csRefCycles - 1 : 65));
            for (unsigned i = 0; i < opts.crashPoints; ++i) {
                double t = opts.crashPoints > 1
                    ? lo + (hi - lo) * i / (opts.crashPoints - 1)
                    : (lo + hi) / 2;
                for (unsigned draw = 0; draw < opts.mediaDraws; ++draw) {
                    Cell cell;
                    cell.kind = CampaignCellKind::kMedia;
                    cell.prepIndex = p;
                    cell.cfg = prep.csBase;
                    cell.cfg.sim.fault.crash.tornWrites = opts.tornWrites;
                    cell.cfg.sim.fault.crash.pcommitJitterCycles =
                        opts.pcommitJitterCycles;
                    cell.cfg.sim.fault.crash.seed =
                        opts.seed * 1000003 + grid.size();
                    cell.crashAt = static_cast<Tick>(std::exp(t));
                    cell.mediaSeed = opts.seed * 2000003 + grid.size();
                    grid.push_back(cell);
                }
            }
        }
    }

    // Every cell holds its structure's setup state until it finishes; a
    // state no cell uses is released now.
    for (const Cell &cell : grid)
        ++preps[cell.prepIndex].setupFor(cell.kind).users;
    for (Prep &prep : preps) {
        for (SharedSetup *shared : {&prep.setup, &prep.csSetup}) {
            if (shared->users == 0)
                shared->state.reset();
        }
    }

    // ---- Phase 3: execute every cell on the pool. Each task writes its
    // own pre-sized slot, so no locking on the campaign result path.
    CampaignReport report;
    report.cells.resize(grid.size());
    std::vector<SweepRunResult> slots =
        engine.runTasks(grid.size(), [&](size_t i) {
            const Cell &cell = grid[i];
            Prep &prep = preps[cell.prepIndex];
            SharedSetup &shared = prep.setupFor(cell.kind);
            CampaignCellResult &out = report.cells[i];
            out.index = i;
            out.kind = cell.kind;
            out.workload = cell.cfg.kind;
            out.config = describeRunConfig(cell.cfg);
            if (cell.kind == CampaignCellKind::kCrash) {
                out.crashAt = cell.crashAt;
                out.config += " crashAt=" + std::to_string(cell.crashAt);
                runCrashCell(cell, prep, shared, opts.doubleCrashDraws, out);
            } else if (cell.kind == CampaignCellKind::kMedia) {
                out.crashAt = cell.crashAt;
                out.config += " crashAt=" + std::to_string(cell.crashAt) +
                    " mediaSeed=" + std::to_string(cell.mediaSeed);
                runMediaCell(cell, prep, shared, opts, out);
            } else {
                runConflictCell(cell, prep, *shared.state, out);
            }
            // Released only on a normal return: a cell that throws keeps
            // the state alive (for a retry) until the campaign ends.
            shared.release();
            return RunResult{};
        });

    // ---- Phase 4: merge exceptions + wall time, aggregate.
    for (size_t i = 0; i < grid.size(); ++i) {
        CampaignCellResult &cell = report.cells[i];
        cell.wallMs = slots[i].wallMs;
        if (!slots[i].ok) {
            cell.outcome = RunOutcome::kException;
            cell.error = slots[i].error;
        }
        if (cell.kind == CampaignCellKind::kCrash)
            ++report.crashCells;
        else if (cell.kind == CampaignCellKind::kMedia)
            ++report.mediaCells;
        else
            ++report.conflictCells;
        switch (cell.outcome) {
          case RunOutcome::kException:
            ++report.exceptionCells;
            break;
          case RunOutcome::kMaxCycles:
            ++report.maxCyclesCells;
            break;
          default:
            break;
        }
        if (cell.recoveryChecked) {
            ++report.recoveryChecked;
            if (cell.recoveryMatched)
                ++report.recoveryMatched;
        }
        if (cell.kind == CampaignCellKind::kConflict &&
            cell.outcome != RunOutcome::kException) {
            ++report.conflictChecked;
            if (cell.finalStateMatched)
                ++report.conflictMatched;
        }
        if (cell.mediaChecked) {
            ++report.mediaChecked;
            if (cell.mediaNoEscapes && cell.mediaRetryBounded)
                ++report.mediaMatched;
            report.silentEscapes += cell.mediaEscapes;
            report.mediaFaultsApplied += cell.mediaApplied;
            report.mediaFaultsScrubbed += cell.mediaScrubbed;
            report.mediaLinesRepaired += cell.mediaRepaired;
            switch (cell.mediaVerdict) {
              case RecoveryVerdict::kClean:
                ++report.mediaCleanCells;
                break;
              case RecoveryVerdict::kRepaired:
                ++report.mediaRepairedCells;
                break;
              case RecoveryVerdict::kDegraded:
                ++report.mediaDegradedCells;
                break;
              case RecoveryVerdict::kUnrecoverable:
                ++report.mediaUnrecoverableCells;
                break;
            }
        }
        report.totalAborts += cell.aborts;
        report.totalProbes += cell.conflictProbes;
        report.totalWallMs += cell.wallMs;
    }
    return report;
}

bool
CampaignReport::passed() const
{
    return exceptionCells == 0 && maxCyclesCells == 0 &&
        recoveryMatched == recoveryChecked &&
        conflictMatched == conflictChecked &&
        mediaMatched == mediaChecked && silentEscapes == 0;
}

uint64_t
CampaignReport::signature() const
{
    uint64_t h = 1469598103934665603ULL;
    auto byte = [&h](uint8_t b) {
        h ^= b;
        h *= 1099511628211ULL;
    };
    auto word = [&byte](uint64_t v) {
        for (unsigned i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    };
    auto str = [&byte](const std::string &s) {
        for (char c : s)
            byte(static_cast<uint8_t>(c));
        byte(0);
    };
    for (const CampaignCellResult &cell : cells) {
        word(cell.index);
        byte(static_cast<uint8_t>(cell.kind));
        byte(static_cast<uint8_t>(cell.outcome));
        str(cell.config);
        str(cell.error);
        word(cell.crashAt);
        word(cell.cycles);
        word(cell.aborts);
        word(cell.conflictProbes);
        word(cell.watchdogDegradations);
        byte(cell.recoveryChecked ? 1 : 0);
        byte(cell.recoveryMatched ? 1 : 0);
        word(cell.recoveredGeneration);
        byte(cell.finalStateMatched ? 1 : 0);
        word(cell.imageHash);
        byte(cell.mediaChecked ? 1 : 0);
        byte(cell.mediaNoEscapes ? 1 : 0);
        byte(cell.mediaRetryBounded ? 1 : 0);
        byte(static_cast<uint8_t>(cell.mediaVerdict));
        word(cell.mediaPlanned);
        word(cell.mediaApplied);
        word(cell.mediaScrubbed);
        word(cell.mediaDetected);
        word(cell.mediaRepaired);
        word(cell.mediaDegraded);
        word(cell.mediaRetries);
        word(cell.mediaEscapes);
    }
    return h;
}

std::string
CampaignReport::toJson() const
{
    std::ostringstream os;
    os << "{\"cells\":" << cells.size()
       << ",\"crashCells\":" << crashCells
       << ",\"conflictCells\":" << conflictCells
       << ",\"exceptionCells\":" << exceptionCells
       << ",\"maxCyclesCells\":" << maxCyclesCells
       << ",\"recoveryChecked\":" << recoveryChecked
       << ",\"recoveryMatched\":" << recoveryMatched
       << ",\"conflictChecked\":" << conflictChecked
       << ",\"conflictMatched\":" << conflictMatched
       << ",\"mediaCells\":" << mediaCells
       << ",\"mediaChecked\":" << mediaChecked
       << ",\"mediaMatched\":" << mediaMatched
       << ",\"silentEscapes\":" << silentEscapes
       << ",\"mediaCleanCells\":" << mediaCleanCells
       << ",\"mediaRepairedCells\":" << mediaRepairedCells
       << ",\"mediaDegradedCells\":" << mediaDegradedCells
       << ",\"mediaUnrecoverableCells\":" << mediaUnrecoverableCells
       << ",\"mediaFaultsApplied\":" << mediaFaultsApplied
       << ",\"mediaFaultsScrubbed\":" << mediaFaultsScrubbed
       << ",\"mediaLinesRepaired\":" << mediaLinesRepaired
       << ",\"totalAborts\":" << totalAborts
       << ",\"totalProbes\":" << totalProbes
       << ",\"totalWallMs\":" << totalWallMs
       << ",\"passed\":" << (passed() ? "true" : "false")
       << ",\"signature\":\"" << std::hex << signature() << std::dec
       << "\"}";
    return os.str();
}

void
CampaignReport::writeCsv(std::ostream &os) const
{
    os << "index,kind,workload,outcome,crash_at,cycles,aborts,"
          "probes,abort_rate,degradations,recovered_gen,recovery_ok,"
          "final_match,image_hash,media_verdict,media_applied,"
          "media_scrubbed,media_detected,media_repaired,media_degraded,"
          "media_retries,media_escapes,media_ok\n";
    for (const CampaignCellResult &cell : cells) {
        double abortRate = cell.conflictProbes
            ? static_cast<double>(cell.aborts) /
                static_cast<double>(cell.conflictProbes)
            : 0.0;
        os << cell.index << "," << campaignCellKindName(cell.kind) << ","
           << workloadKindName(cell.workload) << ","
           << runOutcomeName(cell.outcome) << "," << cell.crashAt << ","
           << cell.cycles << "," << cell.aborts << ","
           << cell.conflictProbes << "," << abortRate << ","
           << cell.watchdogDegradations << ","
           << cell.recoveredGeneration << ","
           << (cell.recoveryChecked ? (cell.recoveryMatched ? "1" : "0")
                                    : "") << ","
           << (cell.kind == CampaignCellKind::kConflict
                   ? (cell.finalStateMatched ? "1" : "0")
                   : "")
           << "," << std::hex << cell.imageHash << std::dec;
        if (cell.mediaChecked) {
            os << "," << recoveryVerdictName(cell.mediaVerdict) << ","
               << cell.mediaApplied << "," << cell.mediaScrubbed << ","
               << cell.mediaDetected << "," << cell.mediaRepaired << ","
               << cell.mediaDegraded << "," << cell.mediaRetries << ","
               << cell.mediaEscapes << ","
               << (cell.mediaNoEscapes && cell.mediaRetryBounded ? "1"
                                                                 : "0");
        } else {
            os << ",,,,,,,,,";
        }
        os << "\n";
    }
}

} // namespace sp
