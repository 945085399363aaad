/**
 * @file
 * Fault-injection campaign suite (ctest label: robustness).
 *
 * The acceptance criteria of the fault subsystem, asserted mechanically:
 *
 *  - every injected crash -- with torn in-flight writes and jittered
 *    device latencies -- recovers to an image byte-identical to a
 *    functional replay of the recovered transaction boundary, and
 *    interrupted (double/triple-crash) recovery schedules converge to
 *    the same image;
 *  - every conflict run with the watchdog armed completes and ends with
 *    a durable image bit-identical to the golden non-speculative run's
 *    (no abort livelock, no lost transactions);
 *  - identical campaign options produce bit-identical reports at 1 and
 *    8 sweep workers;
 *  - maxCycles and invalid configurations surface as per-cell outcomes,
 *    never process-fatal errors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "harness/campaign.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "pmem/recovery.hh"
#include "sim/fault.hh"

using namespace sp;

namespace
{

/** Small-but-complete campaign over every workload (the ISSUE matrix). */
CampaignOptions
fullMatrixOptions()
{
    CampaignOptions opts;
    opts.crashPoints = 4;
    opts.conflictPeriods = {300, 3000};
    opts.initOps = 250;
    opts.simOps = 25;
    opts.seed = 7;
    return opts;
}

} // namespace

TEST(FaultCampaign, FullMatrixPassesOnAllWorkloads)
{
    CampaignOptions opts = fullMatrixOptions();
    CampaignReport report = runFaultCampaign(opts);

    // 8 workloads x (4 crash points + 2 periods x 3 policies).
    ASSERT_EQ(report.cells.size(), opts.kinds.size() * (4 + 2 * 3));
    EXPECT_EQ(opts.kinds.size(), 8u);

    EXPECT_EQ(report.exceptionCells, 0u);
    EXPECT_EQ(report.maxCyclesCells, 0u);

    // Crash axis: every cell that actually crashed must recover exactly.
    EXPECT_GT(report.recoveryChecked, 0u);
    EXPECT_EQ(report.recoveryMatched, report.recoveryChecked);

    // Conflict axis: every cell completes with a golden-identical image.
    EXPECT_EQ(report.conflictChecked, report.conflictCells);
    EXPECT_EQ(report.conflictMatched, report.conflictChecked);
    for (const CampaignCellResult &cell : report.cells) {
        if (cell.kind != CampaignCellKind::kConflict)
            continue;
        EXPECT_TRUE(cell.outcome == RunOutcome::kOk ||
                    cell.outcome == RunOutcome::kWatchdogDegraded)
            << cell.config << ": " << runOutcomeName(cell.outcome);
        EXPECT_GT(cell.conflictProbes, 0u) << cell.config;
    }

    // The adversary must actually bite somewhere (otherwise the campaign
    // proves nothing): the trailing-writer cells abort speculation.
    EXPECT_GT(report.totalAborts, 0u);
    EXPECT_TRUE(report.passed()) << report.toJson();
}

TEST(FaultCampaign, ReportIsBitIdenticalAcrossWorkerCounts)
{
    CampaignOptions opts;
    opts.kinds = {WorkloadKind::kLinkedList,
                  WorkloadKind::kAvlTreeIncremental};
    opts.crashPoints = 3;
    opts.conflictPeriods = {500};
    opts.policies = {ConflictPolicy::kUniform,
                     ConflictPolicy::kTrailWriter};
    opts.initOps = 200;
    opts.simOps = 20;
    opts.seed = 11;

    opts.workers = 1;
    CampaignReport serial = runFaultCampaign(opts);
    opts.workers = 8;
    CampaignReport parallel = runFaultCampaign(opts);

    ASSERT_EQ(serial.cells.size(), parallel.cells.size());
    EXPECT_EQ(serial.signature(), parallel.signature());
    for (size_t i = 0; i < serial.cells.size(); ++i) {
        EXPECT_EQ(serial.cells[i].outcome, parallel.cells[i].outcome)
            << serial.cells[i].config;
        EXPECT_EQ(serial.cells[i].cycles, parallel.cells[i].cycles);
        EXPECT_EQ(serial.cells[i].aborts, parallel.cells[i].aborts);
        EXPECT_EQ(serial.cells[i].imageHash, parallel.cells[i].imageHash);
    }
    EXPECT_TRUE(serial.passed());
}

TEST(FaultCampaign, SignatureGoldenAcrossStructures)
{
    // Every structure with crash, conflict and media cells and torn
    // writes on, pinned to the signature of the setup-per-run campaign:
    // cells that restore one captured post-setup state, and the
    // interrupted-recovery check that compares images instead of
    // hashing them, must reproduce every outcome field bit for bit.
    CampaignOptions opts;
    opts.crashPoints = 3;
    opts.conflictPeriods = {600};
    opts.policies = {ConflictPolicy::kTrailWriter};
    opts.mediaFaults = true;
    opts.mediaDraws = 1;
    opts.tornWrites = true;
    opts.initOps = 120;
    opts.simOps = 12;
    opts.seed = 2;
    ASSERT_EQ(opts.kinds.size(), 8u);
    for (unsigned workers : {1u, 4u}) {
        SCOPED_TRACE(workers);
        opts.workers = workers;
        CampaignReport report = runFaultCampaign(opts);
        ASSERT_EQ(report.cells.size(), 8u * (3 + 1 + 3));
        EXPECT_GT(report.crashCells, 0u);
        EXPECT_GT(report.conflictCells, 0u);
        EXPECT_GT(report.mediaChecked, 0u);
        EXPECT_EQ(report.signature(), 0x614f71b3400110e8ull);
        EXPECT_TRUE(report.passed()) << report.toJson();
    }
}

TEST(FaultCampaign, CsvAndJsonArtifactsAreWellFormed)
{
    CampaignOptions opts;
    opts.kinds = {WorkloadKind::kLinkedList};
    opts.crashPoints = 2;
    opts.conflictPeriods = {800};
    opts.policies = {ConflictPolicy::kHotSet};
    opts.initOps = 150;
    opts.simOps = 15;
    CampaignReport report = runFaultCampaign(opts);

    std::ostringstream csv;
    report.writeCsv(csv);
    std::string text = csv.str();
    EXPECT_NE(text.find("index,kind,workload,outcome"), std::string::npos);
    // Header + one line per cell.
    EXPECT_EQ(static_cast<size_t>(
                  std::count(text.begin(), text.end(), '\n')),
              report.cells.size() + 1);

    std::string json = report.toJson();
    EXPECT_NE(json.find("\"signature\":"), std::string::npos);
    EXPECT_NE(json.find("\"passed\":true"), std::string::npos);
}

TEST(Watchdog, DegradesUnderTrailingAdversaryAndRearms)
{
    RunConfig cfg;
    cfg.kind = WorkloadKind::kLinkedList;
    cfg.params.seed = 5;
    cfg.params.initOps = 200;
    cfg.params.simOps = 40;
    cfg.params.mode = PersistMode::kLogPSf;
    cfg.sim.sp.enabled = true;
    cfg.sim.fault.conflict.enabled = true;
    cfg.sim.fault.conflict.policy = ConflictPolicy::kTrailWriter;
    cfg.sim.fault.conflict.timing = ConflictTiming::kFixed;
    cfg.sim.fault.conflict.period = 200;
    cfg.sim.fault.conflict.seed = 3;

    RunConfig noWd = cfg;
    RunResult unguarded = runExperiment(noWd);
    ASSERT_TRUE(unguarded.completed);
    ASSERT_GT(unguarded.stats.aborts, 0u)
        << "adversary too weak to abort anything; test proves nothing";

    cfg.sim.fault.watchdog.enabled = true;
    cfg.sim.fault.watchdog.abortThreshold = 2;
    cfg.sim.fault.watchdog.backoffBase = 64;
    cfg.sim.fault.watchdog.fallbackFences = 4;
    RunResult guarded = runExperiment(cfg);
    ASSERT_TRUE(guarded.completed);
    EXPECT_EQ(guarded.outcome, RunOutcome::kWatchdogDegraded);

    // The fallback fired, counted down its K fences, and re-armed.
    EXPECT_GT(guarded.stats.watchdogDegradations, 0u);
    EXPECT_GT(guarded.stats.watchdogRearms, 0u);
    EXPECT_GT(guarded.stats.degradedFences, 0u);
    EXPECT_GT(guarded.stats.watchdogBackoffs, 0u);

    // Degrading skips doomed speculation windows: strictly fewer aborts.
    EXPECT_LT(guarded.stats.aborts, unguarded.stats.aborts);

    // Liveness AND safety: both runs commit every transaction, ending at
    // the same durable state.
    EXPECT_EQ(guarded.durable.hash(), unguarded.durable.hash());
}

TEST(Watchdog, GovernorStateMachine)
{
    WatchdogConfig cfg;
    cfg.enabled = true;
    cfg.abortThreshold = 3;
    cfg.backoffBase = 100;
    cfg.backoffCap = 350;
    cfg.fallbackFences = 2;
    SpecGovernor gov(cfg);

    EXPECT_TRUE(gov.speculationAllowed(0));
    gov.noteAbort(1000);
    EXPECT_EQ(gov.abortStreak(), 1u);
    EXPECT_EQ(gov.backoffUntil(), Tick(1100));
    EXPECT_FALSE(gov.speculationAllowed(1050));
    EXPECT_TRUE(gov.speculationAllowed(1100));

    gov.noteAbort(2000); // backoff doubles
    EXPECT_EQ(gov.backoffUntil(), Tick(2200));
    gov.noteAbort(3000); // streak hits threshold -> degrade, cap at 350
    EXPECT_EQ(gov.backoffUntil(), Tick(3350));
    EXPECT_TRUE(gov.degraded());
    EXPECT_FALSE(gov.speculationAllowed(10000));

    gov.noteFenceRetired(10001);
    EXPECT_TRUE(gov.degraded());
    gov.noteFenceRetired(10002); // K = 2 reached -> re-arm, clean slate
    EXPECT_FALSE(gov.degraded());
    EXPECT_EQ(gov.abortStreak(), 0u);
    EXPECT_TRUE(gov.speculationAllowed(10003));

    // A commit resets the streak before the threshold is reached.
    gov.noteAbort(20000);
    gov.noteAbort(21000);
    gov.noteCommit(22000);
    EXPECT_EQ(gov.abortStreak(), 0u);
    EXPECT_FALSE(gov.degraded());
    EXPECT_TRUE(gov.speculationAllowed(22000));

    // A disabled governor is inert.
    SpecGovernor off{WatchdogConfig{}};
    off.noteAbort(5);
    off.noteAbort(6);
    EXPECT_TRUE(off.speculationAllowed(7));
}

TEST(ConflictInjector, ScheduleIsDeterministicAndInRange)
{
    ConflictInjectConfig cfg;
    cfg.enabled = true;
    cfg.policy = ConflictPolicy::kHotSet;
    cfg.timing = ConflictTiming::kPoisson;
    cfg.period = 500;
    cfg.seed = 42;
    const Addr base = 0x10000000;
    const uint64_t range = 1 << 20;

    ConflictInjector a(cfg, base, range);
    ConflictInjector b(cfg, base, range);
    Tick now = 0;
    for (int i = 0; i < 200; ++i) {
        ASSERT_EQ(a.nextAt(), b.nextAt());
        now = a.nextAt();
        ASSERT_GT(now, Tick(0));
        Addr pa = a.drawProbe(now);
        Addr pb = b.drawProbe(now);
        ASSERT_EQ(pa, pb) << "draw " << i;
        ASSERT_GE(pa, base);
        ASSERT_LT(pa, base + range);
        ASSERT_EQ(pa % kBlockBytes, 0u);
        ASSERT_GT(a.nextAt(), now) << "schedule must advance";
    }
    EXPECT_EQ(a.injected(), 200u);
}

TEST(ConflictInjector, TrailWriterFollowsSpecWrites)
{
    ConflictInjectConfig cfg;
    cfg.enabled = true;
    cfg.policy = ConflictPolicy::kTrailWriter;
    cfg.period = 100;
    cfg.seed = 9;
    ConflictInjector inj(cfg, 0x10000000, 1 << 20);
    inj.noteSpecWrite(0x10004321);
    EXPECT_EQ(inj.drawProbe(inj.nextAt()), blockAlign(Addr(0x10004321)));
    inj.noteSpecWrite(0x100077ff);
    EXPECT_EQ(inj.drawProbe(inj.nextAt()), blockAlign(Addr(0x100077ff)));
}

TEST(RunOutcomes, MaxCyclesIsAReportedOutcomeNotFatal)
{
    RunConfig cfg;
    cfg.kind = WorkloadKind::kLinkedList;
    cfg.params.initOps = 200;
    cfg.params.simOps = 50;
    cfg.params.mode = PersistMode::kLogPSf;
    cfg.sim.maxCycles = 2000;

    RunResult r = runExperiment(cfg);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.outcome, RunOutcome::kMaxCycles);
    EXPECT_GE(r.stats.cycles, cfg.sim.maxCycles);

    // Through the sweep engine: one runaway cell, siblings unaffected.
    RunConfig fine = cfg;
    fine.sim.maxCycles = 0;
    std::vector<RunConfig> grid = {fine, cfg, fine};
    std::vector<SweepRunResult> results = SweepEngine().run(grid);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].outcome, RunOutcome::kOk);
    EXPECT_EQ(results[1].outcome, RunOutcome::kMaxCycles);
    EXPECT_FALSE(results[1].configDesc.empty());
    EXPECT_EQ(results[2].outcome, RunOutcome::kOk);

    SweepSummary summary = summarizeSweep(results);
    EXPECT_EQ(summary.failed, 0u); // no exception: all three ran
    EXPECT_EQ(summary.okRuns, 2u);
    EXPECT_EQ(summary.maxCyclesRuns, 1u);
    ASSERT_EQ(summary.failures.size(), 1u);
    EXPECT_EQ(summary.failures[0].outcome, RunOutcome::kMaxCycles);
    EXPECT_NE(summary.failures[0].config.find("maxCycles"),
              std::string::npos);
    EXPECT_NE(summary.toJson().find("\"maxCyclesRuns\":1"),
              std::string::npos);
}

TEST(RunOutcomes, InvalidConfigSurfacesAsExceptionRecord)
{
    RunConfig bad;
    bad.kind = WorkloadKind::kLinkedList;
    bad.params.initOps = 50;
    bad.params.simOps = 5;
    bad.sim.sp.enabled = true;
    bad.sim.sp.ssbEntries = 0;

    EXPECT_THROW(runExperiment(bad), std::invalid_argument);

    RunConfig fine = bad;
    fine.sim.sp.ssbEntries = 256;
    std::vector<RunConfig> grid = {fine, bad};
    std::vector<SweepRunResult> results = SweepEngine().run(grid);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_EQ(results[1].outcome, RunOutcome::kException);
    EXPECT_NE(results[1].error.find("ssbEntries"), std::string::npos);
    EXPECT_FALSE(results[1].configDesc.empty());

    SweepSummary summary = summarizeSweep(results);
    EXPECT_EQ(summary.failed, 1u);
    EXPECT_EQ(summary.exceptionRuns, 1u);
    ASSERT_EQ(summary.failures.size(), 1u);
    EXPECT_EQ(summary.failures[0].index, 1u);
    EXPECT_NE(summary.failures[0].error.find("ssbEntries"),
              std::string::npos);
}

TEST(RunOutcomes, JitterShiftsDurabilityButPreservesRecovery)
{
    RunConfig cfg;
    cfg.kind = WorkloadKind::kBTree;
    cfg.params.seed = 21;
    cfg.params.initOps = 150;
    cfg.params.simOps = 15;
    cfg.params.mode = PersistMode::kLogPSf;
    cfg.sim.sp.enabled = true;

    RunResult plain = runExperiment(cfg);
    ASSERT_TRUE(plain.completed);

    RunConfig jittered = cfg;
    jittered.sim.fault.crash.pcommitJitterCycles = 200;
    jittered.sim.fault.crash.seed = 4;
    RunResult slow = runExperiment(jittered);
    ASSERT_TRUE(slow.completed);
    // Jitter only ever adds latency, and the final state is unchanged.
    EXPECT_GE(slow.stats.cycles, plain.stats.cycles);
    EXPECT_EQ(slow.durable.hash(), plain.durable.hash());

    // Crash mid-run under jitter + tearing: recovery still exact.
    jittered.sim.fault.crash.tornWrites = true;
    Tick at = plain.stats.cycles / 2;
    RunResult crashed = runExperiment(jittered, at);
    ASSERT_FALSE(crashed.completed);
    recoverImage(crashed.durable);
    uint64_t gen = Workload::generation(crashed.durable);
    auto replay = makeWorkload(cfg.kind, cfg.params);
    replay->setup();
    replay->runFunctionalToGeneration(gen);
    std::string why;
    ASSERT_TRUE(replay->checkImage(crashed.durable, &why)) << why;
    EXPECT_EQ(replay->contents(crashed.durable),
              replay->contents(replay->image()));
}
