/**
 * @file
 * Durability-audit tests: the happens-before-durable checker itself
 * (hand-built op streams with known verdicts), golden clean audits for
 * every campaign workload, the audit-never-perturbs-the-run bit-identity
 * contract (single runs and an 8-worker sweep), and the
 * SweepFailureRecord path for auditor exceptions inside a sweep.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/campaign.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "sim/audit.hh"
#include "sim/trace.hh"

using namespace sp;

namespace
{

constexpr Addr kA = 0x10000000; // ctrl 0 under 2-way interleave
constexpr Addr kB = 0x10000040; // ctrl 1
constexpr Addr kC = 0x10000080; // ctrl 0
constexpr Addr kD = 0x100000c0; // ctrl 1

/** Feed a hand-built stream; op index == position, tick = 10 * index. */
AuditReport
auditStream(const std::vector<MicroOp> &ops, unsigned numMemCtrls = 1,
            AuditOptions opts = {})
{
    opts.enabled = true;
    DurabilityAuditor aud(opts, numMemCtrls);
    uint64_t idx = 0;
    for (const MicroOp &op : ops) {
        aud.observe(op, idx, idx * 10);
        ++idx;
    }
    return aud.finalize();
}

std::vector<MicroOp>
barrier()
{
    return {MicroOp::sfence(), MicroOp::pcommit(), MicroOp::sfence()};
}

void
append(std::vector<MicroOp> &ops, const std::vector<MicroOp> &tail)
{
    ops.insert(ops.end(), tail.begin(), tail.end());
}

/** Full-fidelity fingerprint of a run: every stat plus the NVMM hash. */
std::string
fingerprint(const RunResult &r)
{
    return statsCsvRow("fp", r.stats) + "#" +
        std::to_string(r.durable.hash()) + "#" +
        std::to_string(r.functionalGeneration);
}

} // namespace

// ==========================================================================
// The checker on hand-built streams
// ==========================================================================

TEST(AuditChecker, MissingClwbFlaggedAtExactStorePC)
{
    std::vector<MicroOp> ops;
    ops.push_back(MicroOp::store(kA, 1, 8)); // op 0
    ops.push_back(MicroOp::clwb(kA));        // op 1
    append(ops, barrier());                  // ops 2-4, epoch 1
    ops.push_back(MicroOp::store(kB, 2, 8)); // op 5: never flushed
    append(ops, barrier());                  // ops 6-8, epoch 2
    ops.push_back(MicroOp::store(kC, 3, 8)); // op 9
    ops.push_back(MicroOp::clwb(kC));        // op 10: the witness flush

    AuditReport rep = auditStream(ops);
    EXPECT_FALSE(rep.clean());
    ASSERT_EQ(rep.findings.size(), 1u);
    const AuditFinding &f = rep.findings[0];
    EXPECT_EQ(f.kind, AuditFindingKind::kUnorderedStore);
    EXPECT_EQ(f.line, blockAlign(kB));
    EXPECT_EQ(f.storeOp, 5u) << "finding must name the exact store PC";
    EXPECT_EQ(f.storeEpoch, 1u);
    EXPECT_EQ(f.witnessLine, blockAlign(kC));
    EXPECT_EQ(f.witnessOp, 9u);
    EXPECT_EQ(f.witnessEpoch, 2u);
    EXPECT_EQ(f.flushOp, 10u);
    EXPECT_EQ(f.firstTick, 100u);
    EXPECT_EQ(f.resolvedOp, 0u) << "kB is never flushed";
    EXPECT_EQ(rep.epochs, 2u);
}

TEST(AuditChecker, LateClwbStillFlaggedAndResolved)
{
    std::vector<MicroOp> ops;
    ops.push_back(MicroOp::store(kB, 2, 8)); // op 0
    append(ops, barrier());                  // epoch 1
    ops.push_back(MicroOp::store(kC, 3, 8)); // op 4
    ops.push_back(MicroOp::clwb(kC));        // op 5: witness
    ops.push_back(MicroOp::clwb(kB));        // op 6: late flush
    append(ops, barrier());

    AuditReport rep = auditStream(ops);
    ASSERT_EQ(rep.findings.size(), 1u);
    EXPECT_EQ(rep.findings[0].storeOp, 0u);
    EXPECT_EQ(rep.findings[0].resolvedOp, 6u)
        << "the late flush must resolve the finding's crash window";
    EXPECT_EQ(rep.findings[0].resolvedTick, 60u);
    EXPECT_FALSE(rep.clean()) << "late is still a violation";
}

TEST(AuditChecker, SameEpochFlushOrderIsClean)
{
    // Stores and flushes freely interleaved inside one epoch: FIFO
    // order within the epoch carries no ordering obligation.
    std::vector<MicroOp> ops;
    ops.push_back(MicroOp::store(kA, 1, 8));
    ops.push_back(MicroOp::store(kB, 2, 8));
    ops.push_back(MicroOp::clwb(kB)); // younger line flushed first: fine
    ops.push_back(MicroOp::clwb(kA));
    append(ops, barrier());
    ops.push_back(MicroOp::store(kC, 3, 8));
    ops.push_back(MicroOp::clwb(kC));

    AuditReport rep = auditStream(ops);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.epochs, 1u);
}

TEST(AuditChecker, UnflushedTailIsNotAViolation)
{
    // A dirty line at end of run with no overtaking flush: clean
    // shutdown writes it back, a crash rolls the transaction back.
    std::vector<MicroOp> ops;
    ops.push_back(MicroOp::store(kA, 1, 8));
    ops.push_back(MicroOp::clwb(kA));
    append(ops, barrier());
    ops.push_back(MicroOp::store(kB, 2, 8));

    AuditReport rep = auditStream(ops);
    EXPECT_TRUE(rep.clean());
}

TEST(AuditChecker, RedundantBarriersDetected)
{
    std::vector<MicroOp> ops;
    ops.push_back(MicroOp::clwb(kD));  // flush of a never-written line
    ops.push_back(MicroOp::store(kA, 1, 8));
    ops.push_back(MicroOp::clwb(kA));
    ops.push_back(MicroOp::clwb(kA));  // duplicate: nothing left to flush
    append(ops, barrier());
    ops.push_back(MicroOp::pcommit()); // no flush since the last pcommit
    ops.push_back(MicroOp::sfence());
    ops.push_back(MicroOp::sfence());  // orders nothing at all

    AuditReport rep = auditStream(ops);
    EXPECT_TRUE(rep.clean()) << "redundancy warns, never violates";
    EXPECT_EQ(rep.redundantFlushes, 2u);
    EXPECT_EQ(rep.redundantPcommits, 1u);
    EXPECT_EQ(rep.redundantFences, 1u);
}

TEST(AuditChecker, CrossControllerFenceGapFlaggedOnlyWithManyCtrls)
{
    // kA flushed *after* the pcommit marker: the seal misses it. On one
    // controller the global FIFO still orders it ahead of kB's flush --
    // benign. On two controllers the queues drain independently and the
    // younger kB write can land first -- violation.
    std::vector<MicroOp> ops;
    ops.push_back(MicroOp::store(kA, 1, 8)); // op 0, epoch 0, ctrl 0
    ops.push_back(MicroOp::sfence());
    ops.push_back(MicroOp::pcommit());
    ops.push_back(MicroOp::clwb(kA));        // op 3: after the marker
    ops.push_back(MicroOp::sfence());        // seals nothing of kA
    ops.push_back(MicroOp::store(kB, 2, 8)); // op 5, epoch 1, ctrl 1
    ops.push_back(MicroOp::clwb(kB));        // op 6: witness

    AuditReport one = auditStream(ops, 1);
    EXPECT_TRUE(one.clean()) << "single controller: FIFO covers the gap";

    AuditReport two = auditStream(ops, 2);
    EXPECT_FALSE(two.clean());
    ASSERT_EQ(two.findings.size(), 1u);
    EXPECT_EQ(two.findings[0].kind, AuditFindingKind::kUnorderedFlush);
    EXPECT_EQ(two.findings[0].line, blockAlign(kA));
    EXPECT_EQ(two.findings[0].storeOp, 3u) << "names the unsealed flush";
    EXPECT_EQ(two.findings[0].witnessLine, blockAlign(kB));
    EXPECT_EQ(two.findings[0].flushOp, 6u);
}

TEST(AuditChecker, SealedCrossControllerFlushesAreClean)
{
    // Same two-controller shape, but the flush happens before its
    // pcommit: the completed pair orders it, no violation.
    std::vector<MicroOp> ops;
    ops.push_back(MicroOp::store(kA, 1, 8));
    ops.push_back(MicroOp::clwb(kA));
    append(ops, barrier());
    ops.push_back(MicroOp::store(kB, 2, 8));
    ops.push_back(MicroOp::clwb(kB));

    EXPECT_TRUE(auditStream(ops, 2).clean());
}

TEST(AuditChecker, EdgesDedupIntoOneFindingPerStore)
{
    // One missing clwb witnessed by three later-epoch flushes: one
    // finding, three edges.
    std::vector<MicroOp> ops;
    ops.push_back(MicroOp::store(kB, 2, 8));
    append(ops, barrier());
    for (Addr a : {kA, kC, kD}) {
        ops.push_back(MicroOp::store(a, 1, 8));
        ops.push_back(MicroOp::clwb(a));
    }

    AuditReport rep = auditStream(ops);
    ASSERT_EQ(rep.findings.size(), 1u);
    EXPECT_EQ(rep.findings[0].edges, 3u);
    EXPECT_EQ(rep.violationEdges, 3u);
}

TEST(AuditChecker, MaxFindingsTruncates)
{
    AuditOptions opts;
    opts.maxFindings = 1;
    std::vector<MicroOp> ops;
    ops.push_back(MicroOp::store(kA, 1, 8));
    ops.push_back(MicroOp::store(kB, 2, 8));
    append(ops, barrier());
    ops.push_back(MicroOp::store(kC, 3, 8));
    ops.push_back(MicroOp::clwb(kC));

    AuditReport rep = auditStream(ops, 1, opts);
    EXPECT_EQ(rep.findings.size(), 1u);
    EXPECT_TRUE(rep.findingsTruncated);
    EXPECT_EQ(rep.violationEdges, 2u);
    EXPECT_FALSE(rep.clean());
}

TEST(AuditChecker, FailOnViolationThrows)
{
    AuditOptions opts;
    opts.enabled = true;
    opts.failOnViolation = true;
    DurabilityAuditor aud(opts, 1);
    uint64_t idx = 0;
    auto feed = [&](const MicroOp &op) {
        aud.observe(op, idx, idx * 10);
        ++idx;
    };
    feed(MicroOp::store(kB, 2, 8));
    for (const MicroOp &op : barrier())
        feed(op);
    feed(MicroOp::store(kC, 3, 8));
    feed(MicroOp::clwb(kC));
    EXPECT_THROW(aud.finalize(), std::runtime_error);
}

TEST(AuditChecker, ReportJsonIsValid)
{
    std::vector<MicroOp> ops;
    ops.push_back(MicroOp::store(kB, 2, 8));
    append(ops, barrier());
    ops.push_back(MicroOp::store(kC, 3, 8));
    ops.push_back(MicroOp::clwb(kC));
    AuditReport rep = auditStream(ops);
    std::string err;
    EXPECT_TRUE(jsonIsValid(rep.toJson(), &err)) << err;
    EXPECT_FALSE(rep.findings.empty());
    EXPECT_FALSE(rep.findings[0].toString().empty());
}

// ==========================================================================
// Golden clean audits over the whole campaign matrix
// ==========================================================================

TEST(AuditGolden, AllCampaignWorkloadsAuditClean)
{
    for (WorkloadKind kind : campaignWorkloads()) {
        std::string spOffJson;
        for (bool sp : {false, true}) {
            RunConfig cfg;
            cfg.kind = kind;
            cfg.params = defaultParams(kind);
            cfg.params.seed = 7;
            cfg.params.initOps = 150;
            cfg.params.simOps = 15;
            cfg.params.mode = PersistMode::kLogPSf;
            cfg.sim.sp.enabled = sp;
            cfg.audit.enabled = true;

            RunResult r = runExperiment(cfg);
            ASSERT_TRUE(r.completed);
            ASSERT_TRUE(r.audit.enabled);
            std::string diag;
            for (const AuditFinding &f : r.audit.findings)
                diag += "\n  " + f.toString();
            EXPECT_TRUE(r.audit.clean())
                << workloadKindName(kind) << " sp=" << sp << diag;
            EXPECT_GT(r.audit.stores, 0u);
            EXPECT_GT(r.audit.flushes, 0u);
            EXPECT_GT(r.audit.epochs, 0u);
            // The WAL protocol flushes exactly what it dirtied: no
            // redundant barrier anywhere in the seed workloads.
            EXPECT_EQ(r.audit.redundantFlushes, 0u)
                << workloadKindName(kind);
            EXPECT_EQ(r.audit.redundantFences, 0u);
            EXPECT_EQ(r.audit.redundantPcommits, 0u);

            // The audit is stream-level: speculation must not change
            // the retired stream, so the whole report is SP-invariant.
            if (!sp)
                spOffJson = r.audit.toJson();
            else
                EXPECT_EQ(r.audit.toJson(), spOffJson)
                    << workloadKindName(kind)
                    << ": SP changed the retired op stream";
        }
    }
}

TEST(AuditGolden, FenceFreeModesAuditCleanByConstruction)
{
    // kLogP never completes a pcommit+sfence pair, so no durability
    // epoch ever begins and no ordering promise can be violated.
    RunConfig cfg;
    cfg.kind = WorkloadKind::kBTree;
    cfg.params = defaultParams(cfg.kind);
    cfg.params.initOps = 150;
    cfg.params.simOps = 15;
    cfg.params.mode = PersistMode::kLogP;
    cfg.audit.enabled = true;
    RunResult r = runExperiment(cfg);
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.audit.clean());
    EXPECT_EQ(r.audit.epochs, 0u);
    EXPECT_GT(r.audit.flushes, 0u);
    EXPECT_EQ(r.audit.fences, 0u);
}

TEST(AuditGolden, CrashedRunStillReports)
{
    RunConfig cfg;
    cfg.kind = WorkloadKind::kLinkedList;
    cfg.params = defaultParams(cfg.kind);
    cfg.params.initOps = 150;
    cfg.params.simOps = 15;
    cfg.audit.enabled = true;
    RunResult full = runExperiment(cfg);
    RunResult crashed = runExperiment(cfg, full.stats.cycles / 2);
    ASSERT_FALSE(crashed.completed);
    EXPECT_TRUE(crashed.audit.enabled);
    EXPECT_TRUE(crashed.audit.clean());
    EXPECT_GT(crashed.audit.ops, 0u);
    EXPECT_LT(crashed.audit.ops, full.audit.ops);
}

// ==========================================================================
// Audit-on vs audit-off bit-identity
// ==========================================================================

TEST(AuditDeterminism, SingleRunUnperturbed)
{
    for (WorkloadKind kind :
         {WorkloadKind::kLinkedList, WorkloadKind::kBTree,
          WorkloadKind::kAvlTreeIncremental}) {
        RunConfig cfg;
        cfg.kind = kind;
        cfg.params = defaultParams(kind);
        cfg.params.initOps = 150;
        cfg.params.simOps = 15;
        cfg.sim.sp.enabled = true;

        RunResult off = runExperiment(cfg);
        cfg.audit.enabled = true;
        RunResult on = runExperiment(cfg);
        EXPECT_EQ(fingerprint(off), fingerprint(on))
            << workloadKindName(kind) << ": audit perturbed the run";
        // Nor does it change which cycles chain jumps carry.
        EXPECT_EQ(off.perf.chainJumpCycles, on.perf.chainJumpCycles)
            << workloadKindName(kind);
        EXPECT_FALSE(off.audit.enabled);
        EXPECT_TRUE(on.audit.enabled);
    }
}

TEST(AuditDeterminism, MultiWorkerSweepUnperturbed)
{
    // Every campaign workload, audit off and on, on an 8-worker pool:
    // per-cell fingerprints must pair up exactly and the audited
    // sweep's aggregates must reconcile.
    std::vector<RunConfig> grid;
    for (WorkloadKind kind : campaignWorkloads()) {
        RunConfig cfg;
        cfg.kind = kind;
        cfg.params = defaultParams(kind);
        cfg.params.initOps = 120;
        cfg.params.simOps = 12;
        cfg.sim.sp.enabled = true;
        grid.push_back(cfg);
    }
    std::vector<RunConfig> auditedGrid = grid;
    for (RunConfig &cfg : auditedGrid)
        cfg.audit.enabled = true;

    SweepOptions opts;
    opts.workers = 8;
    SweepEngine engine(opts);
    std::vector<SweepRunResult> silent = engine.run(grid);
    std::vector<SweepRunResult> audited = engine.run(auditedGrid);
    ASSERT_EQ(silent.size(), audited.size());
    for (size_t i = 0; i < silent.size(); ++i) {
        ASSERT_TRUE(silent[i].ok && audited[i].ok);
        EXPECT_EQ(fingerprint(silent[i].run), fingerprint(audited[i].run))
            << "grid cell " << i;
        EXPECT_TRUE(audited[i].run.audit.clean());
    }

    SweepSummary silentSum = summarizeSweep(silent);
    SweepSummary auditedSum = summarizeSweep(audited);
    EXPECT_EQ(silentSum.auditedRuns, 0u);
    EXPECT_EQ(auditedSum.auditedRuns, audited.size());
    EXPECT_EQ(auditedSum.auditCleanRuns, audited.size());
    EXPECT_EQ(auditedSum.auditFindings, 0u);
    EXPECT_EQ(silentSum.meanCycles, auditedSum.meanCycles);
    EXPECT_EQ(silentSum.minCycles, auditedSum.minCycles);
    EXPECT_EQ(silentSum.maxCycles, auditedSum.maxCycles);
    std::string err;
    EXPECT_TRUE(jsonIsValid(auditedSum.toJson(), &err)) << err;
}

// ==========================================================================
// SweepFailureRecord: auditor exceptions surface config + message
// ==========================================================================

TEST(AuditSweepFailure, ViolationSurfacesOffendingConfig)
{
    // Cell 0: clean run. Cell 1: a barrier-mutated run with
    // failOnViolation -- the auditor throws inside the sweep worker and
    // the failure record must carry the offending RunConfig description
    // and the auditor's message, not a silent null result.
    RunConfig clean;
    clean.kind = WorkloadKind::kLinkedList;
    clean.params = defaultParams(clean.kind);
    clean.params.initOps = 150;
    clean.params.simOps = 15;
    clean.audit.enabled = true;
    clean.audit.failOnViolation = true;

    RunResult probe = runExperiment(clean);
    ASSERT_TRUE(probe.audit.clean());

    RunConfig mutant = clean;
    // Find a flush whose drop the checker flags (drops of re-flushed
    // log-boundary blocks are benign; scan past them).
    bool found = false;
    for (uint64_t occ = probe.audit.flushes / 2;
         occ < probe.audit.flushes && !found; ++occ) {
        mutant.params.mutation.kind = BarrierMutation::Kind::kDrop;
        mutant.params.mutation.target = BarrierMutation::Target::kClwb;
        mutant.params.mutation.occurrence = occ;
        RunConfig scout = mutant;
        scout.audit.failOnViolation = false;
        if (!runExperiment(scout).audit.clean())
            found = true;
    }
    ASSERT_TRUE(found) << "no flaggable clwb drop in the back half";

    std::vector<RunConfig> grid = {clean, mutant};
    SweepOptions opts;
    opts.workers = 2;
    std::vector<SweepRunResult> results = SweepEngine(opts).run(grid);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok);
    ASSERT_FALSE(results[1].ok);
    EXPECT_EQ(results[1].outcome, RunOutcome::kException);
    EXPECT_NE(results[1].error.find("durability audit"), std::string::npos)
        << results[1].error;

    SweepSummary sum = summarizeSweep(results);
    EXPECT_EQ(sum.exceptionRuns, 1u);
    ASSERT_EQ(sum.failures.size(), 1u);
    EXPECT_EQ(sum.failures[0].index, 1u);
    EXPECT_NE(sum.failures[0].error.find("durability audit"),
              std::string::npos);
    EXPECT_NE(sum.failures[0].config.find("mut=drop:clwb"),
              std::string::npos)
        << "failure record must name the mutated config: "
        << sum.failures[0].config;
    EXPECT_NE(sum.failures[0].config.find("audit=1"), std::string::npos);
    std::string err;
    EXPECT_TRUE(jsonIsValid(sum.toJson(), &err)) << err;
}
