/**
 * @file
 * Barrier-mutation cross-validation: the durability auditor's verdicts
 * must agree with ground truth established by the crash campaign.
 *
 * For every campaign workload we seed single-barrier mutants at a chosen
 * OpEmitter emission site (drop/duplicate/delay one clwb, drop one
 * sfence or pcommit) and require both directions of the contract:
 *
 *  - every checker-flagged mutant reproduces as divergent recovery at
 *    some crash point inside the finding's [firstTick, resolvedTick]
 *    window, and
 *  - every auditor-clean mutant survives a crash schedule with exact
 *    recovery everywhere (on this machine's single memory controller
 *    the WPQ drains FIFO, so all sfence/pcommit mutations -- and clwb
 *    duplication -- are benign, and the auditor must know that).
 *
 * Mutations never change functional execution (a dropped clwb still
 * leaves the store in the cache, and a completed run writes everything
 * back), so divergence is observable only through crash + recovery --
 * which is exactly what makes the crash campaign an independent oracle
 * for the checker.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crash_scan.hh"
#include "harness/campaign.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "pmem/op_emitter.hh"
#include "pmem/recovery.hh"

using namespace sp;

namespace
{

RunConfig
baseConfig(WorkloadKind kind)
{
    RunConfig cfg;
    cfg.kind = kind;
    cfg.params = defaultParams(kind);
    cfg.params.seed = 7;
    cfg.params.initOps = 150;
    cfg.params.simOps = 15;
    cfg.params.mode = PersistMode::kLogPSf;
    cfg.sim.sp.enabled = true;
    cfg.audit.enabled = true;
    return cfg;
}

RunConfig
withMutation(const RunConfig &base, BarrierMutation::Kind kind,
             BarrierMutation::Target target, uint64_t occurrence,
             unsigned delayBarriers = 2)
{
    RunConfig cfg = base;
    cfg.params.mutation.kind = kind;
    cfg.params.mutation.target = target;
    cfg.params.mutation.occurrence = occurrence;
    cfg.params.mutation.delayBarriers = delayBarriers;
    return cfg;
}

/**
 * Starting at `startOcc`, find occurrences whose mutation the checker
 * flags (not every clwb drop is hazardous: a log-boundary block that is
 * re-flushed in the same epoch stays ordered, and the auditor is
 * deliberately silent about it). Returns up to `want` candidates, each
 * with its audited full run.
 */
struct FlaggedMutant
{
    RunConfig cfg;
    RunResult full;
};

std::vector<FlaggedMutant>
findFlaggedMutants(const RunConfig &base, BarrierMutation::Kind kind,
                   uint64_t startOcc, uint64_t endOcc, unsigned want,
                   unsigned delayBarriers = 2)
{
    std::vector<FlaggedMutant> out;
    for (uint64_t occ = startOcc; occ < endOcc && out.size() < want;
         ++occ) {
        RunConfig cfg = withMutation(base, kind,
                                     BarrierMutation::Target::kClwb, occ,
                                     delayBarriers);
        RunResult r = runExperiment(cfg);
        if (r.completed && !r.audit.clean())
            out.push_back({cfg, std::move(r)});
    }
    return out;
}

/**
 * Crash-scan the finding's exposure window looking for one divergent
 * recovery (early exit). The window opens at the witness flush's
 * retirement and closes when the late flush lands (plus drain slack) or,
 * for a never-reflushed line, at end of run.
 */
bool
divergesInWindow(const FlaggedMutant &m, uint64_t maxGen,
                 Tick &foundAt, std::string &why)
{
    const AuditFinding &f = m.full.audit.findings[0];
    Tick end = f.resolvedOp ? f.resolvedTick + 4000 : m.full.stats.cycles;
    std::vector<Tick> points = fineStepCrashSchedule(
        m.full.stats.cycles, 250, 16, f.firstTick, end);
    WorkloadSetup setup(m.cfg.kind, m.cfg.params);
    for (Tick at : points) {
        if (crashRecoveryDiverges(m.cfg, setup, at, maxGen, &why)) {
            foundAt = at;
            return true;
        }
    }
    return false;
}

} // namespace

// ==========================================================================
// The full matrix: every workload x every single-barrier mutant kind
// ==========================================================================

TEST(AuditMutation, MatrixCheckerAndCrashCampaignAgree)
{
    for (WorkloadKind kind : campaignWorkloads()) {
        SCOPED_TRACE(workloadKindName(kind));
        RunConfig base = baseConfig(kind);
        RunResult golden = runExperiment(base);
        ASSERT_TRUE(golden.completed);
        ASSERT_TRUE(golden.audit.clean());
        const uint64_t flushes = golden.audit.flushes;
        const uint64_t fences = golden.audit.fences;
        const uint64_t pcommits = golden.audit.pcommits;
        ASSERT_GT(flushes, 4u);

        // --- Hazardous direction: a dropped clwb must be flagged AND
        // must reproduce as torn recovery inside the flagged window.
        // (Occurrences whose drop the checker clears -- same-epoch
        // re-flushed blocks -- are handled in the benign loop below.)
        std::vector<FlaggedMutant> flagged = findFlaggedMutants(
            base, BarrierMutation::Kind::kDrop, flushes / 2, flushes, 3);
        ASSERT_FALSE(flagged.empty())
            << "no flaggable clwb drop in the back half of the run";
        bool reproduced = false;
        std::string why;
        Tick foundAt = 0;
        for (const FlaggedMutant &m : flagged) {
            // Mutations are functionally inert: the completed mutant
            // run must still converge to the golden durable image.
            EXPECT_EQ(m.full.durable.hash(), golden.durable.hash())
                << describeMutation(m.cfg.params.mutation);
            EXPECT_EQ(m.full.functionalGeneration,
                      golden.functionalGeneration);
            EXPECT_EQ(m.full.audit.findings[0].kind,
                      AuditFindingKind::kUnorderedStore);
            if (divergesInWindow(m, golden.functionalGeneration, foundAt,
                                 why)) {
                reproduced = true;
                break;
            }
        }
        EXPECT_TRUE(reproduced)
            << "checker flagged a clwb drop but no crash point in the "
           "flagged window tore recovery (false positive?)";

        // --- Benign direction: duplicated clwb, dropped sfence, dropped
        // pcommit. One memory controller means the WPQ's global FIFO
        // already orders every flush, so the fence mutations cannot be
        // observed by any crash; the checker must stay silent and the
        // campaign must recover exactly everywhere.
        struct BenignCase
        {
            const char *name;
            BarrierMutation::Kind kind;
            BarrierMutation::Target target;
            uint64_t occurrence;
        };
        std::vector<BenignCase> benign = {
            {"dup-clwb", BarrierMutation::Kind::kDuplicate,
             BarrierMutation::Target::kClwb, flushes / 2},
            {"drop-sfence", BarrierMutation::Kind::kDrop,
             BarrierMutation::Target::kSfence, fences / 2},
            {"drop-pcommit", BarrierMutation::Kind::kDrop,
             BarrierMutation::Target::kPcommit, pcommits / 2},
        };
        for (const BenignCase &b : benign) {
            SCOPED_TRACE(b.name);
            RunConfig cfg =
                withMutation(base, b.kind, b.target, b.occurrence);
            RunResult r = runExperiment(cfg);
            ASSERT_TRUE(r.completed);
            std::string diag;
            for (const AuditFinding &f : r.audit.findings)
                diag += "\n  " + f.toString();
            EXPECT_TRUE(r.audit.clean())
                << "checker flagged a machine-benign mutation" << diag;
            EXPECT_EQ(r.durable.hash(), golden.durable.hash());

            WorkloadSetup setup(cfg.kind, cfg.params);
            for (Tick at :
                 fineStepCrashSchedule(r.stats.cycles, 14, 64)) {
                std::string bwhy;
                EXPECT_FALSE(crashRecoveryDiverges(cfg, setup, at,
                                                   golden.functionalGeneration,
                                                   &bwhy))
                    << "auditor-clean mutant tore recovery (false "
                       "negative): "
                    << bwhy;
            }
        }
    }
}

// ==========================================================================
// Delayed clwb: held across two barriers, re-emitted late
// ==========================================================================

TEST(AuditMutation, DelayedClwbFlaggedWithBoundedWindowAndDivergent)
{
    for (WorkloadKind kind :
         {WorkloadKind::kLinkedList, WorkloadKind::kBTree}) {
        SCOPED_TRACE(workloadKindName(kind));
        RunConfig base = baseConfig(kind);
        RunResult golden = runExperiment(base);
        ASSERT_TRUE(golden.audit.clean());

        std::vector<FlaggedMutant> flagged = findFlaggedMutants(
            base, BarrierMutation::Kind::kDelay,
            golden.audit.flushes / 2, golden.audit.flushes, 3, 2);
        ASSERT_FALSE(flagged.empty())
            << "no flaggable delayed clwb in the back half of the run";

        bool sawResolved = false;
        bool reproduced = false;
        std::string why;
        Tick foundAt = 0;
        for (const FlaggedMutant &m : flagged) {
            EXPECT_EQ(m.full.durable.hash(), golden.durable.hash());
            const AuditFinding &f = m.full.audit.findings[0];
            if (f.resolvedOp) {
                // The late flush did land: the finding carries a
                // bounded exposure window for the crash scan.
                sawResolved = true;
                // The two ticks can be equal: the witness flush and
                // the re-emitted late flush may retire the same cycle,
                // and the scan widens the window by the drain slack.
                EXPECT_GE(f.resolvedTick, f.firstTick);
            }
            if (!reproduced &&
                divergesInWindow(m, golden.functionalGeneration, foundAt,
                                 why)) {
                reproduced = true;
            }
        }
        EXPECT_TRUE(sawResolved)
            << "no delayed flush re-landed inside the run";
        EXPECT_TRUE(reproduced)
            << "delayed clwb flagged but never torn at any crash point "
               "in its window";
    }
}

// ==========================================================================
// Campaign determinism: the mutant crash matrix is worker-count invariant
// ==========================================================================

TEST(AuditMutation, VerdictSignatureIdenticalAcrossWorkerCounts)
{
    // The whole point of cross-validating checker against campaign is
    // lost if the campaign's verdicts depend on scheduling. Run the
    // same mutant crash schedule on a 1-worker and an 8-worker pool and
    // require bit-identical per-point verdict signatures (crashed image
    // hash + recovery verdict at every point).
    for (WorkloadKind kind :
         {WorkloadKind::kLinkedList, WorkloadKind::kBTree}) {
        SCOPED_TRACE(workloadKindName(kind));
        RunConfig base = baseConfig(kind);
        RunResult golden = runExperiment(base);
        ASSERT_TRUE(golden.audit.clean());

        std::vector<FlaggedMutant> flagged = findFlaggedMutants(
            base, BarrierMutation::Kind::kDrop, golden.audit.flushes / 2,
            golden.audit.flushes, 1);
        ASSERT_FALSE(flagged.empty());

        struct MutantSchedule
        {
            RunConfig cfg;
            std::vector<Tick> points;
        };
        const AuditFinding &f = flagged[0].full.audit.findings[0];
        Tick end = f.resolvedOp ? f.resolvedTick + 4000
                                : flagged[0].full.stats.cycles;
        std::vector<MutantSchedule> mutants = {
            // The hazardous mutant over its flagged window...
            {flagged[0].cfg,
             fineStepCrashSchedule(flagged[0].full.stats.cycles, 24, 16,
                                   f.firstTick, end)},
            // ...and a benign one over the whole run.
            {withMutation(base, BarrierMutation::Kind::kDuplicate,
                          BarrierMutation::Target::kClwb,
                          golden.audit.flushes / 2),
             fineStepCrashSchedule(golden.stats.cycles, 12, 64)},
        };

        for (const MutantSchedule &ms : mutants) {
            SCOPED_TRACE(describeMutation(ms.cfg.params.mutation));
            ASSERT_FALSE(ms.points.empty());
            std::vector<SweepJob> jobs;
            for (Tick at : ms.points) {
                SweepJob job;
                job.cfg = ms.cfg;
                job.crashAtCycle = at;
                jobs.push_back(job);
            }

            auto signature = [&](unsigned workers) {
                SweepOptions opts;
                opts.workers = workers;
                std::vector<SweepRunResult> res =
                    SweepEngine(opts).run(jobs);
                std::string sig;
                for (size_t i = 0; i < res.size(); ++i) {
                    EXPECT_TRUE(res[i].ok) << res[i].error;
                    RunResult &r = res[i].run;
                    sig += std::to_string(jobs[i].crashAtCycle) + ":" +
                        std::to_string(r.durable.hash()) + ":";
                    // Recover a copy and classify, exactly as the
                    // serial campaign would.
                    MemImage img = r.durable;
                    RecoveryResult rec = recoverImage(img);
                    uint64_t gen = Workload::generation(img);
                    auto replay = makeWorkload(ms.cfg.kind,
                                               ms.cfg.params);
                    replay->setup();
                    bool divergent;
                    if (gen > golden.functionalGeneration) {
                        divergent = true;
                    } else {
                        replay->runFunctionalToGeneration(gen);
                        std::string why;
                        divergent = !replay->checkImage(img, &why) ||
                            replay->contents(img) !=
                                replay->contents(replay->image());
                    }
                    sig += (divergent ? "D" : ".");
                    sig += rec.undone ? "u" : "-";
                    sig += ";";
                }
                return sig;
            };

            std::string serial = signature(1);
            std::string pooled = signature(8);
            EXPECT_EQ(serial, pooled)
                << "crash-campaign verdicts changed with worker count";
        }
    }
}
