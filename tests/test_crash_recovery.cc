/**
 * @file
 * The failure-safety property test: crash the machine at a grid of points
 * for every workload, with and without speculative persistence, and
 * require that undo-log recovery restores a structurally valid image
 * whose contents exactly equal a functional replay to the recovered
 * transaction boundary.
 *
 * This is the mechanical proof of the paper's WAL protocol (Section 3.1)
 * and of SP's claim that speculation never lets state reach the NVMM out
 * of order (Section 4). It caught two real bugs during development:
 * unsafe WPQ coalescing into non-tail entries, and stale lower-level
 * cache copies surviving a clwb.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "crash_scan.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "pmem/recovery.hh"

using namespace sp;

namespace
{

struct CrashCase
{
    WorkloadKind kind;
    bool sp;
};

std::string
caseName(const ::testing::TestParamInfo<CrashCase> &info)
{
    return std::string(workloadKindName(info.param.kind)) +
        (info.param.sp ? "_SP" : "_NoSP");
}

} // namespace

class CrashRecovery : public ::testing::TestWithParam<CrashCase>
{
};

TEST_P(CrashRecovery, AnyCrashPointRecoversExactly)
{
    auto [kind, sp] = GetParam();
    RunConfig cfg;
    cfg.kind = kind;
    cfg.params.seed = 1234;
    cfg.params.initOps = 300;
    cfg.params.simOps = 30;
    cfg.params.mode = PersistMode::kLogPSf;
    cfg.sim.sp.enabled = sp;

    RunResult full = runExperiment(cfg);
    ASSERT_TRUE(full.completed);

    const unsigned kPoints = 12;
    for (unsigned i = 1; i <= kPoints; ++i) {
        Tick at = full.stats.cycles * i / (kPoints + 1);
        RunResult crashed = runExperiment(cfg, at);
        ASSERT_FALSE(crashed.completed);

        recoverImage(crashed.durable);
        uint64_t gen = Workload::generation(crashed.durable);
        ASSERT_LE(gen, full.functionalGeneration);

        auto replay = makeWorkload(cfg.kind, cfg.params);
        replay->setup();
        replay->runFunctionalToGeneration(gen);

        std::string why;
        ASSERT_TRUE(replay->checkImage(crashed.durable, &why))
            << "crash @ " << at << " gen " << gen << ": " << why;
        ASSERT_EQ(replay->contents(crashed.durable),
                  replay->contents(replay->image()))
            << "crash @ " << at << " gen " << gen
            << ": recovered contents differ from the replayed boundary";
    }
}

TEST_P(CrashRecovery, InterruptedRecoveryConverges)
{
    // Crash during recovery: a partial undo pass (which never clears
    // logged_bit), possibly interrupted again, followed by a full pass
    // must land on exactly the image an uninterrupted recovery produces.
    auto [kind, sp] = GetParam();
    RunConfig cfg;
    cfg.kind = kind;
    cfg.params.seed = 31;
    cfg.params.initOps = 200;
    cfg.params.simOps = 20;
    cfg.params.mode = PersistMode::kLogPSf;
    cfg.sim.sp.enabled = sp;

    WorkloadSetup setup(cfg.kind, cfg.params);
    RunResult full = runExperiment(cfg, 0, nullptr, &setup);
    // The fine-step armed-window scan (see crash_scan.hh for why a fixed
    // grid would alias past every armed window).
    std::vector<Tick> armedPoints =
        findArmedCrashPoints(cfg, setup, full.stats.cycles, 3, 200);
    for (Tick at : armedPoints) {
        RunResult crashed = runExperiment(cfg, at, nullptr, &setup);
        ASSERT_FALSE(crashed.completed);

        MemImage direct = crashed.durable;
        RecoveryResult rec = recoverImage(direct);
        ASSERT_TRUE(rec.undone);

        for (unsigned k : {0u, 1u, rec.entriesApplied / 2,
                           rec.entriesApplied}) {
            // Double crash: first recovery dies after k entries.
            MemImage partial = crashed.durable;
            RecoveryResult interrupted =
                recoverImageInterrupted(partial, k);
            EXPECT_TRUE(interrupted.undone);
            EXPECT_LE(interrupted.entriesApplied, k);
            // logged_bit must survive so the next boot recovers again --
            // even when the pass applied every entry.
            RecoveryResult again = recoverImage(partial);
            EXPECT_TRUE(again.undone)
                << "interrupted recovery cleared logged_bit (k=" << k
                << ")";
            EXPECT_EQ(partial.hash(), direct.hash())
                << "crash @ " << at << " k=" << k;

            // Triple crash: interrupt the second pass too.
            MemImage twice = crashed.durable;
            recoverImageInterrupted(twice, k);
            recoverImageInterrupted(twice, k / 2 + 1);
            recoverImage(twice);
            EXPECT_EQ(twice.hash(), direct.hash())
                << "crash @ " << at << " k=" << k << " (triple)";
        }
    }
    // The scan is dense enough that at least one crash point must land
    // inside a transaction; otherwise this test silently proves nothing.
    EXPECT_GT(armedPoints.size(), 0u);
}

TEST_P(CrashRecovery, RecoveryIsIdempotent)
{
    auto [kind, sp] = GetParam();
    RunConfig cfg;
    cfg.kind = kind;
    cfg.params.seed = 77;
    cfg.params.initOps = 200;
    cfg.params.simOps = 20;
    cfg.params.mode = PersistMode::kLogPSf;
    cfg.sim.sp.enabled = sp;

    RunResult full = runExperiment(cfg);
    Tick at = full.stats.cycles / 2;
    RunResult crashed = runExperiment(cfg, at);
    recoverImage(crashed.durable);
    MemImage once = crashed.durable;
    RecoveryResult again = recoverImage(crashed.durable);
    EXPECT_FALSE(again.undone);
    auto w = makeWorkload(cfg.kind, cfg.params);
    EXPECT_EQ(w->contents(once), w->contents(crashed.durable));
}

namespace
{

std::vector<CrashCase>
allCrashCases()
{
    std::vector<CrashCase> cases;
    for (WorkloadKind kind : allWorkloadKinds()) {
        cases.push_back({kind, false});
        cases.push_back({kind, true});
    }
    return cases;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, CrashRecovery,
                         ::testing::ValuesIn(allCrashCases()), caseName);

/**
 * Crash-matrix sweep: crash points on a log-spaced grid (dense early,
 * where setup/log-initialization races live; sparse late) for two
 * workloads, with the whole matrix of crashed runs executed in parallel
 * on the SweepEngine. Recovery invariants must hold at every point.
 */
TEST(CrashMatrix, LogSpacedGridViaSweepEngine)
{
    for (WorkloadKind kind :
         {WorkloadKind::kLinkedList, WorkloadKind::kBTree}) {
        RunConfig cfg;
        cfg.kind = kind;
        cfg.params.seed = 2026;
        cfg.params.initOps = 250;
        cfg.params.simOps = 25;
        cfg.params.mode = PersistMode::kLogPSf;
        cfg.sim.sp.enabled = true;

        RunResult full = runExperiment(cfg);
        ASSERT_TRUE(full.completed);

        // Log-spaced crash grid over [64, cycles-1].
        const unsigned kPoints = 16;
        const double lo = std::log(64.0);
        const double hi = std::log(static_cast<double>(
            full.stats.cycles > 65 ? full.stats.cycles - 1 : 65));
        std::vector<SweepJob> jobs;
        for (unsigned i = 0; i < kPoints; ++i) {
            double t = lo + (hi - lo) * i / (kPoints - 1);
            SweepJob job;
            job.cfg = cfg;
            job.crashAtCycle = static_cast<Tick>(std::exp(t));
            jobs.push_back(job);
        }

        SweepOptions opts;
        opts.workers = 4;
        std::vector<SweepRunResult> crashed = SweepEngine(opts).run(jobs);
        ASSERT_EQ(crashed.size(), jobs.size());

        for (size_t i = 0; i < crashed.size(); ++i) {
            ASSERT_TRUE(crashed[i].ok) << crashed[i].error;
            RunResult &r = crashed[i].run;
            ASSERT_FALSE(r.completed)
                << "crash @ " << jobs[i].crashAtCycle << " did not stop";

            recoverImage(r.durable);
            uint64_t gen = Workload::generation(r.durable);
            ASSERT_LE(gen, full.functionalGeneration);

            auto replay = makeWorkload(cfg.kind, cfg.params);
            replay->setup();
            replay->runFunctionalToGeneration(gen);

            std::string why;
            ASSERT_TRUE(replay->checkImage(r.durable, &why))
                << workloadKindName(kind) << " crash @ "
                << jobs[i].crashAtCycle << " gen " << gen << ": " << why;
            ASSERT_EQ(replay->contents(r.durable),
                      replay->contents(replay->image()))
                << workloadKindName(kind) << " crash @ "
                << jobs[i].crashAtCycle << " gen " << gen
                << ": recovered contents differ from replayed boundary";
        }
    }
}

TEST(CrashRecoverySeeds, BTreeSurvivesManySeeds)
{
    // Extra depth on the structurally trickiest workload: different seeds
    // exercise different split/merge sequences at the crash points.
    for (uint64_t seed : {1u, 2u, 3u, 5u, 8u}) {
        RunConfig cfg;
        cfg.kind = WorkloadKind::kBTree;
        cfg.params.seed = seed;
        cfg.params.initOps = 150;
        cfg.params.simOps = 25;
        cfg.params.mode = PersistMode::kLogPSf;
        cfg.sim.sp.enabled = true;
        RunResult full = runExperiment(cfg);
        for (unsigned i = 1; i <= 6; ++i) {
            Tick at = full.stats.cycles * i / 7;
            RunResult crashed = runExperiment(cfg, at);
            recoverImage(crashed.durable);
            uint64_t gen = Workload::generation(crashed.durable);
            auto replay = makeWorkload(cfg.kind, cfg.params);
            replay->setup();
            replay->runFunctionalToGeneration(gen);
            std::string why;
            ASSERT_TRUE(replay->checkImage(crashed.durable, &why))
                << "seed " << seed << " crash @ " << at << ": " << why;
            ASSERT_EQ(replay->contents(crashed.durable),
                      replay->contents(replay->image()))
                << "seed " << seed << " crash @ " << at;
        }
    }
}
