/**
 * @file
 * The sweep engine's determinism contract: a run's outcome depends only
 * on its RunConfig, never on which worker ran it, how many workers
 * existed, or what ran beside it. The same grid is executed serially
 * (plain runExperiment loop) and through SweepEngine with 1, 2, and 8
 * workers; every run must produce bit-identical Stats (every counter,
 * via the full CSV serialization) and an identical durable MemImage
 * hash.
 *
 * If this suite fails, some shared mutable state leaked into the
 * simulation path -- fix the sharing, do not loosen the assertions.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"

using namespace sp;

namespace
{

/** One sweep job per seed in [firstSeed, firstSeed + runs), summarized. */
SweepSummary
seedSweep(RunConfig cfg, unsigned runs, uint64_t firstSeed)
{
    std::vector<SweepJob> jobs(runs);
    for (unsigned i = 0; i < runs; ++i) {
        cfg.params.seed = firstSeed + i;
        jobs[i].cfg = cfg;
    }
    return summarizeSweep(SweepEngine().run(jobs));
}

/** A small but heterogeneous grid: kinds x variants, plus one crash. */
std::vector<SweepJob>
determinismGrid()
{
    std::vector<SweepJob> jobs;
    struct V
    {
        PersistMode mode;
        bool sp;
    };
    for (WorkloadKind kind :
         {WorkloadKind::kLinkedList, WorkloadKind::kBTree,
          WorkloadKind::kHashMap}) {
        for (const V &v : {V{PersistMode::kNone, false},
                           V{PersistMode::kLogPSf, false},
                           V{PersistMode::kLogPSf, true}}) {
            SweepJob job;
            job.cfg.kind = kind;
            job.cfg.params.seed = 42;
            job.cfg.params.initOps = 200;
            job.cfg.params.simOps = 25;
            job.cfg.params.mode = v.mode;
            job.cfg.sim.sp.enabled = v.sp;
            jobs.push_back(job);
        }
    }
    // One mid-run crash snapshot: the durable image of a crashed run
    // must also be schedule-independent.
    SweepJob crash = jobs[4];
    crash.crashAtCycle = 5000;
    jobs.push_back(crash);
    return jobs;
}

struct Fingerprint
{
    std::string stats;
    uint64_t imageHash;
    bool completed;
    uint64_t generation;

    bool operator==(const Fingerprint &o) const = default;
};

Fingerprint
fingerprint(const RunResult &r)
{
    return {statsCsvRow("", r.stats), r.durable.hash(), r.completed,
            r.functionalGeneration};
}

} // namespace

TEST(SweepDeterminism, ParallelMatchesSerialForAnyWorkerCount)
{
    std::vector<SweepJob> jobs = determinismGrid();

    std::vector<Fingerprint> serial;
    for (const SweepJob &job : jobs)
        serial.push_back(
            fingerprint(runExperiment(job.cfg, job.crashAtCycle)));

    for (unsigned workers : {1u, 2u, 8u}) {
        SweepOptions opts;
        opts.workers = workers;
        std::vector<SweepRunResult> results =
            SweepEngine(opts).run(jobs);
        ASSERT_EQ(results.size(), jobs.size()) << workers << " workers";
        for (size_t i = 0; i < jobs.size(); ++i) {
            ASSERT_TRUE(results[i].ok)
                << workers << " workers, run " << i << ": "
                << results[i].error;
            EXPECT_EQ(results[i].index, i);
            Fingerprint fp = fingerprint(results[i].run);
            EXPECT_EQ(fp.stats, serial[i].stats)
                << workers << " workers, run " << i
                << ": stats diverged from the serial baseline";
            EXPECT_EQ(fp.imageHash, serial[i].imageHash)
                << workers << " workers, run " << i
                << ": durable image diverged from the serial baseline";
            EXPECT_EQ(fp.completed, serial[i].completed);
            EXPECT_EQ(fp.generation, serial[i].generation);
        }
    }
}

TEST(SweepDeterminism, RepeatedParallelSweepsAgree)
{
    // Two 8-worker sweeps of the same grid must agree run for run --
    // catches nondeterminism that happens to differ from serial in the
    // same way twice only with very low probability.
    std::vector<SweepJob> jobs = determinismGrid();
    SweepOptions opts;
    opts.workers = 8;
    std::vector<SweepRunResult> a = SweepEngine(opts).run(jobs);
    std::vector<SweepRunResult> b = SweepEngine(opts).run(jobs);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(a[i].ok && b[i].ok);
        EXPECT_EQ(fingerprint(a[i].run), fingerprint(b[i].run))
            << "run " << i;
    }
}

TEST(SweepDeterminism, SeedSweepAggregatesMatchSerialLoop)
{
    // A seed sweep on the engine: its aggregates must equal the
    // hand-rolled serial computation exactly (no floating-point drift:
    // the inputs are identical integers, summed in the same order).
    RunConfig cfg = makeRunConfig(WorkloadKind::kLinkedList,
                                  PersistMode::kLogPSf, true);
    cfg.params.initOps = 150;
    cfg.params.simOps = 20;

    const unsigned kRuns = 5;
    std::vector<uint64_t> cycles;
    RunConfig serialCfg = cfg;
    for (unsigned i = 0; i < kRuns; ++i) {
        serialCfg.params.seed = 1 + i;
        cycles.push_back(runExperiment(serialCfg).stats.cycles);
    }

    SweepSummary sweep = seedSweep(cfg, kRuns, 1);
    EXPECT_EQ(sweep.failed, 0u);
    EXPECT_EQ(sweep.runs, kRuns);
    EXPECT_EQ(sweep.minCycles,
              *std::min_element(cycles.begin(), cycles.end()));
    EXPECT_EQ(sweep.maxCycles,
              *std::max_element(cycles.begin(), cycles.end()));
    double sum = 0;
    for (uint64_t c : cycles)
        sum += static_cast<double>(c);
    EXPECT_DOUBLE_EQ(sweep.meanCycles, sum / kRuns);
}
