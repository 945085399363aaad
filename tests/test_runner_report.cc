/**
 * @file
 * Unit tests: the harness runner (config building, env overrides, seed
 * sweeps, probe injection plumbing) and the CSV report module.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

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

} // namespace

TEST(Runner, MakeRunConfigAppliesArguments)
{
    RunConfig cfg = makeRunConfig(WorkloadKind::kBTree,
                                  PersistMode::kLogP, true, 128, 0.5);
    EXPECT_EQ(cfg.kind, WorkloadKind::kBTree);
    EXPECT_EQ(cfg.params.mode, PersistMode::kLogP);
    EXPECT_TRUE(cfg.sim.sp.enabled);
    EXPECT_EQ(cfg.sim.sp.ssbEntries, 128u);
    WorkloadParams full = defaultParams(WorkloadKind::kBTree, 1.0);
    EXPECT_EQ(cfg.params.simOps, full.simOps / 2);
}

TEST(Runner, ScaleNeverZeroesSimOps)
{
    WorkloadParams p = defaultParams(WorkloadKind::kLinkedList, 0.00001);
    EXPECT_GE(p.simOps, 1u);
}

TEST(Runner, SeedSweepAggregates)
{
    RunConfig cfg = makeRunConfig(WorkloadKind::kLinkedList,
                                  PersistMode::kNone, false);
    cfg.params.initOps = 100;
    cfg.params.simOps = 10;
    SweepSummary sweep = seedSweep(cfg, 3, 11);
    EXPECT_EQ(sweep.failed, 0u);
    EXPECT_EQ(sweep.runs, 3u);
    EXPECT_GE(sweep.maxCycles, sweep.minCycles);
    EXPECT_GE(sweep.meanCycles, static_cast<double>(sweep.minCycles));
    EXPECT_LE(sweep.meanCycles, static_cast<double>(sweep.maxCycles));
    EXPECT_GE(sweep.stddevCycles, 0.0);
}

TEST(Runner, SeedSweepIsDeterministic)
{
    RunConfig cfg = makeRunConfig(WorkloadKind::kLinkedList,
                                  PersistMode::kLogPSf, true);
    cfg.params.initOps = 100;
    cfg.params.simOps = 10;
    SweepSummary a = seedSweep(cfg, 2, 5);
    SweepSummary b = seedSweep(cfg, 2, 5);
    EXPECT_EQ(a.failed, 0u);
    EXPECT_EQ(b.failed, 0u);
    EXPECT_EQ(a.minCycles, b.minCycles);
    EXPECT_EQ(a.maxCycles, b.maxCycles);
}

TEST(Runner, ProbeInjectionCausesNoDivergence)
{
    RunConfig cfg = makeRunConfig(WorkloadKind::kLinkedList,
                                  PersistMode::kLogPSf, true);
    cfg.params.initOps = 150;
    cfg.params.simOps = 15;
    RunResult quiet = runExperiment(cfg);
    cfg.probePeriod = 50;
    RunResult noisy = runExperiment(cfg);
    // Probes may abort and re-execute, but the persisted outcome and
    // instruction-level results stay identical.
    auto w = makeWorkload(cfg.kind, cfg.params);
    EXPECT_EQ(w->contents(quiet.durable), w->contents(noisy.durable));
    EXPECT_GE(noisy.stats.cycles, quiet.stats.cycles);
}

TEST(Runner, ShutdownWpqOverfillIsTelemetryNotAWarning)
{
    // A Base run's clean shutdown pushes every dirty block through the
    // WPQ at once. That overfill is by design: it shows up as the
    // shutdown peak in PerfTelemetry and prints nothing.
    RunConfig cfg = makeRunConfig(WorkloadKind::kBTree, PersistMode::kNone,
                                  false, 256, 0.05);
    testing::internal::CaptureStderr();
    RunResult r = runExperiment(cfg);
    std::string err = testing::internal::GetCapturedStderr();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(err, "");
    EXPECT_GT(r.perf.wpqPeakShutdown, cfg.sim.mem.wpqEntries);
    EXPECT_LE(r.perf.wpqPeakTimed, r.perf.wpqPeakShutdown);

    std::ostringstream os;
    r.perf.print(os);
    EXPECT_NE(os.str().find("WPQ peak occupancy: timed " +
                            std::to_string(r.perf.wpqPeakTimed) +
                            ", shutdown " +
                            std::to_string(r.perf.wpqPeakShutdown)),
              std::string::npos);
}

TEST(Report, CsvMatchesTable)
{
    Table t({"a", "b"});
    t.addRow({"x", "1"});
    t.addRow({"y", "2"});
    std::ostringstream os;
    t.writeCsv(os);
    EXPECT_EQ(os.str(), "a,b\nx,1\ny,2\n");
}

TEST(Report, MaybeWriteCsvHonorsEnv)
{
    Table t({"col"});
    t.addRow({"val"});
    unsetenv("SP_CSV_DIR");
    EXPECT_TRUE(maybeWriteCsv("unused", t)); // no-op without the env var

    setenv("SP_CSV_DIR", "/tmp", 1);
    EXPECT_TRUE(maybeWriteCsv("sp_report_test", t));
    std::ifstream in("/tmp/sp_report_test.csv");
    ASSERT_TRUE(in.good());
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "col");
    unsetenv("SP_CSV_DIR");
    std::remove("/tmp/sp_report_test.csv");
}

TEST(Report, StatsCsvRowFieldCountMatchesHeader)
{
    Stats s;
    s.cycles = 42;
    std::string header = statsCsvHeader();
    std::string row = statsCsvRow("test", s);
    auto count = [](const std::string &str) {
        return std::count(str.begin(), str.end(), ',');
    };
    EXPECT_EQ(count(header), count(row));
    EXPECT_EQ(row.substr(0, 8), "test,42,");
}

TEST(EvictOnPersist, EmitsClflushOpt)
{
    MemImage img;
    OpEmitter em(img, PersistMode::kLogP);
    em.setEvictOnPersist(true);
    em.clwb(0x1000);
    MicroOp op;
    ASSERT_TRUE(em.next(op));
    EXPECT_EQ(op.type, OpType::kClflushOpt);
}

TEST(EvictOnPersist, CostsMoreThanKeeping)
{
    RunConfig keep = makeRunConfig(WorkloadKind::kLinkedList,
                                   PersistMode::kLogPSf, false);
    keep.params.initOps = 200;
    keep.params.simOps = 30;
    RunConfig evict = keep;
    evict.params.evictOnPersist = true;
    RunResult rk = runExperiment(keep);
    RunResult re = runExperiment(evict);
    // Evicting hot metadata (log header, logged_bit) forces refetches.
    EXPECT_GT(re.stats.nvmmReads, rk.stats.nvmmReads);
    EXPECT_GT(re.stats.cycles, rk.stats.cycles);
    // Both are equally fail-safe: same persisted contents.
    auto w = makeWorkload(keep.kind, keep.params);
    EXPECT_EQ(w->contents(rk.durable), w->contents(re.durable));
}
