/**
 * @file
 * Tests: the pipeline trace sink and full-machine runs over multiple
 * memory controllers.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "cpu/ooo_core.hh"
#include "harness/runner.hh"
#include "isa/program.hh"
#include "mem/cache_hierarchy.hh"
#include "mem/mem_system.hh"
#include "pmem/recovery.hh"

using namespace sp;

namespace
{

constexpr Addr kA = 0x10000000;

std::string
runTraced(bool sp)
{
    std::vector<MicroOp> ops = {
        MicroOp::store(kA, 1, 8),  MicroOp::clwb(kA),
        MicroOp::sfence(),         MicroOp::pcommit(),
        MicroOp::sfence(),         MicroOp::store(kA + 64, 2, 8),
        MicroOp::alu(50),
    };
    SimConfig cfg;
    cfg.sp.enabled = sp;
    MemImage durable;
    Stats stats;
    TraceOptions opts;
    opts.categories = kTraceAll;
    // The text line is emitted at publish time; nothing is retained.
    opts.retainEvents = false;
    Tracer tracer(opts);
    std::ostringstream sink;
    tracer.setTextSink(&sink);
    TraceProgram prog(std::move(ops));
    MemSystem mc(cfg.mem, durable);
    CacheHierarchy caches(cfg, mc);
    OooCore core(cfg, prog, caches, mc, stats);
    core.setTracer(&tracer);
    core.run();
    return sink.str();
}

} // namespace

TEST(TraceSink, SpeculativeRunShowsLifecycle)
{
    std::string out = runTraced(true);
    EXPECT_NE(out.find("SPECULATE"), std::string::npos);
    EXPECT_NE(out.find("COMMIT"), std::string::npos);
    EXPECT_NE(out.find("retire*"), std::string::npos); // speculative
    EXPECT_NE(out.find("pcommit"), std::string::npos);
}

TEST(TraceSink, NonSpeculativeRunHasNoSpecEvents)
{
    std::string out = runTraced(false);
    EXPECT_EQ(out.find("SPECULATE"), std::string::npos);
    EXPECT_EQ(out.find("retire*"), std::string::npos);
    EXPECT_NE(out.find("retire "), std::string::npos);
}

TEST(TraceSink, AluNoiseSuppressed)
{
    std::string out = runTraced(false);
    EXPECT_EQ(out.find("alu"), std::string::npos);
}

TEST(MultiMc, WorkloadRunsProduceSameResults)
{
    // Controller count is a performance knob, never a correctness one.
    RunConfig one = makeRunConfig(WorkloadKind::kBTree,
                                  PersistMode::kLogPSf, true);
    one.params.initOps = 300;
    one.params.simOps = 30;
    RunConfig two = one;
    two.sim.mem.numMemCtrls = 2;
    RunResult r1 = runExperiment(one);
    RunResult r2 = runExperiment(two);
    EXPECT_EQ(r1.stats.instructions, r2.stats.instructions);
    EXPECT_EQ(r1.stats.pcommits, r2.stats.pcommits);
    auto w = makeWorkload(one.kind, one.params);
    EXPECT_EQ(w->contents(r1.durable), w->contents(r2.durable));
}

TEST(MultiMc, CrashRecoveryStillExact)
{
    RunConfig cfg = makeRunConfig(WorkloadKind::kBTree,
                                  PersistMode::kLogPSf, true);
    cfg.params.initOps = 250;
    cfg.params.simOps = 25;
    cfg.sim.mem.numMemCtrls = 2;
    RunResult full = runExperiment(cfg);
    for (unsigned i = 1; i <= 5; ++i) {
        Tick at = full.stats.cycles * i / 6;
        RunResult crashed = runExperiment(cfg, at);
        recoverImage(crashed.durable);
        uint64_t gen = Workload::generation(crashed.durable);
        auto replay = makeWorkload(cfg.kind, cfg.params);
        replay->setup();
        replay->runFunctionalToGeneration(gen);
        std::string why;
        ASSERT_TRUE(replay->checkImage(crashed.durable, &why))
            << "crash @ " << at << ": " << why;
        ASSERT_EQ(replay->contents(crashed.durable),
                  replay->contents(replay->image()));
    }
}

TEST(MultiMc, FlushLatencyHistogramPopulated)
{
    RunConfig cfg = makeRunConfig(WorkloadKind::kLinkedList,
                                  PersistMode::kLogPSf, false);
    cfg.params.initOps = 100;
    cfg.params.simOps = 10;
    RunResult r = runExperiment(cfg);
    EXPECT_EQ(r.stats.flushLatency.samples(), r.stats.pcommits);
    // Paper: persist barriers take 100s of cycles.
    EXPECT_GT(r.stats.flushLatency.mean(), 100.0);
}
