/**
 * @file
 * Unit tests: speculative persistence -- trigger conditions, epochs, the
 * sfence-pcommit-sfence peephole, structural-hazard stalls, Bloom/SSB/BLT
 * integration, probe aborts and rollback (paper Section 4).
 */

#include <gtest/gtest.h>

#include "cpu/ooo_core.hh"
#include "isa/program.hh"
#include "mem/cache_hierarchy.hh"
#include "mem/mem_system.hh"
#include "scripted_probes.hh"

using namespace sp;

namespace
{

constexpr Addr kA = 0x10000000;

/** One paper-style persist barrier. */
void
barrier(std::vector<MicroOp> &ops)
{
    ops.push_back(MicroOp::sfence());
    ops.push_back(MicroOp::pcommit());
    ops.push_back(MicroOp::sfence());
}

/** A transaction-ish burst: store+clwb then a barrier, repeated. */
std::vector<MicroOp>
barrierChain(unsigned barriers, unsigned trailing_alu = 400)
{
    std::vector<MicroOp> ops;
    for (unsigned i = 0; i < barriers; ++i) {
        ops.push_back(MicroOp::store(kA + i * 4096, i + 1, 8));
        ops.push_back(MicroOp::clwb(kA + i * 4096));
        barrier(ops);
    }
    for (unsigned i = 0; i < trailing_alu; ++i)
        ops.push_back(MicroOp::alu(1));
    return ops;
}

struct Machine
{
    SimConfig cfg;
    MemImage durable;
    Stats stats;

    explicit Machine(bool sp = true) { cfg.sp.enabled = sp; }

    Tick
    run(std::vector<MicroOp> ops,
        const std::vector<std::pair<Tick, Addr>> &probes = {})
    {
        TraceProgram prog(std::move(ops));
        MemSystem mc(cfg.mem, durable);
        CacheHierarchy caches(cfg, mc);
        mc.setStats(&stats);
        caches.setStats(&stats);
        OooCore core(cfg, prog, caches, mc, stats);
        ScriptedProbes scripted;
        for (auto &[t, a] : probes)
            scripted.add(t, a);
        core.setProbeSource(&scripted);
        core.run();
        caches.writebackAll();
        mc.drainAll();
        return stats.cycles;
    }
};

} // namespace

TEST(Spec, TriggersOnBlockedFenceBehindPcommit)
{
    Machine m;
    m.run(barrierChain(1));
    EXPECT_EQ(m.stats.epochsStarted, 1u);
    EXPECT_EQ(m.stats.epochsCommitted, 1u);
}

TEST(Spec, NoSpeculationWhenDisabled)
{
    Machine m(false);
    m.run(barrierChain(2));
    EXPECT_EQ(m.stats.epochsStarted, 0u);
    EXPECT_EQ(m.stats.ssbEnqueues, 0u);
}

TEST(Spec, SpeculationHidesBarrierLatency)
{
    Machine sp(true), nosp(false);
    Tick with = sp.run(barrierChain(4, 2000));
    Tick without = nosp.run(barrierChain(4, 2000));
    EXPECT_LT(with, without);
    // The bulk of 4 x ~325-cycle barrier waits should be gone.
    EXPECT_LT(without - with, 4u * 400);
    EXPECT_GT(without - with, 300u);
}

TEST(Spec, SpsPeepholeFoldsTriples)
{
    Machine m;
    m.run(barrierChain(4));
    // First barrier triggers; the following three fold into kSps.
    EXPECT_EQ(m.stats.spsTriples, 3u);
    EXPECT_EQ(m.stats.epochsStarted, 4u);
}

TEST(Spec, PeepholeDisableUsesMoreEpochs)
{
    Machine on(true), off(true);
    off.cfg.sp.spsPeephole = false;
    off.cfg.sp.checkpoints = 16; // room for the extra epochs
    on.run(barrierChain(4));
    off.run(barrierChain(4));
    EXPECT_EQ(off.stats.spsTriples, 0u);
    EXPECT_GT(off.stats.epochsStarted, on.stats.epochsStarted);
}

TEST(Spec, SpeculativeStoresEnterSsb)
{
    Machine m;
    std::vector<MicroOp> ops = barrierChain(1, 0);
    // Stores in the shadow of the barrier.
    for (int i = 0; i < 5; ++i)
        ops.push_back(MicroOp::store(kA + 0x8000 + i * 8, i, 8));
    for (int i = 0; i < 200; ++i)
        ops.push_back(MicroOp::alu(1));
    m.run(ops);
    EXPECT_GE(m.stats.ssbEnqueues, 5u);
    // The background drain keeps occupancy below the enqueue count.
    EXPECT_GE(m.stats.ssbMaxOccupancy, 3u);
}

TEST(Spec, SpeculativeStateStillPersists)
{
    Machine m;
    // Two full transactions' worth of barriers; everything must be
    // durable at the end regardless of speculation.
    m.run(barrierChain(4));
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(m.durable.readInt(kA + i * 4096, 8),
                  static_cast<uint64_t>(i + 1));
}

TEST(Spec, ExitResetsBloomAndBlt)
{
    Machine m;
    std::vector<MicroOp> ops = barrierChain(1, 0);
    ops.push_back(MicroOp::store(kA + 0x8000, 1, 8));
    // Long independent tail so speculation fully drains and exits.
    for (int i = 0; i < 3000; ++i)
        ops.push_back(MicroOp::alu(1));
    TraceProgram prog(std::move(ops));
    MemSystem mc(m.cfg.mem, m.durable);
    CacheHierarchy caches(m.cfg, mc);
    OooCore core(m.cfg, prog, caches, mc, m.stats);
    core.run();
    EXPECT_FALSE(core.speculating());
    EXPECT_EQ(core.bloom().popcount(), 0u);
    EXPECT_EQ(core.blt().size(), 0u);
    EXPECT_TRUE(core.ssb().empty());
}

TEST(Spec, CheckpointExhaustionStalls)
{
    Machine few(true), many(true);
    few.cfg.sp.checkpoints = 2;
    many.cfg.sp.checkpoints = 8;
    // Back-to-back barriers with no work between: needs many checkpoints.
    Tick t_few = few.run(barrierChain(6, 0));
    Tick t_many = many.run(barrierChain(6, 0));
    EXPECT_GT(few.stats.checkpointStallCycles,
              many.stats.checkpointStallCycles);
    EXPECT_GE(t_few, t_many);
}

TEST(Spec, TinySsbStalls)
{
    Machine small(true), big(true);
    small.cfg.sp.ssbEntries = 4;
    big.cfg.sp.ssbEntries = 256;
    std::vector<MicroOp> ops = barrierChain(1, 0);
    for (int i = 0; i < 64; ++i)
        ops.push_back(MicroOp::store(kA + 0x8000 + i * 8, i, 8));
    for (int i = 0; i < 100; ++i)
        ops.push_back(MicroOp::alu(1));
    small.run(ops);
    std::vector<MicroOp> ops2 = barrierChain(1, 0);
    for (int i = 0; i < 64; ++i)
        ops2.push_back(MicroOp::store(kA + 0x8000 + i * 8, i, 8));
    for (int i = 0; i < 100; ++i)
        ops2.push_back(MicroOp::alu(1));
    big.run(ops2);
    EXPECT_GT(small.stats.ssbFullStallCycles, 0u);
    EXPECT_EQ(big.stats.ssbFullStallCycles, 0u);
}

TEST(Spec, LoadsConsultBloomFilter)
{
    Machine m;
    std::vector<MicroOp> ops = barrierChain(1, 0);
    // A serial chain delays the following ops' issue until after the
    // fence has triggered speculation but before the pcommit completes
    // (loads execute at issue, so without this they would run before the
    // speculative mode begins).
    for (int i = 0; i < 200; ++i)
        ops.push_back(MicroOp::aluChain(1, i == 0 ? 0 : 1));
    ops.push_back(MicroOp::store(kA + 0x8000, 42, 8, 1));
    for (int i = 0; i < 30; ++i)
        ops.push_back(MicroOp::aluChain(1, 1));
    // A load to the speculatively stored block: bloom hit (the filter is
    // only reset at speculation exit, even if the SSB already drained).
    ops.push_back(MicroOp::load(kA + 0x8000, 8, 1));
    // And a load elsewhere: bloom miss.
    ops.push_back(MicroOp::load(kA + 0xC000, 8, 2));
    for (int i = 0; i < 200; ++i)
        ops.push_back(MicroOp::alu(1));
    m.run(ops);
    EXPECT_GE(m.stats.bloomLookups, 2u);
    EXPECT_GE(m.stats.bloomHits, 1u);
}

TEST(Spec, StandalonePcommitDelayedInSsb)
{
    Machine m;
    std::vector<MicroOp> ops = barrierChain(1, 0);
    // A lone pcommit in the speculative shadow (no surrounding fences).
    ops.push_back(MicroOp::store(kA + 0x8000, 1, 8));
    ops.push_back(MicroOp::clwb(kA + 0x8000));
    ops.push_back(MicroOp::pcommit());
    for (int i = 0; i < 2000; ++i)
        ops.push_back(MicroOp::alu(1));
    m.run(ops);
    EXPECT_EQ(m.stats.pcommits, 2u);
    EXPECT_EQ(m.durable.readInt(kA + 0x8000, 8), 1u);
}

TEST(Spec, BareFenceWithoutPersistOpsRetiresSilently)
{
    // An sfence inside speculation whose epoch has no delayed PMEM ops
    // imposes nothing the SSB's FIFO does not already guarantee.
    Machine m;
    std::vector<MicroOp> ops = barrierChain(1, 0);
    ops.push_back(MicroOp::store(kA + 0x8000, 1, 8));
    ops.push_back(MicroOp::sfence()); // bare: no clwb/pcommit before it
    ops.push_back(MicroOp::store(kA + 0x8040, 2, 8));
    for (int i = 0; i < 2000; ++i)
        ops.push_back(MicroOp::alu(1));
    m.run(ops);
    // Only the trigger epoch: the bare fence spent no checkpoint.
    EXPECT_EQ(m.stats.epochsStarted, 1u);
}

TEST(Spec, ProbeConflictAborts)
{
    Machine m;
    std::vector<MicroOp> ops = barrierChain(1, 0);
    ops.push_back(MicroOp::store(kA + 0x8000, 7, 8));
    for (int i = 0; i < 4000; ++i)
        ops.push_back(MicroOp::alu(1));
    // Probe the speculatively written block while speculation is live.
    // The trigger happens shortly after the store buffer drains; probe
    // generously within the window.
    Tick t = m.run(ops, {{50, kA + 0x8000}, {80, kA + 0x8000},
                         {110, kA + 0x8000}, {140, kA + 0x8000},
                         {170, kA + 0x8000}, {200, kA + 0x8000}});
    (void)t;
    EXPECT_GE(m.stats.aborts, 1u);
    // Re-execution still produces the correct durable state.
    EXPECT_EQ(m.durable.readInt(kA, 8), 1u);
    EXPECT_EQ(m.durable.readInt(kA + 0x8000, 8), 7u);
}

TEST(Spec, ProbeToUntouchedBlockDoesNotAbort)
{
    Machine m;
    std::vector<MicroOp> ops = barrierChain(2, 1000);
    m.run(ops, {{60, kA + 0x70000}, {120, kA + 0x70000}});
    EXPECT_EQ(m.stats.aborts, 0u);
}

TEST(Spec, AbortAndReexecutionMatchesNonSpeculative)
{
    // The same trace with an abort mid-speculation must still produce
    // the exact same durable data as a non-speculative machine.
    auto build = [] {
        std::vector<MicroOp> ops;
        for (int i = 0; i < 3; ++i) {
            ops.push_back(MicroOp::store(kA + i * 4096, 100 + i, 8));
            ops.push_back(MicroOp::clwb(kA + i * 4096));
            barrier(ops);
            ops.push_back(MicroOp::store(kA + 0x40000 + i * 64, i, 8));
            ops.push_back(MicroOp::clwb(kA + 0x40000 + i * 64));
            barrier(ops);
        }
        for (int i = 0; i < 500; ++i)
            ops.push_back(MicroOp::alu(1));
        return ops;
    };
    Machine spec(true);
    std::vector<std::pair<Tick, Addr>> probes;
    for (Tick t = 40; t < 2000; t += 37)
        probes.emplace_back(t, kA + 0x40000);
    spec.run(build(), probes);
    EXPECT_GE(spec.stats.aborts, 1u);

    Machine plain(false);
    plain.run(build());
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(spec.durable.readInt(kA + i * 4096, 8),
                  plain.durable.readInt(kA + i * 4096, 8));
        EXPECT_EQ(spec.durable.readInt(kA + 0x40000 + i * 64, 8),
                  plain.durable.readInt(kA + 0x40000 + i * 64, 8));
    }
}

TEST(Spec, XchgFormsEpochBoundary)
{
    Machine m;
    std::vector<MicroOp> ops = barrierChain(1, 0);
    ops.push_back(MicroOp::store(kA + 0x8000, 1, 8));
    ops.push_back(MicroOp::clwb(kA + 0x8000)); // persist op in the epoch
    ops.push_back(MicroOp::xchg(kA + 0x9000, 5));
    for (int i = 0; i < 3000; ++i)
        ops.push_back(MicroOp::alu(1));
    m.run(ops);
    // Trigger epoch + child created at the xchg boundary.
    EXPECT_GE(m.stats.epochsStarted, 2u);
    EXPECT_EQ(m.durable.readInt(kA + 0x8000, 8), 1u);
}

TEST(Spec, CyclesNeverWorseThanDoubleNoSpec)
{
    // Sanity guard: speculation must never catastrophically regress.
    Machine sp(true), nosp(false);
    Tick with = sp.run(barrierChain(8, 500));
    Tick without = nosp.run(barrierChain(8, 500));
    EXPECT_LT(with, without + 100);
}

TEST(Spec, MaxInflightPcommitsBounded)
{
    Machine m;
    m.run(barrierChain(8, 200));
    // With 4 checkpoints there can be at most ~4 epochs' flushes live.
    EXPECT_LE(m.stats.maxInflightPcommits, 5u);
    EXPECT_GE(m.stats.maxInflightPcommits, 1u);
}
