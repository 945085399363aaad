/**
 * @file
 * The event-driven fast-forward contract: jumping the clock to the next
 * event tick (SimConfig::eventSkip, the default) must be invisible in
 * every architectural observable. Each configuration runs twice -- once
 * through the one-cycle-at-a-time oracle loop and once with cycle
 * skipping -- and the two runs must produce bit-identical Stats (full
 * CSV serialization), identical trace summaries, and identical durable
 * memory images. The grid crosses every workload with tracing on/off
 * and adversarial conflict injection on/off, plus a mid-run crash
 * snapshot, so the skip logic is exercised under sampled counters,
 * absolute-time probe schedules, and partial runs.
 *
 * The grid also covers serial-chain jumps (OooCore::jumpChain), which
 * run only on the event-skip clock: on the chain-bound workloads,
 * speculating or not, traced or not and with conflict probes or not,
 * they must engage on the skip clock and never on the oracle clock.
 *
 * Also here: long-run steady-state bounds. A max_cycles-scale run must
 * not accumulate unbounded bookkeeping (persist acks, flush flights,
 * controller flush records); the pipeline structures must stay at their
 * configured capacities.
 *
 * If BitIdentity fails, some component consumed time at a granularity
 * nextEventTick() does not report -- fix the event calculation, do not
 * loosen the comparison.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cpu/ooo_core.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "isa/program.hh"
#include "mem/cache_hierarchy.hh"
#include "mem/mem_system.hh"
#include "pmem/op_emitter.hh"

using namespace sp;

namespace
{

struct Fingerprint
{
    std::string stats;
    std::string trace;
    uint64_t imageHash;
    bool completed;
    RunOutcome outcome;
    uint64_t generation;

    bool operator==(const Fingerprint &o) const = default;
};

Fingerprint
fingerprint(const RunResult &r)
{
    return {statsCsvRow("", r.stats),
            r.trace.enabled ? r.trace.toJson() : std::string(),
            r.durable.hash(),
            r.completed,
            r.outcome,
            r.functionalGeneration};
}

struct Cell
{
    RunConfig cfg;
    Tick crashAtCycle = 0;
    std::string name;
    /** The skip run must take the serial-chain fast path. */
    bool chainPath = false;
    /** Both runs must abort, so the clocks are compared across replays. */
    bool aborts = false;
};

/** Workloads x {tracing, conflicts}, small enough for the oracle loop. */
std::vector<Cell>
bitIdentityGrid()
{
    std::vector<Cell> cells;
    // conflictPeriod 0 = no conflict adversary.
    auto add = [&](WorkloadKind kind, PersistMode mode, bool sp,
                   bool tracing, Tick conflictPeriod, Tick crashAt = 0,
                   bool chainPath = false,
                   ConflictPolicy policy = ConflictPolicy::kUniform) {
        Cell cell;
        cell.cfg.kind = kind;
        cell.cfg.params.seed = 42;
        cell.cfg.params.initOps = 200;
        cell.cfg.params.simOps = 25;
        cell.cfg.params.mode = mode;
        cell.cfg.sim.sp.enabled = sp;
        if (tracing)
            cell.cfg.trace.categories = kTraceAll;
        if (conflictPeriod) {
            cell.cfg.sim.fault.conflict.enabled = true;
            cell.cfg.sim.fault.conflict.period = conflictPeriod;
            cell.cfg.sim.fault.conflict.seed = 7;
            cell.cfg.sim.fault.conflict.policy = policy;
        }
        cell.crashAtCycle = crashAt;
        cell.chainPath = chainPath;
        cell.aborts = policy == ConflictPolicy::kTrailWriter;
        cell.name = workloadKindName(kind) + std::string("/") +
            persistModeName(mode) + (sp ? "/sp" : "") +
            (tracing ? "/trace" : "") +
            (conflictPeriod ? "/conflict" + std::to_string(conflictPeriod)
                            : "") +
            (cell.aborts ? std::string("/") + conflictPolicyName(policy)
                         : "") +
            (crashAt ? "/crash" : "");
        cells.push_back(cell);
    };

    // Jumps must engage on the chain-bound workloads whatever is
    // attached: a jump ends before each counter sample and probe draw.
    auto chainBound = [](WorkloadKind kind) {
        return kind == WorkloadKind::kGraph ||
            kind == WorkloadKind::kHashMap ||
            kind == WorkloadKind::kLinkedList ||
            kind == WorkloadKind::kStringSwap;
    };
    for (WorkloadKind kind : allWorkloadKinds()) {
        for (bool tracing : {false, true}) {
            for (Tick conflictPeriod : {0, 2000})
                add(kind, PersistMode::kLogPSf, true, tracing,
                    conflictPeriod, 0, chainBound(kind));
        }
    }
    // Non-speculative and barrier-free variants take different stall
    // paths through skipIdleCycles(); cover them on one workload each.
    add(WorkloadKind::kLinkedList, PersistMode::kLogPSf, false, true, 0);
    add(WorkloadKind::kBTree, PersistMode::kLogP, false, false, 0);
    // Short-period probes: a draw every 50 cycles, so the skip clock
    // must stop forty times as often as in the period-2000 cells.
    for (WorkloadKind kind : {WorkloadKind::kLinkedList, WorkloadKind::kBTree})
        add(kind, PersistMode::kLogPSf, true, false, 50);
    // Uniform probes over the whole footprint almost never hit the BLT.
    // Probes that trail the core's speculative writes abort, so these
    // cells compare the clocks across aborts and replays.
    for (WorkloadKind kind : {WorkloadKind::kLinkedList, WorkloadKind::kBTree})
        add(kind, PersistMode::kLogPSf, true, false, 50, 0, false,
            ConflictPolicy::kTrailWriter);
    // The fence_sim benchmark's Base and Log+P+Sf cells without SP (its
    // SP cells are in the grid above).
    for (WorkloadKind kind :
         {WorkloadKind::kGraph, WorkloadKind::kHashMap,
          WorkloadKind::kLinkedList, WorkloadKind::kStringSwap}) {
        for (PersistMode mode : {PersistMode::kNone, PersistMode::kLogPSf})
            add(kind, mode, false, false, 0, 0, true);
    }
    // A crashed run's snapshot must also be skip-schedule independent.
    add(WorkloadKind::kStringSwap, PersistMode::kLogPSf, true, true, 2000,
        5000);
    return cells;
}

} // namespace

TEST(FastForward, BitIdentity)
{
    for (const Cell &cell : bitIdentityGrid()) {
        RunConfig tick = cell.cfg;
        tick.sim.eventSkip = false;
        RunConfig skip = cell.cfg;
        skip.sim.eventSkip = true;

        RunResult oracleRun = runExperiment(tick, cell.crashAtCycle);
        RunResult fastRun = runExperiment(skip, cell.crashAtCycle);
        Fingerprint oracle = fingerprint(oracleRun);
        Fingerprint fast = fingerprint(fastRun);

        EXPECT_EQ(oracleRun.perf.chainJumpCycles, 0u) << cell.name;
        if (cell.chainPath) {
            EXPECT_GT(fastRun.perf.chainJumpCycles, 0u) << cell.name;
        }
        if (cell.aborts) {
            EXPECT_GT(oracleRun.stats.aborts, 0u) << cell.name;
        }

        EXPECT_EQ(oracle.stats, fast.stats) << cell.name;
        EXPECT_EQ(oracle.trace, fast.trace) << cell.name;
        EXPECT_EQ(oracle.imageHash, fast.imageHash) << cell.name;
        EXPECT_EQ(oracle.completed, fast.completed) << cell.name;
        EXPECT_EQ(oracle.outcome, fast.outcome) << cell.name;
        EXPECT_EQ(oracle.generation, fast.generation) << cell.name;
    }
}

// Chain jumps must carry the steady state of a chain-bound run, or a
// change to their entry test can switch them off without any
// fingerprint noticing. They are the event-skip clock's alone.
TEST(FastForward, ChainFastPathCarriesSteadyState)
{
    RunConfig cfg;
    cfg.kind = WorkloadKind::kLinkedList;
    cfg.params.seed = 42;
    cfg.params.initOps = 200;
    cfg.params.simOps = 25;
    cfg.params.mode = PersistMode::kNone;

    RunResult skip = runExperiment(cfg);
    ASSERT_TRUE(skip.completed);
    EXPECT_GE(skip.perf.chainJumpCycles * 5, skip.stats.cycles * 4)
        << skip.perf.chainJumpCycles << " of " << skip.stats.cycles
        << " cycles jumped";

    cfg.sim.eventSkip = false;
    RunResult tick = runExperiment(cfg);
    EXPECT_EQ(tick.perf.chainJumpCycles, 0u);
    EXPECT_EQ(statsCsvRow("", tick.stats), statsCsvRow("", skip.stats));
}

// The same under speculation: an SP run's chains mostly execute while
// a pcommit drains, with an empty SSB, and jumps must carry them.
TEST(FastForward, SpecChainJumpsCarrySteadyState)
{
    RunConfig cfg;
    cfg.kind = WorkloadKind::kLinkedList;
    cfg.params.seed = 42;
    cfg.params.initOps = 200;
    cfg.params.simOps = 25;
    cfg.params.mode = PersistMode::kLogPSf;
    cfg.sim.sp.enabled = true;

    RunResult skip = runExperiment(cfg);
    ASSERT_TRUE(skip.completed);
    EXPECT_GT(skip.stats.epochsStarted, 0u);
    EXPECT_GE(skip.perf.chainJumpCycles * 5, skip.stats.cycles * 4)
        << skip.perf.chainJumpCycles << " of " << skip.stats.cycles
        << " cycles jumped";

    cfg.sim.eventSkip = false;
    RunResult tick = runExperiment(cfg);
    EXPECT_EQ(tick.perf.chainJumpCycles, 0u);
    EXPECT_EQ(statsCsvRow("", tick.stats), statsCsvRow("", skip.stats));
}

// A speculative jump must not cover the cycle at which the epoch
// manager ends speculation. One chain runs while the core speculates
// past a pcommit, and speculation ends on whichever comes last:
//  - the flush completes (a controller event);
//  - the clwb's persist ack arrives (a slow controller round trip);
//  - the store buffer drains its misses, long after the flush. The
//    exit cycle is then the first one in chain shape, and the jump must
//    wait until the epoch manager has seen the drained state.
// The oracle clock, cut one cycle at a time, finds the last cycle the
// core speculates. The skip clock, run in one call to just before and
// just after that cycle, must agree, with its jumps free to reach it.
TEST(FastForward, SpecChainJumpsStopAtEpochEvents)
{
    enum class Last { kFlush, kAck, kStoreBuffer };
    struct Core
    {
        SimConfig cfg;
        MemImage image, durable;
        OpEmitter em{image, PersistMode::kLogPSf};
        bool emitted = false;
        Stats stats;
        MemSystem mc{cfg.mem, durable};
        CacheHierarchy caches{cfg, mc};
        OooCore core{cfg, em, caches, mc, stats};

        Core(Last last, bool skip)
            : cfg(config(last, skip))
        {
            em.setGenerator([this, last] {
                if (emitted)
                    return false;
                emitted = true;
                em.store(0x100000, 1, 8);
                em.clwb(0x100000);
                if (last == Last::kStoreBuffer) {
                    // Cold blocks: the store buffer drains them one
                    // miss at a time.
                    for (unsigned i = 0; i < 12; ++i)
                        em.store(0x200000 + 4096 * i, i, 8);
                }
                em.pcommit();
                em.sfence();
                em.aluChain(6000);
                return true;
            });
            mc.setStats(&stats);
            caches.setStats(&stats);
        }

        static SimConfig
        config(Last last, bool skip)
        {
            SimConfig cfg;
            cfg.eventSkip = skip;
            cfg.sp.enabled = true;
            if (last == Last::kAck)
                cfg.mem.ctrlRoundTrip = 2000;
            return cfg;
        }
    };
    for (Last last : {Last::kFlush, Last::kAck, Last::kStoreBuffer}) {
        SCOPED_TRACE(static_cast<int>(last));
        Core oracle(last, false);
        Tick spec_end = 0;
        for (Tick t = 1; !oracle.core.runUntil(t); ++t) {
            if (oracle.core.speculating())
                spec_end = t;
        }
        ASSERT_GT(spec_end, 0u);

        Core before(last, true);
        before.core.runUntil(spec_end);
        ASSERT_EQ(before.core.now(), spec_end);
        EXPECT_TRUE(before.core.speculating());
        if (last != Last::kStoreBuffer) {
            EXPECT_GT(before.core.chainJumpCycles(), 0u);
        }

        Core after(last, true);
        after.core.runUntil(spec_end + 1);
        ASSERT_EQ(after.core.now(), spec_end + 1);
        EXPECT_FALSE(after.core.speculating());
        after.core.run();
        EXPECT_GT(after.core.chainJumpCycles(), 0u);
        EXPECT_EQ(statsCsvRow("", oracle.stats), statsCsvRow("", after.stats));
    }
}

// The jump's entry test must hold up on machines whose queues are not
// the Table 2 sizes. With an issue queue deeper than the fetch queue, a
// chain can reach the ROB head while dispatch still streams at full
// width; stepCycle() then dispatches several ops, so a jump (one op per
// cycle) must wait until the issue queue is full.
TEST(FastForward, ChainFastPathMatchesOracleOnOtherQueueSizes)
{
    for (unsigned iq : {48u, 64u, 100u}) {
        std::string csv[2];
        uint64_t jumped[2] = {};
        for (bool skip : {false, true}) {
            SimConfig cfg;
            cfg.eventSkip = skip;
            cfg.core.issueQueueSize = iq;
            MemImage image, durable;
            OpEmitter em(image, PersistMode::kNone);
            bool emitted = false;
            em.setGenerator([&] {
                if (emitted)
                    return false;
                emitted = true;
                em.aluChain(8);
                // More loads than the LSQ holds: dispatch blocks, the
                // fetch queue fills, then dispatch streams again once
                // the loads retire.
                for (unsigned i = 0; i < 60; ++i)
                    em.load(0x10000000 + (i % 8) * 8, 8);
                em.aluChain(400);
                return true;
            });
            Stats stats;
            MemSystem mc(cfg.mem, durable);
            CacheHierarchy caches(cfg, mc);
            mc.setStats(&stats);
            caches.setStats(&stats);
            OooCore core(cfg, em, caches, mc, stats);
            core.run();
            csv[skip] = statsCsvRow("", stats);
            jumped[skip] = core.chainJumpCycles();
        }
        EXPECT_EQ(csv[0], csv[1]) << "issue queue " << iq;
        EXPECT_EQ(jumped[0], 0u) << "issue queue " << iq;
        EXPECT_GT(jumped[1], 0u) << "issue queue " << iq;
    }
}

// Chain runs longer than the completion ring (8192 slots) and the
// replay window's 4096-op release stride. A jump never reuses a ring
// slot an op in flight holds, so one run takes several jumps, and the
// window is released inside them. The emitter delivers the runs from
// its queue records: after a persist barrier, then a second run chained
// to the first, whose record starts with `dep = 1`.
TEST(FastForward, ChainJumpsSpanLongRuns)
{
    struct Outcome
    {
        std::string csv;
        uint64_t durableHash = 0;
        size_t windowHighWater = 0;
        uint64_t jumped = 0;
    };
    auto run = [](bool skip) {
        SimConfig cfg;
        cfg.eventSkip = skip;
        MemImage image, durable;
        OpEmitter em(image, PersistMode::kLogPSf);
        unsigned left = 4;
        em.setGenerator([&] {
            if (left == 0)
                return false;
            Addr a = 0x10000 + 64 * left;
            em.store(a, left, 8);
            em.clwb(a);
            em.sfence();
            OpEmitter::Handle h = em.aluChain(20000);
            em.aluChain(9000, h);
            --left;
            return true;
        });
        Stats stats;
        MemSystem mc(cfg.mem, durable);
        CacheHierarchy caches(cfg, mc);
        mc.setStats(&stats);
        caches.setStats(&stats);
        OooCore core(cfg, em, caches, mc, stats);
        core.run();
        Outcome out;
        out.csv = statsCsvRow("", stats);
        out.durableHash = durable.hash();
        std::vector<PoolStat> pools;
        core.collectPoolStats(pools);
        for (const PoolStat &p : pools) {
            if (p.name == "program.window")
                out.windowHighWater = p.highWater;
        }
        out.jumped = core.chainJumpCycles();
        return out;
    };
    Outcome tick = run(false);
    Outcome jump = run(true);
    EXPECT_EQ(tick.csv, jump.csv);
    EXPECT_EQ(tick.durableHash, jump.durableHash);
    EXPECT_EQ(tick.windowHighWater, jump.windowHighWater);
    EXPECT_GT(tick.windowHighWater, 0u);
    EXPECT_EQ(tick.jumped, 0u);
    // Each 20000-element run needs at least three jumps.
    EXPECT_GE(jump.jumped, 4u * 25000);
}

// A barrier-free (Log+P) stream retires one clwb + one pcommit per
// record and never reaches a fence that would clear the core's persist
// bookkeeping. Before compaction, persistAcks_ and flushes_ grew one
// entry per op for the whole run; the controller kept a record per
// flush forever. Running in 50000-cycle chunks checks the steady state,
// not just the final (drained) state.
TEST(FastForward, LongRunStateStaysBounded)
{
    constexpr unsigned kRecords = 3000;
    constexpr Addr kBase = 0x10000000;
    std::vector<MicroOp> ops;
    ops.reserve(kRecords * 3);
    for (unsigned i = 0; i < kRecords; ++i) {
        Addr addr = kBase + (i % 64) * kBlockBytes;
        ops.push_back(MicroOp::store(addr, i, 8));
        ops.push_back(MicroOp::clwb(addr));
        ops.push_back(MicroOp::pcommit());
    }

    SimConfig cfg;
    MemImage durable;
    Stats stats;
    TraceProgram prog(std::move(ops));
    MemSystem mc(cfg.mem, durable);
    CacheHierarchy caches(cfg, mc);
    mc.setStats(&stats);
    caches.setStats(&stats);
    OooCore core(cfg, prog, caches, mc, stats);

    // Far larger than any compaction threshold or queue capacity, far
    // smaller than the ~6000 entries an uncompacted run accumulates.
    constexpr size_t kBound = 256;
    while (!core.done()) {
        core.runUntil(core.now() + 50000);
        EXPECT_LT(core.persistAckBacklog(), kBound);
        EXPECT_LT(core.flushFlightBacklog(), kBound);
        EXPECT_LT(mc.flushRecordCount(), kBound);
        EXPECT_LE(core.robOccupancy(), cfg.core.robSize);
        EXPECT_LE(core.unissuedBacklog(), cfg.core.issueQueueSize);
    }
    EXPECT_EQ(stats.pcommits, kRecords);
    // No fence ever acked the tail flushes, so records may remain at
    // done(); once the WPQ drains they must all be reclaimed.
    mc.advanceTo(core.now() + 10'000'000);
    EXPECT_EQ(mc.flushRecordCount(), 0u);
}
