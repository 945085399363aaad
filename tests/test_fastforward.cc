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
 * The grid also covers the serial-chain fast path
 * (OooCore::stepChainCycle), which runs only on the event-skip clock:
 * observer-free, conflict-free, non-speculative runs, where it must
 * engage on the skip clock and never on the oracle clock.
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
};

/** Workloads x {tracing, conflicts}, small enough for the oracle loop. */
std::vector<Cell>
bitIdentityGrid()
{
    std::vector<Cell> cells;
    auto add = [&](WorkloadKind kind, PersistMode mode, bool sp,
                   bool tracing, bool conflicts, Tick crashAt = 0,
                   bool chainPath = false) {
        Cell cell;
        cell.cfg.kind = kind;
        cell.cfg.params.seed = 42;
        cell.cfg.params.initOps = 200;
        cell.cfg.params.simOps = 25;
        cell.cfg.params.mode = mode;
        cell.cfg.sim.sp.enabled = sp;
        if (tracing)
            cell.cfg.trace.categories = kTraceAll;
        if (conflicts) {
            cell.cfg.sim.fault.conflict.enabled = true;
            cell.cfg.sim.fault.conflict.period = 2000;
            cell.cfg.sim.fault.conflict.seed = 7;
        }
        cell.crashAtCycle = crashAt;
        cell.chainPath = chainPath;
        cell.name = workloadKindName(kind) + std::string("/") +
            persistModeName(mode) + (sp ? "/sp" : "") +
            (tracing ? "/trace" : "") + (conflicts ? "/conflict" : "") +
            (crashAt ? "/crash" : "");
        cells.push_back(cell);
    };

    for (WorkloadKind kind : allWorkloadKinds()) {
        for (bool tracing : {false, true}) {
            for (bool conflicts : {false, true})
                add(kind, PersistMode::kLogPSf, true, tracing, conflicts);
        }
    }
    // Non-speculative and barrier-free variants take different stall
    // paths through skipIdleCycles(); cover them on one workload each.
    add(WorkloadKind::kLinkedList, PersistMode::kLogPSf, false, true,
        false);
    add(WorkloadKind::kBTree, PersistMode::kLogP, false, false, false);
    // The runs the serial-chain fast path speeds up: observers off, no
    // conflicts, no speculation (the fence_sim benchmark's Base and
    // Log+P+Sf cells).
    for (WorkloadKind kind :
         {WorkloadKind::kGraph, WorkloadKind::kHashMap,
          WorkloadKind::kLinkedList, WorkloadKind::kStringSwap}) {
        for (PersistMode mode : {PersistMode::kNone, PersistMode::kLogPSf})
            add(kind, mode, false, false, false, 0, true);
    }
    // A crashed run's snapshot must also be skip-schedule independent.
    add(WorkloadKind::kStringSwap, PersistMode::kLogPSf, true, true, true,
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

        EXPECT_EQ(oracleRun.perf.chainFastCycles, 0u) << cell.name;
        if (cell.chainPath) {
            EXPECT_GT(fastRun.perf.chainFastCycles, 0u) << cell.name;
        }

        EXPECT_EQ(oracle.stats, fast.stats) << cell.name;
        EXPECT_EQ(oracle.trace, fast.trace) << cell.name;
        EXPECT_EQ(oracle.imageHash, fast.imageHash) << cell.name;
        EXPECT_EQ(oracle.completed, fast.completed) << cell.name;
        EXPECT_EQ(oracle.outcome, fast.outcome) << cell.name;
        EXPECT_EQ(oracle.generation, fast.generation) << cell.name;
    }
}

// The serial-chain fast path must carry the steady state of a chain-
// bound run, or a change to its entry test can switch it off without
// any fingerprint noticing. It is the event-skip clock's alone.
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
    EXPECT_GE(skip.perf.chainFastCycles * 5, skip.stats.cycles * 4)
        << skip.perf.chainFastCycles << " of " << skip.stats.cycles
        << " cycles on the fast path";

    cfg.sim.eventSkip = false;
    RunResult tick = runExperiment(cfg);
    EXPECT_EQ(tick.perf.chainFastCycles, 0u);
    EXPECT_EQ(statsCsvRow("", tick.stats), statsCsvRow("", skip.stats));
}

// The fast path's entry test must hold up on machines whose queues are
// not the Table 2 sizes. With an issue queue deeper than the fetch
// queue, a chain can reach the ROB head while dispatch still streams at
// full width; stepCycle() then dispatches several ops, so the fast path
// (one op) must stay off until the issue queue is full.
TEST(FastForward, ChainFastPathMatchesOracleOnOtherQueueSizes)
{
    std::vector<MicroOp> ops;
    for (unsigned i = 0; i < 8; ++i)
        ops.push_back(MicroOp::aluChain(1, i ? 1 : 0));
    // More loads than the LSQ holds: dispatch blocks, the fetch queue
    // fills, then dispatch streams again once the loads retire.
    for (unsigned i = 0; i < 60; ++i)
        ops.push_back(MicroOp::load(0x10000000 + (i % 8) * 8, 8));
    for (unsigned i = 0; i < 400; ++i)
        ops.push_back(MicroOp::aluChain(1, i ? 1 : 0));

    for (unsigned iq : {48u, 64u, 100u}) {
        std::string csv[2];
        uint64_t fast[2] = {};
        for (bool skip : {false, true}) {
            SimConfig cfg;
            cfg.eventSkip = skip;
            cfg.core.issueQueueSize = iq;
            MemImage durable;
            Stats stats;
            TraceProgram prog(ops);
            MemSystem mc(cfg.mem, durable);
            CacheHierarchy caches(cfg, mc);
            mc.setStats(&stats);
            caches.setStats(&stats);
            OooCore core(cfg, prog, caches, mc, stats);
            core.run();
            csv[skip] = statsCsvRow("", stats);
            fast[skip] = core.chainFastCycles();
        }
        EXPECT_EQ(csv[0], csv[1]) << "issue queue " << iq;
        EXPECT_EQ(fast[0], 0u) << "issue queue " << iq;
        EXPECT_GT(fast[1], 0u) << "issue queue " << iq;
    }
}

// A barrier-free (Log+P) stream retires one clwb + one pcommit per
// record and never reaches a fence that would clear the core's persist
// bookkeeping. Before compaction, persistAcks_ and flushes_ grew one
// entry per op for the whole run; the controller kept a record per
// flush forever. Sliced execution checks the steady state, not just
// the final (drained) state.
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
