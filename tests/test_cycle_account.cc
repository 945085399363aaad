/**
 * @file
 * The cycle-accounting contract (sim/cycle_account.hh), in four parts:
 *
 *  1. Exhaustiveness: for every workload x speculation x clocking x
 *     failure-injection cell, the exclusive categories sum exactly to
 *     Stats::cycles -- no cycle uncounted, none double counted --
 *     including crashed and conflict-riddled partial runs.
 *
 *  2. Pure observation: attaching an accountant never perturbs the
 *     simulation. Stats, the durable image, and sweep fingerprints are
 *     bit-identical with accounting on or off, for any worker count.
 *
 *  3. Telescoping: the fence_exposed category reproduces the existing
 *     Stats::fenceStallCycles counter exactly (same condition, same
 *     skip attribution), and the oracle tick loop and event-skip runs
 *     produce identical accounts.
 *
 *  4. The ledger: on a hand-built two-epoch stream the barrier-pending
 *     cycles decompose into hidden + exposed, episodes match the
 *     barrier count, and the window lengths cross-validate against the
 *     trace's own SPECULATE/pcommit event ticks.
 *
 * If exhaustiveness fails, OooCore::classifyCycle and the skip-span
 * attribution in skipIdleCycles disagree about some cycle -- fix the
 * classification, do not loosen the identity.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "cpu/ooo_core.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "isa/program.hh"
#include "mem/cache_hierarchy.hh"
#include "mem/mem_system.hh"
#include "sim/cycle_account.hh"
#include "sim/trace.hh"

using namespace sp;

namespace
{

struct Cell
{
    RunConfig cfg;
    Tick crashAtCycle = 0;
    std::string name;
};

/** Workloads x {sp, eventSkip}, plus crash and conflict cells. */
std::vector<Cell>
accountGrid()
{
    std::vector<Cell> cells;
    auto add = [&](WorkloadKind kind, bool sp, bool eventSkip,
                   bool conflicts = false, Tick crashAt = 0) {
        Cell cell;
        cell.cfg.kind = kind;
        cell.cfg.params.seed = 42;
        cell.cfg.params.initOps = 200;
        cell.cfg.params.simOps = 25;
        cell.cfg.params.mode = PersistMode::kLogPSf;
        cell.cfg.sim.sp.enabled = sp;
        cell.cfg.sim.eventSkip = eventSkip;
        cell.cfg.account.enabled = true;
        if (conflicts) {
            cell.cfg.sim.fault.conflict.enabled = true;
            cell.cfg.sim.fault.conflict.period = 2000;
            cell.cfg.sim.fault.conflict.seed = 7;
        }
        cell.crashAtCycle = crashAt;
        cell.name = workloadKindName(kind) + std::string(sp ? "/sp" : "") +
            (eventSkip ? "/skip" : "/tick") +
            (conflicts ? "/conflict" : "") + (crashAt ? "/crash" : "");
        cells.push_back(cell);
    };

    for (WorkloadKind kind : allWorkloadKinds()) {
        for (bool sp : {false, true}) {
            for (bool eventSkip : {false, true})
                add(kind, sp, eventSkip);
        }
    }
    // Partial runs must satisfy the identity too: the crash snapshot
    // and conflict-abort paths exit runUntil through different code.
    add(WorkloadKind::kStringSwap, true, true, false, 5000);
    add(WorkloadKind::kStringSwap, true, false, false, 5000);
    add(WorkloadKind::kBTree, true, true, true);
    add(WorkloadKind::kBTree, true, false, true);
    return cells;
}

struct Fingerprint
{
    std::string stats;
    uint64_t imageHash;
    bool completed;
    RunOutcome outcome;
    uint64_t generation;

    bool operator==(const Fingerprint &o) const = default;
};

Fingerprint
fingerprint(const RunResult &r)
{
    return {statsCsvRow("", r.stats), r.durable.hash(), r.completed,
            r.outcome, r.functionalGeneration};
}

/** Summary JSON minus totalWallMs, the one legitimately wall-clock-
 *  dependent field. */
std::string
stripWallMs(std::string json)
{
    size_t begin = json.find("\"totalWallMs\":");
    if (begin == std::string::npos)
        return json;
    size_t end = json.find(',', begin);
    json.erase(begin, end - begin + 1);
    return json;
}

/** A store that must persist, then a long fully-parallel compute tail
 *  speculation can overlap with the barrier drain. */
void
appendEpoch(std::vector<MicroOp> &ops, Addr addr, uint64_t value)
{
    ops.push_back(MicroOp::store(addr, value, 8));
    ops.push_back(MicroOp::clwb(addr));
    ops.push_back(MicroOp::pcommit());
    ops.push_back(MicroOp::sfence());
    ops.push_back(MicroOp::alu(5000));
}

struct LedgerRun
{
    Stats stats;
    CycleAccount account;
    std::vector<TraceEvent> events;
};

LedgerRun
runTwoEpochs(bool sp)
{
    SimConfig cfg;
    cfg.sp.enabled = sp;
    MemImage durable;
    LedgerRun out;

    std::vector<MicroOp> ops;
    appendEpoch(ops, 0x10000000, 1);
    appendEpoch(ops, 0x20000000, 2);

    TraceProgram prog(std::move(ops));
    MemSystem mc(cfg.mem, durable);
    CacheHierarchy caches(cfg, mc);
    mc.setStats(&out.stats);
    caches.setStats(&out.stats);
    OooCore core(cfg, prog, caches, mc, out.stats);

    TraceOptions topts;
    topts.categories = kTraceAll;
    Tracer tracer(topts);
    core.setTracer(&tracer);
    CycleAccountant accountant;
    core.setAccountant(&accountant);

    core.run();
    out.account = accountant.finalize(out.stats.cycles);
    out.events = tracer.events();
    return out;
}

} // namespace

TEST(CycleAccount, IdentityMatrix)
{
    for (const Cell &cell : accountGrid()) {
        RunResult r = runExperiment(cell.cfg, cell.crashAtCycle);
        ASSERT_TRUE(r.account.enabled) << cell.name;
        EXPECT_EQ(r.account.cycles, r.stats.cycles) << cell.name;
        EXPECT_EQ(r.account.total(), r.stats.cycles) << cell.name;
        EXPECT_TRUE(r.account.selfConsistent()) << cell.name;
        EXPECT_EQ(r.account.ledger.hiddenCycles +
                      r.account.ledger.exposedCycles,
                  r.account.ledger.barrierCycles)
            << cell.name;
    }
}

TEST(CycleAccount, FenceExposedTelescopesToStats)
{
    for (const Cell &cell : accountGrid()) {
        RunResult r = runExperiment(cell.cfg, cell.crashAtCycle);
        EXPECT_EQ(r.account.cat(CycleCat::kFenceExposed),
                  r.stats.fenceStallCycles)
            << cell.name;
    }
}

TEST(CycleAccount, AccountingIsAPureObserver)
{
    for (WorkloadKind kind : allWorkloadKinds()) {
        for (bool sp : {false, true}) {
            RunConfig off;
            off.kind = kind;
            off.params.seed = 42;
            off.params.initOps = 200;
            off.params.simOps = 25;
            off.params.mode = PersistMode::kLogPSf;
            off.sim.sp.enabled = sp;
            RunConfig on = off;
            on.account.enabled = true;

            RunResult plain = runExperiment(off);
            RunResult counted = runExperiment(on);
            std::string name = workloadKindName(kind) +
                std::string(sp ? "/sp" : "");
            EXPECT_FALSE(plain.account.enabled) << name;
            EXPECT_EQ(fingerprint(plain), fingerprint(counted)) << name;
        }
    }
}

TEST(CycleAccount, OracleAndSkipAccountsAgree)
{
    for (WorkloadKind kind :
         {WorkloadKind::kBTree, WorkloadKind::kHashMap,
          WorkloadKind::kStringSwap}) {
        for (bool sp : {false, true}) {
            RunConfig tick;
            tick.kind = kind;
            tick.params.seed = 42;
            tick.params.initOps = 200;
            tick.params.simOps = 25;
            tick.params.mode = PersistMode::kLogPSf;
            tick.sim.sp.enabled = sp;
            tick.sim.eventSkip = false;
            tick.account.enabled = true;
            RunConfig skip = tick;
            skip.sim.eventSkip = true;

            RunConfig bare = skip;
            bare.account.enabled = false;

            RunResult oracle = runExperiment(tick);
            RunResult fast = runExperiment(skip);
            std::string name =
                workloadKindName(kind) + std::string(sp ? "/sp" : "");
            EXPECT_EQ(oracle.account.toJson(), fast.account.toJson())
                << name;
            // The account rides the chain jumps: the skip clock jumps
            // exactly the cycles it jumps with no accountant attached.
            EXPECT_GT(fast.perf.chainJumpCycles, 0u) << name;
            EXPECT_EQ(fast.perf.chainJumpCycles,
                      runExperiment(bare).perf.chainJumpCycles)
                << name;
        }
    }

    // Probes that trail the core's speculative writes abort it, so the
    // replay frontier moves between jumps; the skip clock's account must
    // still be the oracle's.
    RunConfig tick;
    tick.kind = WorkloadKind::kLinkedList;
    tick.params.seed = 42;
    tick.params.initOps = 200;
    tick.params.simOps = 25;
    tick.params.mode = PersistMode::kLogPSf;
    tick.sim.sp.enabled = true;
    tick.sim.fault.conflict.enabled = true;
    tick.sim.fault.conflict.period = 50;
    tick.sim.fault.conflict.seed = 7;
    tick.sim.fault.conflict.policy = ConflictPolicy::kTrailWriter;
    tick.sim.eventSkip = false;
    tick.account.enabled = true;
    RunConfig skip = tick;
    skip.sim.eventSkip = true;
    RunResult oracle = runExperiment(tick);
    RunResult fast = runExperiment(skip);
    EXPECT_GT(oracle.account.cat(CycleCat::kAbortReplay), 0u);
    EXPECT_GT(fast.perf.chainJumpCycles, 0u);
    EXPECT_EQ(oracle.account.toJson(), fast.account.toJson());
}

TEST(CycleAccount, SweepMergeIsWorkerCountInvariant)
{
    std::vector<RunConfig> grid;
    for (WorkloadKind kind : allWorkloadKinds()) {
        RunConfig cfg;
        cfg.kind = kind;
        cfg.params.seed = 42;
        cfg.params.initOps = 200;
        cfg.params.simOps = 25;
        cfg.params.mode = PersistMode::kLogPSf;
        cfg.sim.sp.enabled = true;
        cfg.account.enabled = true;
        grid.push_back(cfg);
    }

    std::vector<std::vector<SweepRunResult>> byWorkers;
    std::vector<std::string> summaries;
    for (unsigned workers : {1u, 8u}) {
        SweepOptions opts;
        opts.workers = workers;
        std::vector<SweepRunResult> results = SweepEngine(opts).run(grid);
        ASSERT_EQ(results.size(), grid.size()) << workers << " workers";
        SweepSummary summary = summarizeSweep(results);
        EXPECT_EQ(summary.accountedRuns, grid.size())
            << workers << " workers";
        EXPECT_TRUE(summary.account.selfConsistent())
            << workers << " workers";
        summaries.push_back(stripWallMs(summary.toJson()));
        byWorkers.push_back(std::move(results));
    }
    for (size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(fingerprint(byWorkers[0][i].run),
                  fingerprint(byWorkers[1][i].run))
            << "run " << i;
        EXPECT_EQ(byWorkers[0][i].run.account.toJson(),
                  byWorkers[1][i].run.account.toJson())
            << "run " << i;
    }
    EXPECT_EQ(summaries[0], summaries[1]);
}

TEST(CycleAccount, MergeSumsRunsExactly)
{
    RunConfig cfg;
    cfg.kind = WorkloadKind::kBTree;
    cfg.params.seed = 42;
    cfg.params.initOps = 200;
    cfg.params.simOps = 25;
    cfg.params.mode = PersistMode::kLogPSf;
    cfg.sim.sp.enabled = true;
    cfg.account.enabled = true;
    RunConfig other = cfg;
    other.sim.sp.enabled = false;

    RunResult a = runExperiment(cfg);
    RunResult b = runExperiment(other);
    CycleAccount merged = a.account;
    merged.merge(b.account);
    EXPECT_TRUE(merged.selfConsistent());
    EXPECT_EQ(merged.cycles, a.account.cycles + b.account.cycles);
    EXPECT_EQ(merged.total(), a.account.total() + b.account.total());
    for (unsigned c = 0; c < kNumCycleCats; ++c) {
        EXPECT_EQ(merged.categories[c],
                  a.account.categories[c] + b.account.categories[c]);
    }
    EXPECT_EQ(merged.ledger.barrierCycles,
              a.account.ledger.barrierCycles +
                  b.account.ledger.barrierCycles);
    EXPECT_EQ(merged.ledger.episodeLatency.samples(),
              a.account.ledger.episodeLatency.samples() +
                  b.account.ledger.episodeLatency.samples());
}

// Two persist barriers, each followed by 5000 independent ALU ops (1250
// retire cycles at width 4) -- far more slack than the ~400-cycle WPQ
// drain, so with speculation both barrier windows should be almost
// entirely hidden behind compute.
TEST(CycleAccount, TwoEpochLedgerWithSpeculation)
{
    LedgerRun r = runTwoEpochs(true);
    const SpeculationLedger &ledger = r.account.ledger;

    EXPECT_EQ(ledger.specEpisodes, 2u);
    EXPECT_EQ(ledger.barrierEpisodes, 2u);
    EXPECT_EQ(ledger.hiddenCycles + ledger.exposedCycles,
              ledger.barrierCycles);
    EXPECT_GT(ledger.barrierCycles, 0u);
    // The compute tail dwarfs the drain: the windows are nearly all
    // hidden (a handful of edge cycles may classify as stalls).
    EXPECT_GE(ledger.hiddenCycles * 10, ledger.barrierCycles * 9);
    EXPECT_EQ(ledger.episodeLatency.samples(), 2u);
    EXPECT_EQ(ledger.episodeHidden.samples(), 2u);

    // Cross-validate the window lengths against the trace's own clock:
    // each window opens at a SPECULATE instant and closes when the
    // matching pcommit drain completes at the controller.
    std::vector<Tick> specAt, pcommitDone;
    for (const TraceEvent &e : r.events) {
        if (e.kind == TraceKind::kInstant && e.name == TraceName::kSpeculate)
            specAt.push_back(e.tick);
        if (e.kind == TraceKind::kAsyncEnd && e.name == TraceName::kPcommit)
            pcommitDone.push_back(e.tick);
    }
    ASSERT_EQ(specAt.size(), 2u);
    ASSERT_EQ(pcommitDone.size(), 2u);
    uint64_t traced = 0;
    for (size_t i = 0; i < 2; ++i) {
        ASSERT_GT(pcommitDone[i], specAt[i]);
        traced += pcommitDone[i] - specAt[i];
    }
    // The ledger counts pending cycles; the trace stamps the endpoint
    // ticks. Retirement notices the cleared gate within a cycle or two
    // of the controller event, so the two clocks agree to a few cycles
    // per window.
    uint64_t diff = ledger.barrierCycles > traced
        ? ledger.barrierCycles - traced
        : traced - ledger.barrierCycles;
    EXPECT_LE(diff, 8u) << "ledger " << ledger.barrierCycles
                        << " vs traced " << traced;
}

// The same stream without speculation exposes every barrier cycle: the
// ledger degenerates to the fence-stall counter.
TEST(CycleAccount, TwoEpochLedgerWithoutSpeculation)
{
    LedgerRun r = runTwoEpochs(false);
    const SpeculationLedger &ledger = r.account.ledger;

    EXPECT_EQ(ledger.specEpisodes, 0u);
    EXPECT_EQ(ledger.hiddenCycles, 0u);
    EXPECT_EQ(ledger.exposedCycles, ledger.barrierCycles);
    EXPECT_GT(ledger.barrierCycles, 0u);
    EXPECT_EQ(ledger.barrierCycles, r.stats.fenceStallCycles);
    EXPECT_EQ(r.account.cat(CycleCat::kFenceExposed),
              r.stats.fenceStallCycles);
}
