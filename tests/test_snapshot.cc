/**
 * @file
 * The whole-simulator snapshot contract and the paths built on it
 * (harness/machine.hh, harness/sampled.hh, workloads/factory.hh).
 *
 *  - Round-trip bit-identity: for every workload (the seven Table-1
 *    kinds plus the incremental-logging AVL variant), SP on and off,
 *    oracle and event-skip clocks, and crash / conflict / media-fault
 *    cells: snapshot-at-T, serialize to bytes, deserialize, restore
 *    into a fresh deferred-setup machine, run to the end -- the Stats
 *    CSV, trace summary, audit report, cycle account, durable image
 *    hash, and outcome must be byte-identical to the uninterrupted run.
 *  - Rejection: version skew, config mismatch, and trailing bytes must
 *    throw SnapshotError, never read garbage.
 *  - Snapshot chain: a serial run cut at quiescent points and replayed
 *    cut to cut through one reused deferred-setup machine must
 *    reproduce the serial fingerprint exactly.
 *  - Pinned payload bytes: the SPSNAP01 payload of four cells at three
 *    cuts each is pinned by hash.
 *  - Sampled mode: deterministic across repeats, and a sane estimate.
 *
 * A failure here means some component hid timing-relevant state from
 * its serialize() -- extend it, do not loosen the test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "harness/machine.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/sampled.hh"
#include "sim/snapshot.hh"
#include "workloads/factory.hh"

using namespace sp;

namespace
{

struct Fingerprint
{
    std::string stats;
    std::string trace;
    std::string audit;
    std::string account;
    uint64_t imageHash = 0;
    bool completed = false;
    RunOutcome outcome = RunOutcome::kOk;
    uint64_t generation = 0;

    bool operator==(const Fingerprint &o) const = default;
};

Fingerprint
fingerprint(const RunResult &r)
{
    return {statsCsvRow("", r.stats),
            r.trace.enabled ? r.trace.toJson() : std::string(),
            r.audit.enabled ? r.audit.toJson() : std::string(),
            r.account.enabled ? r.account.toJson() : std::string(),
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
};

/** The seven Table-1 workloads plus the incremental-logging variant. */
std::vector<WorkloadKind>
snapshotKinds()
{
    std::vector<WorkloadKind> kinds = allWorkloadKinds();
    kinds.push_back(WorkloadKind::kAvlTreeIncremental);
    return kinds;
}

RunConfig
smallConfig(WorkloadKind kind, bool sp)
{
    RunConfig cfg;
    cfg.kind = kind;
    cfg.params = defaultParams(kind);
    cfg.params.seed = 42;
    cfg.params.initOps = 200;
    cfg.params.simOps = 60;
    cfg.params.mode = PersistMode::kLogPSf;
    cfg.sim.sp.enabled = sp;
    return cfg;
}

/** Every observer on: the widest possible snapshot payload. */
void
enableObservers(RunConfig &cfg)
{
    cfg.trace.categories = kTraceAll;
    cfg.audit.enabled = true;
    cfg.account.enabled = true;
}

std::vector<Cell>
roundTripGrid()
{
    std::vector<Cell> cells;
    for (WorkloadKind kind : snapshotKinds()) {
        for (bool sp : {false, true}) {
            Cell cell;
            cell.cfg = smallConfig(kind, sp);
            enableObservers(cell.cfg);
            cell.name = std::string(workloadKindName(kind)) +
                (sp ? "+SP" : "");
            cells.push_back(cell);
        }
    }

    // The clock-skew cell: the one-cycle-at-a-time oracle loop walks a
    // different (denser) step trajectory than event skip.
    {
        Cell cell;
        cell.cfg = smallConfig(WorkloadKind::kBTree, true);
        cell.cfg.sim.eventSkip = false;
        enableObservers(cell.cfg);
        cell.name = "BT+SP oracle-clock";
        cells.push_back(cell);
    }
    // Adversarial conflicts: the injector's Rng and probe schedule ride
    // the snapshot.
    {
        Cell cell;
        cell.cfg = smallConfig(WorkloadKind::kLinkedList, true);
        cell.cfg.sim.fault.conflict.enabled = true;
        cell.cfg.sim.fault.conflict.period = 2000;
        cell.cfg.sim.fault.conflict.seed = 7;
        cell.cfg.sim.fault.watchdog.enabled = true;
        enableObservers(cell.cfg);
        cell.name = "LL+SP conflicts";
        cells.push_back(cell);
    }
    // A crash cell: the run never completes; torn writes + NVMM write
    // jitter depend on the exact WPQ contents at the crash tick.
    {
        Cell cell;
        cell.cfg = smallConfig(WorkloadKind::kHashMap, true);
        cell.cfg.sim.fault.crash.tornWrites = true;
        cell.cfg.sim.fault.crash.pcommitJitterCycles = 32;
        cell.cfg.sim.fault.crash.seed = 42;
        cell.crashAtCycle = 120000;
        cell.name = "HM+SP crash";
        cells.push_back(cell);
    }
    // Media faults on top of the crash image.
    {
        Cell cell;
        cell.cfg = smallConfig(WorkloadKind::kLinkedList, true);
        cell.cfg.params.checksums = true;
        cell.cfg.sim.fault.media.enabled = true;
        cell.cfg.sim.fault.media.faults = 4;
        cell.cfg.sim.fault.media.seed = 42;
        cell.crashAtCycle = 100000;
        cell.name = "LL+SP crash+media";
        cells.push_back(cell);
    }
    return cells;
}

/** Serial run via the Machine API (identical to runExperiment). */
RunResult
serialRun(const Cell &cell)
{
    return runExperiment(cell.cfg, cell.crashAtCycle);
}

/**
 * The same run split at `snapAt`: run a producer machine to the tick,
 * snapshot, push the snapshot through the byte container, restore into
 * a fresh deferred-setup machine, and finish there.
 */
RunResult
roundTripRun(const Cell &cell, Tick snapAt)
{
    Tracer *tracer = nullptr;
    Machine producer(cell.cfg, tracer);
    producer.runUntil(snapAt);
    std::vector<uint8_t> bytes = producer.takeSnapshot().serialize();
    SimSnapshot snap = SimSnapshot::deserialize(bytes.data(), bytes.size());

    Machine resumed(cell.cfg, tracer, /*deferSetup=*/true);
    resumed.restoreSnapshot(snap);
    resumed.runUntil(cell.crashAtCycle != 0 ? cell.crashAtCycle
                                            : kTickNever);
    return resumed.finish(cell.crashAtCycle);
}

} // namespace

TEST(Snapshot, RoundTripBitIdentity)
{
    for (const Cell &cell : roundTripGrid()) {
        SCOPED_TRACE(cell.name);
        RunResult serial = serialRun(cell);
        Fingerprint want = fingerprint(serial);
        Tick cycles = serial.stats.cycles;
        // Early, middle, and late cuts; the ticks land wherever the step
        // trajectory puts them (runUntil may overshoot under event skip),
        // which is exactly what a real checkpoint does.
        for (Tick snapAt :
             {Tick(1000), Tick(cycles / 2), Tick(cycles - 1000)}) {
            SCOPED_TRACE("snapAt=" + std::to_string(snapAt));
            EXPECT_EQ(fingerprint(roundTripRun(cell, snapAt)), want);
        }
    }
}

TEST(Snapshot, RoundTripAtTickZero)
{
    // Degenerate but legal: a snapshot before the first step.
    Cell cell;
    cell.cfg = smallConfig(WorkloadKind::kBTree, true);
    enableObservers(cell.cfg);
    EXPECT_EQ(fingerprint(roundTripRun(cell, 0)),
              fingerprint(serialRun(cell)));
}

TEST(Snapshot, RejectsVersionSkew)
{
    Machine machine(smallConfig(WorkloadKind::kLinkedList, true));
    machine.runUntil(1000);
    std::vector<uint8_t> bytes = machine.takeSnapshot().serialize();
    // The version field sits right after the 8-byte magic.
    bytes[8] ^= 0xff;
    EXPECT_THROW(SimSnapshot::deserialize(bytes.data(), bytes.size()),
                 SnapshotError);
}

TEST(Snapshot, RejectsBadMagic)
{
    Machine machine(smallConfig(WorkloadKind::kLinkedList, true));
    machine.runUntil(1000);
    std::vector<uint8_t> bytes = machine.takeSnapshot().serialize();
    bytes[0] ^= 0xff;
    EXPECT_THROW(SimSnapshot::deserialize(bytes.data(), bytes.size()),
                 SnapshotError);
}

TEST(Snapshot, RejectsConfigMismatch)
{
    RunConfig cfg = smallConfig(WorkloadKind::kLinkedList, true);
    Machine machine(cfg);
    machine.runUntil(1000);
    SimSnapshot snap = machine.takeSnapshot();

    RunConfig other = cfg;
    other.params.seed = 43;
    Machine resumed(other, nullptr, /*deferSetup=*/true);
    EXPECT_THROW(resumed.restoreSnapshot(snap), SnapshotError);
}

TEST(Snapshot, RejectsTrailingBytes)
{
    RunConfig cfg = smallConfig(WorkloadKind::kLinkedList, true);
    Machine machine(cfg);
    machine.runUntil(1000);
    SimSnapshot snap = machine.takeSnapshot();
    snap.payload.push_back(0);
    Machine resumed(cfg, nullptr, /*deferSetup=*/true);
    EXPECT_THROW(resumed.restoreSnapshot(snap), SnapshotError);
}

TEST(Snapshot, RejectsTruncatedPayload)
{
    RunConfig cfg = smallConfig(WorkloadKind::kLinkedList, true);
    Machine machine(cfg);
    machine.runUntil(1000);
    SimSnapshot snap = machine.takeSnapshot();
    snap.payload.resize(snap.payload.size() / 2);
    Machine resumed(cfg, nullptr, /*deferSetup=*/true);
    EXPECT_THROW(resumed.restoreSnapshot(snap), SnapshotError);
}

TEST(Snapshot, RejectsCountsPastTheEnd)
{
    // A corrupt element count must fail as a snapshot error before any
    // container is sized from it.
    SnapshotWriter w;
    w.pod<uint64_t>(uint64_t(1) << 60);
    w.pod<uint64_t>(7);
    std::vector<uint8_t> bytes = w.take();
    auto reader = [&] { return SnapshotReader(bytes); };

    std::vector<uint64_t> vec;
    EXPECT_THROW(reader().podVec(vec), SnapshotError);
    RingDeque<uint64_t> ring;
    EXPECT_THROW(reader().ring(ring), SnapshotError);
    std::string str;
    EXPECT_THROW(reader().string(str), SnapshotError);
    std::vector<std::string> seq;
    EXPECT_THROW(reader().seq(seq, [](std::string &) {}), SnapshotError);
}

TEST(Snapshot, RejectsObserverMismatch)
{
    // A snapshot carrying audit state cannot restore into a machine
    // without the auditor: the section would be silently dropped.
    RunConfig cfg = smallConfig(WorkloadKind::kLinkedList, true);
    cfg.audit.enabled = true;
    Machine machine(cfg);
    machine.runUntil(1000);
    SimSnapshot snap = machine.takeSnapshot();

    RunConfig bare = cfg;
    bare.audit.enabled = false;
    Machine resumed(bare, nullptr, /*deferSetup=*/true);
    EXPECT_THROW(resumed.restoreSnapshot(snap), std::exception);
}

namespace
{

/**
 * Writes in the first controller's WPQ not yet on the device, read from
 * a machine payload: the controller section opens with that count.
 */
uint64_t
queuedWrites(const std::vector<uint8_t> &payload)
{
    static const char kTag[] = "MCTL";
    auto at = std::search(payload.begin(), payload.end(), kTag, kTag + 4);
    if (at == payload.end() || payload.end() - at < 12)
        return 0;
    uint64_t n = 0;
    std::memcpy(&n, &*(at + 4), sizeof n);
    return n;
}

std::vector<uint8_t>
machineBytes(Machine &m)
{
    SnapshotWriter w;
    m.serialize(w);
    return w.take();
}

/** Restore a probe from `cut` (taken at `at`), run it `cycles` cycles
 *  and count the cycles chain jumps carried. */
uint64_t
jumpCycles(const RunConfig &cfg, const std::vector<uint8_t> &cut, Tick at,
           Tick cycles)
{
    Machine probe(cfg, nullptr, /*deferSetup=*/true);
    SnapshotReader r(cut);
    probe.serialize(r);
    probe.runUntil(at + cycles);
    return probe.finish().perf.chainJumpCycles;
}

} // namespace

// A cut inside the serial-chain steady state: the coming cycle is
// jumped, so the snapshot holds fetch-queue slots built in place and a
// wake heap only the jump has touched. The resumed run must match the
// uninterrupted one, and a save right after the restore must reproduce
// the cut byte for byte.
TEST(Snapshot, CutInsideChainFastPath)
{
    for (PersistMode mode : {PersistMode::kNone, PersistMode::kLogPSf}) {
        RunConfig cfg = smallConfig(WorkloadKind::kLinkedList, false);
        cfg.params.mode = mode;
        SCOPED_TRACE(persistModeName(mode));
        RunResult serial = runExperiment(cfg);
        ASSERT_GT(serial.perf.chainJumpCycles, 0u);

        Machine producer(cfg);
        std::vector<uint8_t> cut;
        for (Tick at = serial.stats.cycles / 2; cut.empty(); at += 97) {
            ASSERT_LT(at, serial.stats.cycles) << "no steady-state cut";
            producer.runUntil(at);
            std::vector<uint8_t> bytes = machineBytes(producer);
            if (jumpCycles(cfg, bytes, producer.now(), 1) == 1)
                cut = std::move(bytes);
        }

        Machine resumed(cfg, nullptr, /*deferSetup=*/true);
        SnapshotReader r(cut);
        resumed.serialize(r);
        EXPECT_TRUE(r.exhausted());
        EXPECT_TRUE(machineBytes(resumed) == cut)
            << "save after restore differs from the cut";
        resumed.runUntil(kTickNever);
        RunResult result = resumed.finish();
        EXPECT_EQ(fingerprint(result), fingerprint(serial));
        EXPECT_GT(result.perf.chainJumpCycles, 0u);
    }

    // A limit inside a chain batch, with a write still queued in the
    // WPQ. A jump leaves the controller behind, so the batch must stop
    // at the limit and leave the controller where per-cycle stepping
    // does: the cut equals the oracle clock's. Log+P: with sfences the
    // WPQ has drained before every chain run.
    RunConfig cfg = smallConfig(WorkloadKind::kLinkedList, false);
    cfg.params.mode = PersistMode::kLogP;
    RunResult serial = runExperiment(cfg);
    constexpr Tick kSpan = 64;
    Machine batched(cfg);
    std::vector<uint8_t> prev, cut;
    Tick at = serial.stats.cycles / 4;
    for (; cut.empty(); at += kSpan) {
        ASSERT_LT(at, serial.stats.cycles) << "no cut inside a batch";
        batched.runUntil(at);
        std::vector<uint8_t> bytes;
        if (batched.now() == at)
            bytes = machineBytes(batched);
        // All kSpan cycles before the limit were jumped, so one batch
        // ran them and stopped at the limit.
        if (!prev.empty() && jumpCycles(cfg, prev, at - kSpan, kSpan) ==
                                 kSpan) {
            ASSERT_EQ(batched.now(), at) << "batch overshot its limit";
            if (queuedWrites(bytes) > 0)
                cut = bytes;
        }
        prev = std::move(bytes);
    }
    at -= kSpan;
    RunConfig oracleCfg = cfg;
    oracleCfg.sim.eventSkip = false;
    Machine oracle(oracleCfg);
    oracle.runUntil(at);
    ASSERT_EQ(oracle.now(), at);
    EXPECT_TRUE(machineBytes(oracle) == cut)
        << "cut inside a batch differs from the oracle clock's at " << at;

    Machine resumed(cfg, nullptr, /*deferSetup=*/true);
    SnapshotReader r(cut);
    resumed.serialize(r);
    EXPECT_TRUE(r.exhausted());
    resumed.runUntil(kTickNever);
    EXPECT_EQ(fingerprint(resumed.finish()), fingerprint(serial));
}

// Cuts a jump short (OooCore::jumpChain). Each limit below stops one
// jump that starts at `start`: across the issue queue (48, 49), the
// ROB plus fetch queue (97), and the replay window's 4096-op release
// stride (4095-4097), so a release falls inside the longest spans.
// The jump writes queue entries, ring slots and window entries in
// closed form and advances the controller only on exit, so each cut
// must save the bytes the oracle clock saves at the same tick. Log+P
// keeps a write queued in the WPQ when the jump starts. String swap:
// its 7000-element chains are the only ones long enough for a jump of
// 4097 cycles (linked list's are 3500).
//
// Then the same under speculation (linked list, SP): a speculative jump
// ends before the controller event at which a flush completes and the
// epoch manager commits. The cuts fall mid-jump in a live epoch, on the
// jump's last cycle, and at the completion tick.
//
// Also with observers and probes attached (linked list, SP): once with
// trace-all, the audit and the cycle account, and once with trail-writer
// probes that abort speculation, plus the account, cut after the first
// abort. A jump ends before each counter sample and probe draw and
// writes the account's ledger cursors as its last cycle would, so the
// cuts (a jump's first, middle, last and following cycle) save the
// oracle clock's bytes, and the resumed trace, audit and account equal
// the serial run's.
TEST(Snapshot, CutInsideChainJump)
{
    // Cut `cfg`'s run at each tick of `cuts`, restored from `start_bytes`
    // taken at `start`: the bytes must equal the oracle clock's at the
    // same tick, and the resumed run must finish as `serial` did.
    auto checkCuts = [](const RunConfig &cfg, const RunResult &serial,
                        const std::vector<uint8_t> &start_bytes, Tick start,
                        const std::vector<Tick> &cuts) {
        RunConfig oracle_cfg = cfg;
        oracle_cfg.sim.eventSkip = false;
        Machine oracle(oracle_cfg);
        for (Tick at : cuts) {
            SCOPED_TRACE(at - start);
            Machine jumped(cfg, nullptr, /*deferSetup=*/true);
            SnapshotReader r(start_bytes);
            jumped.serialize(r);
            jumped.runUntil(at);
            ASSERT_EQ(jumped.now(), at);
            std::vector<uint8_t> cut = machineBytes(jumped);
            oracle.runUntil(at);
            ASSERT_EQ(oracle.now(), at);
            EXPECT_TRUE(machineBytes(oracle) == cut)
                << "cut " << at - start << " cycles into a jump differs "
                << "from the oracle clock's";

            Machine resumed(cfg, nullptr, /*deferSetup=*/true);
            SnapshotReader rr(cut);
            resumed.serialize(rr);
            EXPECT_TRUE(rr.exhausted());
            resumed.runUntil(kTickNever);
            EXPECT_EQ(fingerprint(resumed.finish()), fingerprint(serial));
        }
    };

    constexpr Tick kLimits[] = {1, 2, 48, 49, 97, 4095, 4096, 4097};
    constexpr Tick kLongest = 4097;
    for (PersistMode mode : {PersistMode::kNone, PersistMode::kLogP}) {
        RunConfig cfg = smallConfig(WorkloadKind::kStringSwap, false);
        cfg.params.mode = mode;
        SCOPED_TRACE(persistModeName(mode));
        RunResult serial = runExperiment(cfg);

        // The first tick, on a 97-cycle grid, where one jump covers the
        // longest span (and, at Log+P, a write waits in the WPQ).
        Machine producer(cfg);
        std::vector<uint8_t> start_bytes;
        Tick start = 0;
        for (Tick at = 97; start_bytes.empty(); at += 97) {
            ASSERT_LT(at + kLongest, serial.stats.cycles)
                << "no jump spans " << kLongest << " cycles";
            producer.runUntil(at);
            if (producer.now() != at)
                continue;
            std::vector<uint8_t> bytes = machineBytes(producer);
            if (mode == PersistMode::kLogP && queuedWrites(bytes) == 0)
                continue;
            if (jumpCycles(cfg, bytes, at, kLongest) == kLongest) {
                start = at;
                start_bytes = std::move(bytes);
            }
        }

        std::vector<Tick> cuts;
        for (Tick n : kLimits)
            cuts.push_back(start + n);
        checkCuts(cfg, serial, start_bytes, start, cuts);
    }

    // Cycles `cfg` jumps back to back from `at` (restored from `bytes`).
    auto jumpedFrom = [](const RunConfig &cfg,
                         const std::vector<uint8_t> &bytes, Tick at) {
        Tick lo = 0, hi = 1;
        while (jumpCycles(cfg, bytes, at, hi) == hi) {
            lo = hi;
            hi *= 2;
        }
        while (hi - lo > 1) {
            Tick mid = lo + (hi - lo) / 2;
            (jumpCycles(cfg, bytes, at, mid) == mid ? lo : hi) = mid;
        }
        return lo;
    };

    RunConfig observed = smallConfig(WorkloadKind::kLinkedList, true);
    enableObservers(observed);
    RunConfig probed = smallConfig(WorkloadKind::kLinkedList, true);
    probed.sim.fault.conflict.enabled = true;
    probed.sim.fault.conflict.period = 50;
    probed.sim.fault.conflict.seed = 7;
    probed.sim.fault.conflict.policy = ConflictPolicy::kTrailWriter;
    probed.account.enabled = true;
    for (const RunConfig &c : {observed, probed}) {
        const bool probes = c.sim.fault.conflict.enabled;
        SCOPED_TRACE(probes ? "SP probes" : "SP observed");
        RunResult serial = runExperiment(c);
        ASSERT_EQ(serial.stats.aborts > 0, probes);
        // The first tick, on a 97-cycle grid (after an abort, with
        // probes), where a jump of at least 8 cycles starts.
        Machine producer(c);
        std::vector<uint8_t> start_bytes;
        Tick start = 0, span = 0;
        for (Tick at = 97; start_bytes.empty(); at += 97) {
            ASSERT_LT(at, serial.stats.cycles) << "no observed jump";
            producer.runUntil(at);
            if (producer.now() != at || (probes && !producer.stats().aborts))
                continue;
            std::vector<uint8_t> bytes = machineBytes(producer);
            span = jumpedFrom(c, bytes, at);
            if (span >= 8) {
                start = at;
                start_bytes = std::move(bytes);
            }
        }
        checkCuts(c, serial, start_bytes, start,
                  {start + 1, start + span / 2, start + span - 1,
                   start + span});
    }

    RunConfig cfg = smallConfig(WorkloadKind::kLinkedList, true);
    SCOPED_TRACE("SP");
    RunResult serial = runExperiment(cfg);
    ASSERT_EQ(serial.stats.aborts, 0u);
    // Epochs committed by the cycle at `at` (restored from `bytes`).
    auto commitsAt = [&](const std::vector<uint8_t> &bytes, Tick at) {
        Machine probe(cfg, nullptr, /*deferSetup=*/true);
        SnapshotReader r(bytes);
        probe.serialize(r);
        probe.runUntil(at);
        uint64_t before = probe.stats().epochsCommitted;
        probe.runUntil(at + 1);
        return probe.stats().epochsCommitted - before;
    };
    // The first tick, on a 97-cycle grid, inside a live epoch where a
    // jump of at least 8 cycles starts and ends at an epoch commit.
    Machine producer(cfg);
    std::vector<uint8_t> start_bytes;
    Tick start = 0, end = 0;
    for (Tick at = 97; start_bytes.empty(); at += 97) {
        ASSERT_LT(at, serial.stats.cycles)
            << "no speculative jump ends at a flush completion";
        producer.runUntil(at);
        const Stats &st = producer.stats();
        if (producer.now() != at || st.epochsStarted == st.epochsCommitted)
            continue;
        std::vector<uint8_t> bytes = machineBytes(producer);
        Tick span = jumpedFrom(cfg, bytes, at);
        if (span >= 8 && commitsAt(bytes, at + span) > 0) {
            start = at;
            end = at + span;
            start_bytes = std::move(bytes);
        }
    }
    checkCuts(cfg, serial, start_bytes, start,
              {start + (end - start) / 2, end - 1, end});
}

TEST(Snapshot, UntracedSnapshotRestoresIntoTracedMachine)
{
    // spcli --resume with trace flags: the snapshot has no tracer
    // section, the resuming machine has a caller-owned tracer, and the
    // run still matches the uninterrupted one.
    RunConfig cfg = smallConfig(WorkloadKind::kLinkedList, true);
    RunResult serial = runExperiment(cfg);
    Machine producer(cfg);
    producer.runUntil(serial.stats.cycles / 2);
    SimSnapshot snap = producer.takeSnapshot();

    TraceOptions opts;
    opts.categories = kTraceAll;
    opts.retainEvents = false;
    Tracer tracer(opts);
    Machine resumed(cfg, &tracer, /*deferSetup=*/true);
    resumed.restoreSnapshot(snap);
    resumed.runUntil(kTickNever);
    // The tracer saw only the resumed half; everything else is exact.
    Fingerprint got = fingerprint(resumed.finish());
    got.trace.clear();
    EXPECT_EQ(got, fingerprint(serial));
    EXPECT_GT(tracer.summary().events, 0u);
}

namespace
{

/** Advance to the next quiescent cut at or after `target` (or done). */
void
advanceToQuiescence(Machine &machine, Tick target)
{
    bool complete = machine.runUntil(target);
    while (!complete && !machine.quiescent())
        complete = machine.runUntil(machine.now() + 1);
}

/**
 * The serial snapshot chain. A producer runs `cfg` serially and is cut
 * on a geometric schedule (max(minChunk, now/target) more cycles, then
 * on to quiescence). Each cut is restored into one reused deferred-setup
 * machine, which must save the cut back byte for byte, and then runs to
 * the next cut, where its state must equal the producer's. The last cut
 * runs to completion; that machine's result is returned.
 */
RunResult
snapshotChain(const RunConfig &cfg, size_t *cutsOut)
{
    const Tick kMinChunk = 20000;
    const Tick kTargetCuts = 6;
    Machine producer(cfg);
    Machine replay(cfg, nullptr, /*deferSetup=*/true);
    std::vector<uint8_t> cut = machineBytes(producer);
    size_t cuts = 0;
    while (true) {
        SnapshotReader r(cut);
        replay.serialize(r);
        EXPECT_TRUE(r.exhausted());
        EXPECT_TRUE(machineBytes(replay) == cut)
            << "save after restore differs from cut " << cuts;

        advanceToQuiescence(producer,
                            producer.now() +
                                std::max(kMinChunk,
                                         producer.now() / kTargetCuts));
        if (producer.done())
            break;
        ++cuts;
        cut = machineBytes(producer);
        replay.runUntil(producer.now());
        EXPECT_EQ(replay.now(), producer.now()) << "cut " << cuts;
        EXPECT_TRUE(machineBytes(replay) == cut)
            << "replayed segment ends off the serial state at cut " << cuts;
    }
    replay.runUntil(kTickNever);
    *cutsOut = cuts;
    return replay.finish();
}

} // namespace

TEST(SnapshotChain, MatchesSerialWithObservers)
{
    // Full observers: the trace summary, cycle account and audit ride
    // every cut and must come out equal to the serial run's.
    for (WorkloadKind kind :
         {WorkloadKind::kBTree, WorkloadKind::kLinkedList,
          WorkloadKind::kGraph, WorkloadKind::kAvlTreeIncremental}) {
        SCOPED_TRACE(workloadKindName(kind));
        RunConfig cfg = smallConfig(kind, true);
        enableObservers(cfg);
        size_t cuts = 0;
        Fingerprint chained = fingerprint(snapshotChain(cfg, &cuts));
        EXPECT_EQ(chained, fingerprint(runExperiment(cfg)));
        EXPECT_GE(cuts, 2u);
    }
}

TEST(SnapshotChain, MatchesSerialObserverFree)
{
    // No trace, no account, no audit: stats and image still exact.
    RunConfig cfg = smallConfig(WorkloadKind::kRbTree, true);
    size_t cuts = 0;
    Fingerprint chained = fingerprint(snapshotChain(cfg, &cuts));
    EXPECT_EQ(chained, fingerprint(runExperiment(cfg)));
    EXPECT_GE(cuts, 2u);
}

TEST(Sampled, DeterministicAndSane)
{
    RunConfig cfg = smallConfig(WorkloadKind::kHashMap, true);
    cfg.params.simOps = 2000;
    cfg.account.enabled = true;

    SampledOptions opts;
    opts.samples = 6;
    opts.warmupOps = 32;
    opts.measureOps = 128;
    opts.workers = 4;

    SampledEstimate a = runSampledExperiment(cfg, opts);
    SampledEstimate b = runSampledExperiment(cfg, opts);
    EXPECT_EQ(a.toJson(), b.toJson());

    RunConfig exactCfg = cfg;
    exactCfg.account.enabled = false;
    RunResult exact = runExperiment(exactCfg);
    double actual = static_cast<double>(exact.stats.cycles);
    EXPECT_GT(a.estimatedCycles, 0.75 * actual);
    EXPECT_LT(a.estimatedCycles, 1.25 * actual);
    ASSERT_TRUE(a.hasShares);
    double shareSum = 0;
    for (double s : a.categoryShares)
        shareSum += s;
    // Shares partition the measured cycles (exclusive categories).
    EXPECT_NEAR(shareSum, 1.0, 1e-9);
    EXPECT_EQ(a.windows.size(), opts.samples);
    for (const SampleWindow &w : a.windows)
        EXPECT_GE(w.measuredOps, opts.measureOps / 2);
}

TEST(Sampled, WorkerCountInvariant)
{
    RunConfig cfg = smallConfig(WorkloadKind::kGraph, true);
    cfg.params.simOps = 1200;
    SampledOptions opts;
    opts.samples = 4;
    opts.warmupOps = 16;
    opts.measureOps = 64;
    opts.workers = 1;
    std::string one = runSampledExperiment(cfg, opts).toJson();
    opts.workers = 8;
    EXPECT_EQ(runSampledExperiment(cfg, opts).toJson(), one);
}

namespace
{

/** 64-bit FNV-1a over a byte string. */
uint64_t
fnv1a(const std::vector<uint8_t> &bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * One pinned cell of the setup/replay golden. `mode` is kNone or kLog;
 * the kLog row stands for every logged mode, because muted runs emit
 * nothing and Log, Log+P and Log+P+Sf build the same image.
 */
struct SetupGolden
{
    WorkloadKind kind;
    PersistMode mode;
    bool checksums;
    uint64_t seed;
    /** FNV-1a of Workload::serialize bytes right after setup(). */
    uint64_t state;
    /** image().hash() after a further runFunctional(50). */
    uint64_t functional;
    /** image().hash() after runFunctionalToGeneration(gen + 7); Log+ only. */
    uint64_t replay;
};

// Recorded before the muted transaction path became one pass; the
// one-pass path must reproduce every byte of the two-pass protocol.
const std::vector<SetupGolden> kSetupGoldens = {
    {WorkloadKind::kGraph, PersistMode::kNone, false, 1,
     0xa632d51b7560f49cull, 0xa8c066238d60ee9aull, 0x0000000000000000ull},
    {WorkloadKind::kGraph, PersistMode::kNone, false, 42,
     0x36ac949d9892a394ull, 0x6dd87b0e4cd079d8ull, 0x0000000000000000ull},
    {WorkloadKind::kGraph, PersistMode::kLog, false, 1,
     0x31eba975b9bd8261ull, 0xc8794980a2893d44ull, 0xf5dadaaf6514e870ull},
    {WorkloadKind::kGraph, PersistMode::kLog, false, 42,
     0x30e45368bac76aebull, 0x2ee2c7330b604fadull, 0x172f2ec274b48200ull},
    {WorkloadKind::kGraph, PersistMode::kLog, true, 1,
     0x94506f07fae0b754ull, 0x754f5c18dd2dde89ull, 0x0412f85d368edca4ull},
    {WorkloadKind::kGraph, PersistMode::kLog, true, 42,
     0xbd1781418d34b888ull, 0xad1bbdc376875f80ull, 0x4ec97ecba4e86988ull},
    {WorkloadKind::kHashMap, PersistMode::kNone, false, 1,
     0xb3f744a8950c6f4full, 0x8f7b217fa7deec0dull, 0x0000000000000000ull},
    {WorkloadKind::kHashMap, PersistMode::kNone, false, 42,
     0x43b838b87b2ce378ull, 0x65f5d887b7408bfcull, 0x0000000000000000ull},
    {WorkloadKind::kHashMap, PersistMode::kLog, false, 1,
     0x61a1770c762f2cdaull, 0xcec5e4f8e57e3cf9ull, 0xf580c0cf1206edd3ull},
    {WorkloadKind::kHashMap, PersistMode::kLog, false, 42,
     0x9d6b4fdf2eedc9e2ull, 0x4ac1c72b13094535ull, 0x8f312a2f5b960c5aull},
    {WorkloadKind::kHashMap, PersistMode::kLog, true, 1,
     0x0d662a22faac6d67ull, 0x058cce5d7853438dull, 0x51b89fe06d837cc2ull},
    {WorkloadKind::kHashMap, PersistMode::kLog, true, 42,
     0xef33f9baf4eb81e7ull, 0x274a8e4a46cb079dull, 0x9f8f3a60b2a2a7a8ull},
    {WorkloadKind::kLinkedList, PersistMode::kNone, false, 1,
     0x90e19a97c3c59169ull, 0x7400905e22bd9cacull, 0x0000000000000000ull},
    {WorkloadKind::kLinkedList, PersistMode::kNone, false, 42,
     0xd8f16a17df6d3f5eull, 0xc99bcee678aae37cull, 0x0000000000000000ull},
    {WorkloadKind::kLinkedList, PersistMode::kLog, false, 1,
     0x22f3135de3e7ec3full, 0xcf2b469b2c5b7b54ull, 0xaa20c846e40e0ee5ull},
    {WorkloadKind::kLinkedList, PersistMode::kLog, false, 42,
     0xe05dca34ea054101ull, 0xa4940dbb835441dcull, 0x09d77af91adfc6b0ull},
    {WorkloadKind::kLinkedList, PersistMode::kLog, true, 1,
     0xf6bd4b6ac75cf861ull, 0x6a4807f8172d22b3ull, 0x760b6504c1d309a5ull},
    {WorkloadKind::kLinkedList, PersistMode::kLog, true, 42,
     0x6ceda8c5cea97fdfull, 0xdced49d234b02e0dull, 0xd9f638a48e388622ull},
    {WorkloadKind::kStringSwap, PersistMode::kNone, false, 1,
     0x8bc41b374b693d70ull, 0xb405c66bf6c854ddull, 0x0000000000000000ull},
    {WorkloadKind::kStringSwap, PersistMode::kNone, false, 42,
     0x349cf3d44bfd14a5ull, 0x5ce55076380d3cedull, 0x0000000000000000ull},
    {WorkloadKind::kStringSwap, PersistMode::kLog, false, 1,
     0x261718cb4b2c4af6ull, 0x874bc70dba76580aull, 0xf0d753e33109fd72ull},
    {WorkloadKind::kStringSwap, PersistMode::kLog, false, 42,
     0x6850e51503d9aabfull, 0xc725483871c479a7ull, 0x5f02e1fbc31c1286ull},
    {WorkloadKind::kStringSwap, PersistMode::kLog, true, 1,
     0x10765aa345d2edd7ull, 0xaf19d4a2403ed745ull, 0xa43b290546335d08ull},
    {WorkloadKind::kStringSwap, PersistMode::kLog, true, 42,
     0x86705b12084521f6ull, 0x8070427fc298b4deull, 0x11923055a0ac0e31ull},
    {WorkloadKind::kAvlTree, PersistMode::kNone, false, 1,
     0x9af6d84f8aa3ce6cull, 0x05eacdbd52d99305ull, 0x0000000000000000ull},
    {WorkloadKind::kAvlTree, PersistMode::kNone, false, 42,
     0x1d5778fdca555a20ull, 0x756fff53826a75e4ull, 0x0000000000000000ull},
    {WorkloadKind::kAvlTree, PersistMode::kLog, false, 1,
     0x87422f19a4e1df27ull, 0xf9d6361f8e09cc37ull, 0xfeb1361707e69847ull},
    {WorkloadKind::kAvlTree, PersistMode::kLog, false, 42,
     0x6ae36e67259becf5ull, 0x9b02237d02995ed4ull, 0x1cb1244a767f8b92ull},
    {WorkloadKind::kAvlTree, PersistMode::kLog, true, 1,
     0x40c5a6200b23e7c6ull, 0x472e21d64c6df2d7ull, 0x969d9d5e7ecb603aull},
    {WorkloadKind::kAvlTree, PersistMode::kLog, true, 42,
     0xc5fa37a91e089dacull, 0xeef036f82ae38bd6ull, 0xada2be9672340e8cull},
    {WorkloadKind::kBTree, PersistMode::kNone, false, 1,
     0x8e67e8a17d644de5ull, 0x060dc99872d78f01ull, 0x0000000000000000ull},
    {WorkloadKind::kBTree, PersistMode::kNone, false, 42,
     0x9ed82d6f90d7e00eull, 0x1bf24f8662dcb75aull, 0x0000000000000000ull},
    {WorkloadKind::kBTree, PersistMode::kLog, false, 1,
     0x7617c83aa18fdd73ull, 0x9765898d00abf6a3ull, 0x7809df1d8a2bd800ull},
    {WorkloadKind::kBTree, PersistMode::kLog, false, 42,
     0xc986b781d24eb03dull, 0x68e6ef5062f5c39cull, 0xf11718b5dd8e9fb5ull},
    {WorkloadKind::kBTree, PersistMode::kLog, true, 1,
     0xbe6118cc94fd0149ull, 0x470e53d4dc78f578ull, 0x98be38f060c24742ull},
    {WorkloadKind::kBTree, PersistMode::kLog, true, 42,
     0x4a78849e47bbdd0full, 0x8c82a4ed6346c880ull, 0x3e2c1d39dff6a7d8ull},
    {WorkloadKind::kRbTree, PersistMode::kNone, false, 1,
     0x39a3dd3518fbe808ull, 0x090ae5bc2a96da9bull, 0x0000000000000000ull},
    {WorkloadKind::kRbTree, PersistMode::kNone, false, 42,
     0x811014168e996efdull, 0x76101c0699aa46fdull, 0x0000000000000000ull},
    {WorkloadKind::kRbTree, PersistMode::kLog, false, 1,
     0xfc25015f19416663ull, 0xc87db1d86caa3845ull, 0x225236e949e7c66aull},
    {WorkloadKind::kRbTree, PersistMode::kLog, false, 42,
     0xd6173d0909e76525ull, 0x74377755c69c54dbull, 0x273f051c808be576ull},
    {WorkloadKind::kRbTree, PersistMode::kLog, true, 1,
     0x8e7a7ec10974e6a6ull, 0x6559d4227686e5abull, 0x2b747bb51cf81c0dull},
    {WorkloadKind::kRbTree, PersistMode::kLog, true, 42,
     0xc9be46122320d325ull, 0xe25424f7af08695full, 0xf3b70a317f7591acull},
    {WorkloadKind::kAvlTreeIncremental, PersistMode::kNone, false, 1,
     0x62bb86fdd73bafa0ull, 0x05eacdbd52d99305ull, 0x0000000000000000ull},
    {WorkloadKind::kAvlTreeIncremental, PersistMode::kNone, false, 42,
     0x06af9c4a4f509d9cull, 0x756fff53826a75e4ull, 0x0000000000000000ull},
    {WorkloadKind::kAvlTreeIncremental, PersistMode::kLog, false, 1,
     0xbf122502c953722bull, 0x2de898469b99953cull, 0xcb4d9e4498f94a9dull},
    {WorkloadKind::kAvlTreeIncremental, PersistMode::kLog, false, 42,
     0x89931a85cd2b57f6ull, 0xd6668bf4d9a2653aull, 0xd39f9d645a2a8aacull},
    {WorkloadKind::kAvlTreeIncremental, PersistMode::kLog, true, 1,
     0x65c0125a205f5657ull, 0x9e449f6298a3e19bull, 0x2f950a4376cb1622ull},
    {WorkloadKind::kAvlTreeIncremental, PersistMode::kLog, true, 42,
     0xb93942703009d75dull, 0xaedeca92dbe094b8ull, 0x63bc158eeefabf84ull},
};

const char *
kindToken(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::kGraph:
        return "kGraph";
      case WorkloadKind::kHashMap:
        return "kHashMap";
      case WorkloadKind::kLinkedList:
        return "kLinkedList";
      case WorkloadKind::kStringSwap:
        return "kStringSwap";
      case WorkloadKind::kAvlTree:
        return "kAvlTree";
      case WorkloadKind::kBTree:
        return "kBTree";
      case WorkloadKind::kRbTree:
        return "kRbTree";
      case WorkloadKind::kAvlTreeIncremental:
        return "kAvlTreeIncremental";
    }
    return "?";
}

const char *
modeToken(PersistMode mode)
{
    switch (mode) {
      case PersistMode::kNone:
        return "kNone";
      case PersistMode::kLog:
        return "kLog";
      case PersistMode::kLogP:
        return "kLogP";
      case PersistMode::kLogPSf:
        return "kLogPSf";
    }
    return "?";
}

SetupGolden
measureSetupGolden(WorkloadKind kind, PersistMode mode, bool checksums,
                   uint64_t seed)
{
    WorkloadParams p = defaultParams(kind, 0.1);
    p.seed = seed;
    p.mode = mode;
    p.checksums = checksums;
    std::unique_ptr<Workload> w = makeWorkload(kind, p);
    w->setup();
    SnapshotWriter sw;
    w->serialize(sw);
    SetupGolden g{kind, mode, checksums, seed, fnv1a(sw.bytes()), 0, 0};
    w->runFunctional(50);
    g.functional = w->image().hash();
    if (mode >= PersistMode::kLog) {
        w->runFunctionalToGeneration(Workload::generation(w->image()) + 7);
        g.replay = w->image().hash();
    }
    return g;
}

} // namespace

TEST(SetupGolden, MutedPathsReproducePinnedImages)
{
    // Setup (muted #InitOps fast-forward) and functional replay run
    // every transaction without emission; their images, snapshot bytes
    // and generation-replay images are pinned for every kind and mode.
    std::string table;
    size_t pinnedCells = 0;
    for (WorkloadKind kind : snapshotKinds()) {
        for (PersistMode mode : {PersistMode::kNone, PersistMode::kLog,
                                 PersistMode::kLogP, PersistMode::kLogPSf}) {
            for (bool checksums : {false, true}) {
                if (checksums && mode == PersistMode::kNone)
                    continue;
                for (uint64_t seed : {1ull, 42ull}) {
                    SetupGolden m =
                        measureSetupGolden(kind, mode, checksums, seed);
                    PersistMode row_mode = std::min(mode, PersistMode::kLog);
                    if (mode == row_mode) {
                        ++pinnedCells;
                        char line[192];
                        std::snprintf(
                            line, sizeof(line),
                            "    {WorkloadKind::%s, PersistMode::%s, %s, "
                            "%llu,\n     0x%016llxull, 0x%016llxull, "
                            "0x%016llxull},\n",
                            kindToken(kind), modeToken(mode),
                            checksums ? "true" : "false",
                            static_cast<unsigned long long>(seed),
                            static_cast<unsigned long long>(m.state),
                            static_cast<unsigned long long>(m.functional),
                            static_cast<unsigned long long>(m.replay));
                        table += line;
                    }
                    std::string cell =
                        std::string(workloadKindName(kind)) + " " +
                        persistModeName(mode) +
                        (checksums ? " +crc" : "") + " seed " +
                        std::to_string(seed);
                    auto g = std::find_if(
                        kSetupGoldens.begin(), kSetupGoldens.end(),
                        [&](const SetupGolden &r) {
                            return r.kind == kind && r.mode == row_mode &&
                                r.checksums == checksums && r.seed == seed;
                        });
                    if (g == kSetupGoldens.end()) {
                        ADD_FAILURE() << cell << ": no pinned row";
                        continue;
                    }
                    EXPECT_EQ(m.state, g->state)
                        << cell << ": post-setup state";
                    EXPECT_EQ(m.functional, g->functional)
                        << cell << ": runFunctional";
                    EXPECT_EQ(m.replay, g->replay)
                        << cell << ": generation replay";
                }
            }
        }
    }
    EXPECT_EQ(pinnedCells, kSetupGoldens.size());
    if (HasFailure())
        ADD_FAILURE() << "measured table:\n" << table;
}

// ==========================================================================
// Pinned snapshot payload bytes
// ==========================================================================

namespace
{

/** One pinned payload cell: FNV-1a of Machine::save bytes at three cuts. */
struct PayloadGolden
{
    const char *name;
    /** Before the first step. */
    uint64_t tickZero;
    /** A cut with an open episode (Machine::quiescent() false); a
     *  mid-run cut for Base, which has no persist traffic and so is
     *  quiescent everywhere. */
    uint64_t busy;
    /** A quiescent cut. */
    uint64_t quiet;
};

/** The four pinned cells, in kPayloadGoldens order. */
std::vector<RunConfig>
payloadGoldenConfigs()
{
    std::vector<RunConfig> cfgs;
    // BT Log+P+Sf SP256 with every observer and the conflict adversary.
    RunConfig bt = smallConfig(WorkloadKind::kBTree, true);
    enableObservers(bt);
    bt.sim.fault.conflict.enabled = true;
    bt.sim.fault.conflict.period = 2000;
    bt.sim.fault.conflict.seed = 7;
    cfgs.push_back(bt);
    // LL Log+P+Sf with a uniform, fixed-period conflict adversary.
    RunConfig ll = smallConfig(WorkloadKind::kLinkedList, false);
    ll.sim.fault.conflict.enabled = true;
    ll.sim.fault.conflict.period = 1500;
    cfgs.push_back(ll);
    // HM Base, no observers.
    RunConfig hm = smallConfig(WorkloadKind::kHashMap, false);
    hm.params.mode = PersistMode::kNone;
    cfgs.push_back(hm);
    // AT-inc with checksums, torn writes and NVMM write jitter.
    RunConfig at = smallConfig(WorkloadKind::kAvlTreeIncremental, true);
    at.params.checksums = true;
    at.sim.fault.crash.tornWrites = true;
    at.sim.fault.crash.pcommitJitterCycles = 32;
    at.sim.fault.crash.seed = 42;
    cfgs.push_back(at);
    return cfgs;
}

// Recorded before the snapshot components shared one serialize() body
// per direction (the LL row when its cell moved to the conflict
// adversary); the payload format must not move by a byte.
const std::vector<PayloadGolden> kPayloadGoldens = {
    {"BT SP256 observed+conflict", 0x0659986c838f641eull,
     0x90e780c34e6cbbc3ull, 0xdb45f36957835e01ull},
    {"LL Log+P+Sf conflict", 0x7e4ca24925d7bdd6ull, 0xa2b63775a591f468ull,
     0x3fdc54b0002ed839ull},
    {"HM Base", 0x1115e59122e60ec0ull, 0xf9743b6d23056fe1ull,
     0xc7579aa355146dc7ull},
    {"AT-inc crc+torn+jitter", 0xe7735686a066c522ull,
     0xe7d0f6d2fbf64e71ull, 0x1cb5b809a3ed9711ull},
};

/** FNV-1a of SimSnapshot::serialize() for the first cell's busy cut. */
const uint64_t kContainerGolden = 0x3378794dfde6409aull;

uint64_t
payloadHash(Machine &m)
{
    return fnv1a(machineBytes(m));
}

} // namespace

TEST(SnapshotGolden, MachinePayloadPinned)
{
    std::vector<RunConfig> cfgs = payloadGoldenConfigs();
    ASSERT_EQ(cfgs.size(), kPayloadGoldens.size());
    std::string table;
    uint64_t container = 0;
    for (size_t i = 0; i < cfgs.size(); ++i) {
        const PayloadGolden &g = kPayloadGoldens[i];
        SCOPED_TRACE(g.name);
        Tick cycles = runExperiment(cfgs[i]).stats.cycles;
        Machine m(cfgs[i]);
        PayloadGolden got{g.name, payloadHash(m), 0, 0};

        m.runUntil(cycles / 3);
        while (cfgs[i].params.mode != PersistMode::kNone && !m.done() &&
               m.quiescent())
            m.runUntil(m.now() + 1);
        ASSERT_FALSE(m.done());
        got.busy = payloadHash(m);
        if (i == 0)
            container = fnv1a(m.takeSnapshot().serialize());

        m.runUntil(2 * cycles / 3);
        while (!m.done() && !m.quiescent())
            m.runUntil(m.now() + 1);
        ASSERT_FALSE(m.done());
        got.quiet = payloadHash(m);

        EXPECT_EQ(got.tickZero, g.tickZero) << "tick 0";
        EXPECT_EQ(got.busy, g.busy) << "busy cut";
        EXPECT_EQ(got.quiet, g.quiet) << "quiescent cut";
        char line[160];
        std::snprintf(line, sizeof(line),
                      "    {\"%s\", 0x%016llxull, 0x%016llxull,\n"
                      "     0x%016llxull},\n",
                      g.name, static_cast<unsigned long long>(got.tickZero),
                      static_cast<unsigned long long>(got.busy),
                      static_cast<unsigned long long>(got.quiet));
        table += line;
    }
    EXPECT_EQ(container, kContainerGolden) << "container bytes";
    if (HasFailure()) {
        char line[64];
        std::snprintf(line, sizeof(line), "container 0x%016llxull\n",
                      static_cast<unsigned long long>(container));
        ADD_FAILURE() << "measured table:\n" << table << line;
    }
}

// ==========================================================================
// Captured setup state (workloads/factory.hh WorkloadSetup)
// ==========================================================================

namespace
{

/** The five persistence variants the setup-equivalence grid covers. */
std::vector<std::pair<std::string, RunConfig>>
setupVariants(WorkloadKind kind)
{
    std::vector<std::pair<std::string, RunConfig>> out;
    RunConfig cfg = smallConfig(kind, false);
    cfg.params.mode = PersistMode::kNone;
    out.emplace_back("Base", cfg);
    cfg.params.mode = PersistMode::kLog;
    out.emplace_back("Log", cfg);
    cfg.params.mode = PersistMode::kLogPSf;
    out.emplace_back("Log+P+Sf", cfg);
    cfg.sim.sp.enabled = true;
    out.emplace_back("SP", cfg);
    cfg.params.checksums = true;
    out.emplace_back("SP+crc", cfg);
    return out;
}

std::vector<uint8_t>
workloadStateBytes(Workload &w)
{
    SnapshotWriter sw;
    w.serialize(sw);
    return sw.take();
}

} // namespace

TEST(WorkloadSetupState, RunsMatchFreshSetupEverywhere)
{
    // A run started from a captured post-setup state must be the run
    // that setup() would have produced: same Stats, durable image and
    // functional generation, completed or crashed mid-run.
    for (WorkloadKind kind : snapshotKinds()) {
        for (const auto &[variant, cfg] : setupVariants(kind)) {
            SCOPED_TRACE(std::string(workloadKindName(kind)) + " " +
                         variant);
            WorkloadSetup setup(cfg.kind, cfg.params);

            RunResult fresh = runExperiment(cfg);
            RunResult restored = runExperiment(cfg, 0, nullptr, &setup);
            ASSERT_TRUE(fresh.completed);
            EXPECT_EQ(fingerprint(restored), fingerprint(fresh));

            Tick crashAt = fresh.stats.cycles / 2;
            RunResult freshCrash = runExperiment(cfg, crashAt);
            RunResult restoredCrash =
                runExperiment(cfg, crashAt, nullptr, &setup);
            ASSERT_EQ(freshCrash.outcome, RunOutcome::kCrashed);
            EXPECT_EQ(fingerprint(restoredCrash), fingerprint(freshCrash));

            // The instance a replay starts from is the setup() instance.
            std::unique_ptr<Workload> ref = makeWorkload(cfg.kind, cfg.params);
            ref->setup();
            EXPECT_EQ(workloadStateBytes(*setup.instantiate()),
                      workloadStateBytes(*ref));
        }
    }
}

TEST(WorkloadSetupStateDeathTest, MismatchedSetupPanics)
{
    RunConfig cfg = smallConfig(WorkloadKind::kLinkedList, true);
    WorkloadSetup setup(cfg.kind, cfg.params);

    RunConfig otherKind = smallConfig(WorkloadKind::kHashMap, true);
    EXPECT_DEATH(Machine(otherKind, nullptr, false, &setup),
                 "different workload or parameters");
    RunConfig otherParams = cfg;
    otherParams.params.seed += 1;
    EXPECT_DEATH(Machine(otherParams, nullptr, false, &setup),
                 "different workload or parameters");
    RunConfig otherMode = cfg;
    otherMode.params.checksums = true;
    EXPECT_DEATH(runExperiment(otherMode, 0, nullptr, &setup),
                 "different workload or parameters");
    EXPECT_DEATH(Machine(cfg, nullptr, /*deferSetup=*/true, &setup),
                 "deferred-setup machine");
}
