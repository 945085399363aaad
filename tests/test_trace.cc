/**
 * @file
 * Observability tests: the structured trace bus, its exporters, the
 * golden Section 2.2 trace, and the tracing-never-perturbs-the-run
 * determinism contract (single runs and multi-worker sweeps).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "cpu/ooo_core.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "isa/program.hh"
#include "mem/cache_hierarchy.hh"
#include "mem/mem_system.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "sim/trace.hh"

using namespace sp;

namespace
{

constexpr Addr kX = 0x10000000;
constexpr Addr kY = 0x10010000;

/** The paper's Section 2.2 linked-list transaction pair. */
std::vector<MicroOp>
sectionTwoProgram()
{
    std::vector<MicroOp> ops;
    ops.push_back(MicroOp::store(kX, 1, 8));
    ops.push_back(MicroOp::clwb(kX));
    ops.push_back(MicroOp::sfence());
    ops.push_back(MicroOp::pcommit());
    ops.push_back(MicroOp::sfence());
    ops.push_back(MicroOp::store(kY, 2, 8));
    ops.push_back(MicroOp::clwb(kY));
    ops.push_back(MicroOp::sfence());
    ops.push_back(MicroOp::pcommit());
    ops.push_back(MicroOp::sfence());
    ops.push_back(MicroOp::load(kY, 8));
    ops.push_back(MicroOp::alu(30));
    return ops;
}

/** Run the Section 2.2 program on a tracer-attached machine. */
Stats
runSection2(bool sp, Tracer *tracer)
{
    SimConfig cfg;
    cfg.sp.enabled = sp;
    MemImage durable;
    Stats stats;
    TraceProgram prog(sectionTwoProgram());
    MemSystem mc(cfg.mem, durable);
    CacheHierarchy caches(cfg, mc);
    OooCore core(cfg, prog, caches, mc, stats);
    if (tracer)
        core.setTracer(tracer);
    core.run();
    return stats;
}

Tracer
makeTracer(uint32_t cats)
{
    TraceOptions opts;
    opts.categories = cats;
    opts.sampleEvery = 16;
    return Tracer(opts);
}

/** Index of the first event with this name; npos when absent. */
size_t
firstEvent(const Tracer &tracer, TraceName name)
{
    const auto &events = tracer.events();
    for (size_t i = 0; i < events.size(); ++i) {
        if (events[i].name == name)
            return i;
    }
    return std::string::npos;
}

size_t
countEvents(const Tracer &tracer, TraceName name, TraceKind kind)
{
    size_t n = 0;
    for (const TraceEvent &event : tracer.events()) {
        if (event.kind == kind && event.name == name)
            ++n;
    }
    return n;
}

} // namespace

// --------------------------------------------------------------------------
// Golden trace: the Section 2.2 program with and without speculation
// --------------------------------------------------------------------------

TEST(GoldenTrace, SpeculativeLifecycleOrdering)
{
    Tracer tracer = makeTracer(kTraceAll);
    Stats stats = runSection2(true, &tracer);

    size_t spec = firstEvent(tracer, TraceName::kSpeculate);
    size_t commit = firstEvent(tracer, TraceName::kCommit);
    ASSERT_NE(spec, std::string::npos);
    ASSERT_NE(commit, std::string::npos);
    EXPECT_LT(spec, commit) << "SPECULATE must precede COMMIT";

    // The checkpoint is taken the cycle speculation begins.
    size_t ckpt = firstEvent(tracer, TraceName::kCheckpointTake);
    ASSERT_NE(ckpt, std::string::npos);
    EXPECT_EQ(tracer.events()[ckpt].tick, tracer.events()[spec].tick);

    // Epoch async spans match the stats counters, and all of them end.
    EXPECT_EQ(tracer.summary().epochsBegun, stats.epochsStarted);
    EXPECT_EQ(tracer.summary().epochsEnded, tracer.summary().epochsBegun);
    EXPECT_EQ(stats.epochsCommitted, stats.epochsStarted);
    EXPECT_EQ(tracer.summary().epochDuration.samples(),
              tracer.summary().epochsEnded);

    // Speculative retirements happened and were tagged as such.
    EXPECT_GT(countEvents(tracer, TraceName::kRetireSpec,
                          TraceKind::kInstant), 0u);

    // pcommit issue->complete spans closed with nonzero latency.
    EXPECT_GE(tracer.summary().pcommitLatency.samples(), stats.pcommits);
    EXPECT_GT(tracer.summary().pcommitLatency.max(), 0u);
}

TEST(GoldenTrace, NonSpeculativeRunStallsAtFences)
{
    Tracer tracer = makeTracer(kTraceAll);
    Stats stats = runSection2(false, &tracer);

    EXPECT_EQ(firstEvent(tracer, TraceName::kSpeculate), std::string::npos);
    EXPECT_EQ(firstEvent(tracer, TraceName::kRetireSpec), std::string::npos);
    EXPECT_EQ(tracer.summary().epochsBegun, 0u);

    // The sfences behind pcommits show up as fence-stall spans whose
    // total is the Stats stall counter, so "when" reconciles with
    // "how much".
    ASSERT_GT(tracer.summary().fenceStall.samples(), 0u);
    EXPECT_GT(tracer.summary().fenceStall.max(), 0u);
    uint64_t spanned = 0;
    for (const TraceEvent &event : tracer.events()) {
        if (event.kind == TraceKind::kSpan &&
            event.name == TraceName::kFenceStall)
            spanned += event.dur;
    }
    EXPECT_EQ(spanned, stats.fenceStallCycles);
}

TEST(GoldenTrace, SpeculationShortensFenceStalls)
{
    Tracer base = makeTracer(kTraceSpec);
    Tracer spec = makeTracer(kTraceSpec);
    runSection2(false, &base);
    runSection2(true, &spec);
    EXPECT_LT(spec.summary().fenceStall.max(),
              base.summary().fenceStall.max());
}

// --------------------------------------------------------------------------
// Category filtering and the text backend
// --------------------------------------------------------------------------

TEST(Tracer, CategoryFilterDropsUnwantedEvents)
{
    Tracer tracer = makeTracer(kTraceSpec);
    runSection2(true, &tracer);
    ASSERT_FALSE(tracer.events().empty());
    for (const TraceEvent &event : tracer.events())
        EXPECT_EQ(event.cat, static_cast<uint32_t>(kTraceSpec));
    EXPECT_EQ(tracer.summary().counterSamples, 0u);
}

TEST(Tracer, ParseCategories)
{
    EXPECT_EQ(parseTraceCategories("all"), kTraceAll);
    EXPECT_EQ(parseTraceCategories("default"), kTraceDefault);
    EXPECT_EQ(parseTraceCategories("spec,epoch"),
              kTraceSpec | kTraceEpoch);
    EXPECT_EQ(parseTraceCategories("none"), 0u);
    EXPECT_EQ(parseTraceCategories("retire") & kTraceRetire, kTraceRetire);
}

TEST(Tracer, TextBackendKeepsClassicFormat)
{
    std::ostringstream sink;
    TraceOptions opts;
    opts.categories = kTraceAll;
    opts.retainEvents = false;
    Tracer tracer(opts);
    tracer.setTextSink(&sink);
    runSection2(true, &tracer);
    std::string out = sink.str();
    EXPECT_NE(out.find("SPECULATE"), std::string::npos);
    EXPECT_NE(out.find("COMMIT"), std::string::npos);
    EXPECT_NE(out.find("retire*"), std::string::npos);
    EXPECT_NE(out.find("retire "), std::string::npos);
    // Summary-only mode still summarized everything it saw.
    EXPECT_GT(tracer.summary().events, 0u);
    EXPECT_TRUE(tracer.events().empty());
}

TEST(Tracer, SnapshotRestoreClosesOpenSpansByName)
{
    // Spans open at the snapshot are stored by name text and must close
    // after restore against the same TraceName.
    Tracer before = makeTracer(kTraceAll);
    before.asyncBegin(kTraceEpoch, TraceName::kEpoch, 7, 10);
    before.asyncBegin(kTraceMem, TraceName::kPcommit, 7, 12);
    SnapshotWriter w;
    before.serialize(w);
    std::vector<uint8_t> bytes = w.take();

    Tracer after = makeTracer(kTraceAll);
    SnapshotReader r(bytes);
    after.serialize(r);
    EXPECT_TRUE(r.exhausted());
    after.asyncEnd(kTraceMem, TraceName::kPcommit, 7, 15);
    after.asyncEnd(kTraceEpoch, TraceName::kEpoch, 7, 30);
    EXPECT_EQ(after.summary().pcommitLatency.samples(), 1u);
    EXPECT_EQ(after.summary().pcommitLatency.max(), 3u);
    EXPECT_EQ(after.summary().epochDuration.samples(), 1u);
    EXPECT_EQ(after.summary().epochDuration.max(), 20u);

    // A span name no publisher uses is a corrupt snapshot.
    std::string text(bytes.begin(), bytes.end());
    size_t at = text.find("pcommit");
    ASSERT_NE(at, std::string::npos);
    bytes[at] = 'X';
    Tracer rejected = makeTracer(kTraceAll);
    SnapshotReader bad(bytes);
    EXPECT_THROW(rejected.serialize(bad), SnapshotError);
}

// --------------------------------------------------------------------------
// Exporters
// --------------------------------------------------------------------------

TEST(Exporters, ChromeJsonRoundTrips)
{
    Tracer tracer = makeTracer(kTraceAll);
    runSection2(true, &tracer);
    std::ostringstream os;
    tracer.writeChromeJson(os);
    std::string doc = os.str();

    std::string error;
    EXPECT_TRUE(jsonIsValid(doc, &error)) << error;
    // Async epoch spans, occupancy counters, stall spans, and the
    // Perfetto track-naming metadata are all present.
    EXPECT_NE(doc.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"e\""), std::string::npos);
    EXPECT_NE(doc.find("ssb_occupancy"), std::string::npos);
    EXPECT_NE(doc.find("fence_stall"), std::string::npos);
    EXPECT_NE(doc.find("thread_name"), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"epoch\""), std::string::npos);
}

TEST(Exporters, CounterCsvColumnsAreConsistent)
{
    Tracer tracer = makeTracer(kTraceCounters | kTraceSsb);
    runSection2(true, &tracer);
    std::ostringstream os;
    tracer.writeCounterCsv(os);
    std::istringstream in(os.str());
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    long expected = commas(header);
    EXPECT_GT(expected, 0);
    std::string line;
    size_t rows = 0;
    while (std::getline(in, line)) {
        EXPECT_EQ(commas(line), expected) << "row: " << line;
        ++rows;
    }
    EXPECT_GT(rows, 0u);
}

TEST(Exporters, SummariesAreValidJson)
{
    Tracer tracer = makeTracer(kTraceAll);
    runSection2(true, &tracer);
    std::string error;
    EXPECT_TRUE(jsonIsValid(tracer.summary().toJson(), &error)) << error;

    SweepSummary sweep;
    EXPECT_TRUE(jsonIsValid(sweep.toJson(), &error)) << error;
}

TEST(Exporters, EventCapDropsButKeepsCounting)
{
    TraceOptions opts;
    opts.categories = kTraceAll;
    opts.maxEvents = 8;
    Tracer tracer(opts);
    runSection2(true, &tracer);
    EXPECT_EQ(tracer.events().size(), 8u);
    EXPECT_GT(tracer.summary().dropped, 0u);
    EXPECT_EQ(tracer.summary().events,
              tracer.events().size() + tracer.summary().dropped);
}

namespace
{

/** 64-bit FNV-1a over a byte string. */
uint64_t
fnv1a(const std::string &bytes)
{
    uint64_t hash = 1469598103934665603ull;
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    return hash;
}

struct ExportHashes
{
    uint64_t chrome;
    uint64_t csv;
    uint64_t text;
};

/** Hash every exporter's output for one traced Section 2.2 run. */
ExportHashes
hashSection2Exports(bool sp)
{
    Tracer tracer = makeTracer(kTraceAll);
    std::ostringstream text;
    tracer.setTextSink(&text);
    runSection2(sp, &tracer);
    std::ostringstream chrome;
    std::ostringstream csv;
    tracer.writeChromeJson(chrome);
    tracer.writeCounterCsv(csv);
    return {fnv1a(chrome.str()), fnv1a(csv.str()), fnv1a(text.str())};
}

} // namespace

TEST(Exporters, GoldenSection2ExportBytes)
{
    // Pinned exporter bytes for the Section 2.2 program with every
    // category on. Any change to event order, argument rendering or an
    // exporter's layout moves these hashes.
    ExportHashes spec = hashSection2Exports(true);
    EXPECT_EQ(spec.chrome, 4592770860236251730ull);
    EXPECT_EQ(spec.csv, 1397675782970843554ull);
    EXPECT_EQ(spec.text, 7830977715432244878ull);

    ExportHashes base = hashSection2Exports(false);
    EXPECT_EQ(base.chrome, 14719821794165188444ull);
    EXPECT_EQ(base.csv, 8403240927519077194ull);
    EXPECT_EQ(base.text, 8395549735064234775ull);
}

// --------------------------------------------------------------------------
// JSON validity checker
// --------------------------------------------------------------------------

TEST(JsonChecker, AcceptsAndRejects)
{
    EXPECT_TRUE(jsonIsValid("{}"));
    EXPECT_TRUE(jsonIsValid("[1, 2.5, -3e+2, \"a\\nb\", true, null]"));
    EXPECT_TRUE(jsonIsValid("{\"a\":{\"b\":[{}]}}"));
    EXPECT_FALSE(jsonIsValid(""));
    EXPECT_FALSE(jsonIsValid("{"));
    EXPECT_FALSE(jsonIsValid("{\"a\":1,}"));
    EXPECT_FALSE(jsonIsValid("[1 2]"));
    EXPECT_FALSE(jsonIsValid("{\"a\" 1}"));
    EXPECT_FALSE(jsonIsValid("\"unterminated"));
    EXPECT_FALSE(jsonIsValid("01abc"));
    std::string error;
    EXPECT_FALSE(jsonIsValid("[1,", &error));
    EXPECT_FALSE(error.empty());
}

// --------------------------------------------------------------------------
// Rate-limited warnings
// --------------------------------------------------------------------------

TEST(Logging, RateLimitClaimPicksEveryNth)
{
    std::atomic<uint64_t> counter{0};
    uint64_t nth = 0;
    std::vector<bool> fired;
    for (int i = 0; i < 7; ++i)
        fired.push_back(sp::detail::rateLimitClaim(counter, 3, nth));
    EXPECT_EQ(fired, (std::vector<bool>{true, false, false, true, false,
                                        false, true}));
    EXPECT_EQ(nth, 7u);
    // every <= 1 always reports.
    std::atomic<uint64_t> always{0};
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(sp::detail::rateLimitClaim(always, 1, nth));
}

// --------------------------------------------------------------------------
// Determinism: tracing must never perturb the simulation
// --------------------------------------------------------------------------

namespace
{

/** Full-fidelity fingerprint of a run: every stat plus the NVMM hash. */
std::string
fingerprint(const RunResult &r)
{
    return statsCsvRow("fp", r.stats) + "#" +
        std::to_string(r.durable.hash()) + "#" +
        std::to_string(r.functionalGeneration);
}

} // namespace

TEST(TraceDeterminism, TracedRunIsBitIdenticalToUntraced)
{
    RunConfig plain = makeRunConfig(WorkloadKind::kHashMap,
                                    PersistMode::kLogPSf, true);
    plain.params.initOps = 150;
    plain.params.simOps = 25;
    RunConfig traced = plain;
    traced.trace.categories = kTraceAll;
    traced.trace.sampleEvery = 8;

    RunResult a = runExperiment(plain);
    RunResult b = runExperiment(traced);
    EXPECT_EQ(fingerprint(a), fingerprint(b));
    EXPECT_FALSE(a.trace.enabled);
    EXPECT_TRUE(b.trace.enabled);
    EXPECT_GT(b.trace.events, 0u);
}

TEST(TraceDeterminism, ExternalTracerMatchesToo)
{
    RunConfig cfg = makeRunConfig(WorkloadKind::kLinkedList,
                                  PersistMode::kLogPSf, true);
    cfg.params.initOps = 120;
    cfg.params.simOps = 15;
    RunResult plain = runExperiment(cfg);

    TraceOptions opts;
    opts.categories = kTraceAll;
    Tracer tracer(opts);
    RunResult traced = runExperiment(cfg, 0, &tracer);
    EXPECT_EQ(fingerprint(plain), fingerprint(traced));
    EXPECT_FALSE(tracer.events().empty());
}

TEST(TraceDeterminism, MultiWorkerSweepUnperturbed)
{
    // A small grid, every cell twice: once silent, once traced, on an
    // 8-worker pool. Per-cell fingerprints must pair up exactly, and
    // the traced sweep's aggregate must reconcile.
    std::vector<RunConfig> grid;
    for (WorkloadKind kind :
         {WorkloadKind::kLinkedList, WorkloadKind::kHashMap}) {
        for (bool sp : {false, true}) {
            RunConfig cfg = makeRunConfig(
                kind, PersistMode::kLogPSf, sp);
            cfg.params.initOps = 100;
            cfg.params.simOps = 12;
            grid.push_back(cfg);
        }
    }
    std::vector<RunConfig> tracedGrid = grid;
    for (RunConfig &cfg : tracedGrid)
        cfg.trace.categories = kTraceDefault;

    SweepOptions opts;
    opts.workers = 8;
    SweepEngine engine(opts);
    std::vector<SweepRunResult> silent = engine.run(grid);
    std::vector<SweepRunResult> traced = engine.run(tracedGrid);
    ASSERT_EQ(silent.size(), traced.size());
    for (size_t i = 0; i < silent.size(); ++i) {
        ASSERT_TRUE(silent[i].ok && traced[i].ok);
        EXPECT_EQ(fingerprint(silent[i].run), fingerprint(traced[i].run))
            << "grid cell " << i;
    }

    SweepSummary silentSum = summarizeSweep(silent);
    SweepSummary tracedSum = summarizeSweep(traced);
    EXPECT_EQ(silentSum.tracedRuns, 0u);
    EXPECT_EQ(tracedSum.tracedRuns, traced.size());
    EXPECT_GT(tracedSum.traceEvents, 0u);
    EXPECT_EQ(silentSum.meanCycles, tracedSum.meanCycles);
    EXPECT_EQ(silentSum.minCycles, tracedSum.minCycles);
    EXPECT_EQ(silentSum.maxCycles, tracedSum.maxCycles);
    // The SP cells speculated: their epoch spans reached the aggregate.
    EXPECT_GT(tracedSum.epochDuration.samples(), 0u);
    std::string error;
    EXPECT_TRUE(jsonIsValid(tracedSum.toJson(), &error)) << error;
}
