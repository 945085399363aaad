/**
 * @file
 * Media-fault injection and hardened-recovery suite (ctest label:
 * robustness).
 *
 * The acceptance criteria of the media-fault subsystem, asserted
 * mechanically:
 *
 *  - the fault planner is a pure function of (seed, resident footprint,
 *    crash tick): identical inputs yield identical plans, the class
 *    split follows silentFraction, and the patrol scrubber corrects
 *    only ECC-detectable faults;
 *  - applying a plan mutates the image and poisons exactly the applied
 *    ECC-detectable targets (silent faults leave no device signal);
 *  - hardened recovery of pristine checksummed crash images replays to
 *    a valid transaction boundary and is idempotent;
 *  - interrupted (triple-crash) hardened recovery schedules converge to
 *    the same image as an uninterrupted pass, media faults included;
 *  - the corruption x crash x workload campaign over all 8 workloads
 *    reports zero silent-corruption escapes with bounded retries, and
 *    its report is bit-identical at 1 and 8 sweep workers;
 *  - checksums-off runs stay bit-identical to the pre-hardening seed
 *    fingerprints on every workload (the golden no-regression check).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "harness/campaign.hh"
#include "harness/runner.hh"
#include "mem/mem_image.hh"
#include "pmem/layout.hh"
#include "pmem/recovery.hh"
#include "sim/fault.hh"
#include "sim/rng.hh"

#include "crash_scan.hh"

using namespace sp;

namespace
{

/** A small image with resident pages across the fault-targetable span. */
MemImage
populatedImage()
{
    MemImage img;
    img.writeInt(kMetaBase, 7, 8);
    for (unsigned p = 0; p < 8; ++p) {
        Addr base = kHeapBase + p * MemImage::kPageBytes;
        for (unsigned off = 0; off < MemImage::kPageBytes; off += 64)
            img.writeInt(base + off, 0x0123456789abcdefull ^ (base + off),
                         8);
    }
    img.writeInt(kLogBase + 128, 0xfeedull, 8);
    return img;
}

/** Checksummed small-run config (the media-fault campaign's shape). */
RunConfig
checksummedConfig(WorkloadKind kind)
{
    RunConfig cfg = makeRunConfig(kind, PersistMode::kLogPSf, true);
    cfg.params.initOps = 250;
    cfg.params.simOps = 25;
    cfg.params.checksums = true;
    return cfg;
}

/**
 * Crash points of `cfg` that land inside a transaction, found with the
 * hardened walker (the legacy recoverImage() cannot parse the
 * checksummed log format).
 */
std::vector<Tick>
findArmedPointsHardened(const RunConfig &cfg, Tick totalCycles,
                        unsigned want, unsigned maxProbes = 60)
{
    std::vector<Tick> armed;
    unsigned probes = 0;
    Tick step = std::max<Tick>(64, totalCycles / 200);
    for (Tick at = step;
         at < totalCycles && armed.size() < want && probes < maxProbes;
         at += step) {
        ++probes;
        RunResult crashed = runExperiment(cfg, at);
        if (crashed.completed)
            break;
        MemImage img = crashed.durable;
        if (recoverImageHardened(img).undone)
            armed.push_back(at);
    }
    return armed;
}

/** Replay-validate a recovered image against a functional re-execution. */
void
expectMatchesReplay(const RunConfig &cfg, MemImage &recovered,
                    const std::string &what)
{
    uint64_t gen = Workload::generation(recovered);
    auto replay = makeWorkload(cfg.kind, cfg.params);
    replay->setup();
    replay->runFunctionalToGeneration(gen);
    std::string why;
    EXPECT_TRUE(replay->checkImage(recovered, &why)) << what << ": " << why;
    EXPECT_EQ(replay->contents(recovered), replay->contents(replay->image()))
        << what << ": recovered contents differ from the replayed boundary";
}

} // namespace

// --------------------------------------------------------------------------
// CRC + image primitives
// --------------------------------------------------------------------------

TEST(MediaFaults, Crc32KnownAnswer)
{
    // The ISO-HDLC check value every CRC-32 implementation must match.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);

    // Seed chaining: two halves chain to the whole.
    const char *msg = "persist barriers hide long latency";
    size_t n = std::strlen(msg);
    uint32_t whole = crc32(msg, n);
    uint32_t chained = crc32(msg + 5, n - 5, crc32(msg, 5));
    EXPECT_EQ(chained, whole);
}

namespace
{

/** Bit-at-a-time CRC-32: the definition crc32()'s tables must match. */
uint32_t
crc32Bitwise(const uint8_t *p, size_t n, uint32_t seed)
{
    uint32_t c = ~seed;
    for (size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return ~c;
}

} // namespace

// crc32() folds eight bytes per step through unaligned word loads and
// finishes byte-wise; every length around the word boundaries, at every
// start alignment, with a seed chained from the previous result, must
// give the bitwise CRC. Split computations must chain to the whole.
TEST(MediaFaults, Crc32MatchesBytewiseReference)
{
    Rng rng(24);
    std::vector<uint8_t> buf(300 + 8);
    for (uint8_t &b : buf)
        b = static_cast<uint8_t>(rng.next());
    uint32_t seed = 0;
    for (size_t len = 0; len <= 300; ++len) {
        for (size_t off = 0; off < 8; ++off) {
            const uint8_t *p = buf.data() + off;
            uint32_t want = crc32Bitwise(p, len, seed);
            ASSERT_EQ(crc32(p, len, seed), want)
                << "len " << len << " offset " << off;
            size_t cut = len / 3;
            ASSERT_EQ(crc32(p + cut, len - cut, crc32(p, cut, seed)), want)
                << "len " << len << " offset " << off << " cut " << cut;
            seed = want;
        }
    }
}

TEST(MediaFaults, PoisonTracksLinesAndSurvivesCopies)
{
    MemImage img;
    img.writeInt(kHeapBase, 42, 8);
    uint64_t cleanHash = img.hash();

    img.markPoison(kHeapBase + 7); // any byte poisons its whole line
    EXPECT_TRUE(img.poisoned(kHeapBase, 1));
    EXPECT_TRUE(img.poisoned(kHeapBase + 63, 1));
    EXPECT_FALSE(img.poisoned(kHeapBase + 64, 64));
    EXPECT_TRUE(img.poisoned(kHeapBase + 32, 256)); // overlapping range
    EXPECT_EQ(img.poisonCount(), 1u);

    // Poison is a device-side signal, never part of the content hash.
    EXPECT_EQ(img.hash(), cleanHash);

    img.markPoison(kHeapBase + 192);
    std::vector<Addr> lines = img.poisonedLines();
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], kHeapBase);
    EXPECT_EQ(lines[1], kHeapBase + 192);

    // A crash snapshot (copy) keeps its faults.
    MemImage snap = img;
    EXPECT_EQ(snap.poisonCount(), 2u);
    snap.clearPoison(kHeapBase);
    EXPECT_EQ(snap.poisonCount(), 1u);
    EXPECT_EQ(img.poisonCount(), 2u); // the original is untouched

    img.clear();
    EXPECT_EQ(img.poisonCount(), 0u);
}

TEST(MediaFaults, DiffLinesReportsExactlyTheDifferingLines)
{
    MemImage a = populatedImage();
    MemImage b = a;
    EXPECT_TRUE(diffLines(a, b).empty());

    // One byte inside a shared resident line.
    b.writeInt(kHeapBase + 130, 0xff, 1);
    // One line on a page resident only in b (absent page reads zero).
    Addr lone = kHeapBase + 64 * MemImage::kPageBytes;
    b.writeInt(lone + 8, 1, 8);

    std::vector<Addr> diff = diffLines(a, b);
    ASSERT_EQ(diff.size(), 2u);
    EXPECT_EQ(diff[0], blockAlign(kHeapBase + 130));
    EXPECT_EQ(diff[1], lone);
    EXPECT_TRUE(std::is_sorted(diff.begin(), diff.end()));

    // Symmetric.
    EXPECT_EQ(diffLines(b, a), diff);
}

// --------------------------------------------------------------------------
// Fault planning
// --------------------------------------------------------------------------

TEST(MediaFaults, PlanIsAPureFunctionOfItsInputs)
{
    MemImage img = populatedImage();
    MediaFaultConfig cfg;
    cfg.enabled = true;
    cfg.faults = 8;
    cfg.seed = 1234;

    MediaFaultPlan p1 = planMediaFaults(cfg, img, 100000);
    MediaFaultPlan p2 = planMediaFaults(cfg, img, 100000);
    ASSERT_EQ(p1.faults.size(), cfg.faults);
    ASSERT_EQ(p1.faults.size(), p2.faults.size());
    for (size_t i = 0; i < p1.faults.size(); ++i) {
        EXPECT_EQ(p1.faults[i].line, p2.faults[i].line);
        EXPECT_EQ(p1.faults[i].kind, p2.faults[i].kind);
        EXPECT_EQ(p1.faults[i].cls, p2.faults[i].cls);
        EXPECT_EQ(p1.faults[i].arrivalTick, p2.faults[i].arrivalTick);
        EXPECT_EQ(p1.faults[i].payload, p2.faults[i].payload);
        EXPECT_EQ(p1.faults[i].scrubbed, p2.faults[i].scrubbed);
    }

    // A different seed draws a different schedule.
    cfg.seed = 4321;
    MediaFaultPlan p3 = planMediaFaults(cfg, img, 100000);
    bool differs = false;
    for (size_t i = 0; i < p1.faults.size(); ++i) {
        if (p1.faults[i].line != p3.faults[i].line ||
            p1.faults[i].payload != p3.faults[i].payload) {
            differs = true;
        }
    }
    EXPECT_TRUE(differs);

    // Every target is a block-aligned resident line outside the CRC slot
    // table, and every arrival precedes the crash.
    for (const MediaFault &f : p1.faults) {
        EXPECT_EQ(f.line % kBlockBytes, 0u);
        EXPECT_GE(f.line, kNvmmBase);
        EXPECT_LT(f.line, kHeapBase + kCrcHeapBytes);
        EXPECT_LT(f.arrivalTick, 100000u);
    }
}

TEST(MediaFaults, ClassSplitFollowsSilentFraction)
{
    MemImage img = populatedImage();
    MediaFaultConfig cfg;
    cfg.enabled = true;
    cfg.faults = 32;

    cfg.silentFraction = 0.0;
    for (const MediaFault &f : planMediaFaults(cfg, img, 50000).faults)
        EXPECT_EQ(f.cls, MediaFaultClass::kEccDetectable);

    cfg.silentFraction = 1.0;
    for (const MediaFault &f : planMediaFaults(cfg, img, 50000).faults)
        EXPECT_EQ(f.cls, MediaFaultClass::kSilent);
}

TEST(MediaFaults, ScrubberCorrectsOnlyEccDetectableFaults)
{
    MemImage img = populatedImage();
    MediaFaultConfig cfg;
    cfg.enabled = true;
    cfg.faults = 64;
    cfg.silentFraction = 0.5;
    cfg.seed = 9;

    // No scrubber: nothing is corrected.
    cfg.scrubInterval = 0;
    MediaFaultPlan none = planMediaFaults(cfg, img, 200000);
    EXPECT_EQ(none.scrubbed(), 0u);
    EXPECT_EQ(none.applied(), cfg.faults);

    // A tight scrub clock corrects most ECC-detectable faults (any whose
    // arrival precedes the last scrub boundary) and never a silent one.
    cfg.scrubInterval = 64;
    MediaFaultPlan scrubbed = planMediaFaults(cfg, img, 200000);
    EXPECT_GT(scrubbed.scrubbed(), 0u);
    EXPECT_EQ(scrubbed.scrubbed() + scrubbed.applied(),
              static_cast<unsigned>(scrubbed.faults.size()));
    for (const MediaFault &f : scrubbed.faults) {
        if (f.scrubbed) {
            EXPECT_EQ(f.cls, MediaFaultClass::kEccDetectable);
        }
        if (f.cls == MediaFaultClass::kSilent) {
            EXPECT_FALSE(f.scrubbed);
        }
    }
}

TEST(MediaFaults, ApplyMutatesBytesAndPoisonsEccTargets)
{
    MemImage clean = populatedImage();
    MediaFaultConfig cfg;
    cfg.enabled = true;
    cfg.faults = 8;
    cfg.seed = 77;

    // ECC-detectable faults poison exactly their applied target lines.
    cfg.silentFraction = 0.0;
    MediaFaultPlan ecc = planMediaFaults(cfg, clean, 60000);
    MemImage faulted = clean;
    applyMediaFaults(faulted, ecc);
    std::vector<Addr> expectPoison;
    for (const MediaFault &f : ecc.faults) {
        if (!f.scrubbed)
            expectPoison.push_back(f.line);
    }
    std::sort(expectPoison.begin(), expectPoison.end());
    expectPoison.erase(
        std::unique(expectPoison.begin(), expectPoison.end()),
        expectPoison.end());
    EXPECT_EQ(faulted.poisonedLines(), expectPoison);

    // The corruption is real: some targeted line's bytes changed, and
    // nothing outside the targeted lines did.
    std::vector<Addr> changed = diffLines(clean, faulted);
    EXPECT_FALSE(changed.empty());
    for (Addr line : changed) {
        EXPECT_TRUE(std::binary_search(expectPoison.begin(),
                                       expectPoison.end(), line))
            << "corruption escaped the planned target set";
    }

    // Silent faults corrupt without any device signal.
    cfg.silentFraction = 1.0;
    MediaFaultPlan silent = planMediaFaults(cfg, clean, 60000);
    MemImage silently = clean;
    applyMediaFaults(silently, silent);
    EXPECT_EQ(silently.poisonCount(), 0u);
    EXPECT_FALSE(diffLines(clean, silently).empty());
}

// --------------------------------------------------------------------------
// Hardened recovery on real crash images
// --------------------------------------------------------------------------

TEST(MediaFaults, HardenedRecoveryReplaysPristineCrashImages)
{
    RunConfig cfg = checksummedConfig(WorkloadKind::kLinkedList);
    RunResult full = runExperiment(cfg);
    ASSERT_TRUE(full.completed);

    std::vector<Tick> armed =
        findArmedPointsHardened(cfg, full.stats.cycles, 3);
    ASSERT_GE(armed.size(), 1u);

    for (Tick at : armed) {
        RunResult crashed = runExperiment(cfg, at);
        ASSERT_FALSE(crashed.completed);

        RecoveryReport rep = recoverImageHardened(crashed.durable);
        EXPECT_TRUE(rep.undone) << "crash @ " << at;
        EXPECT_NE(rep.verdict, RecoveryVerdict::kUnrecoverable)
            << "crash @ " << at;
        EXPECT_FALSE(rep.headerSuspect) << "crash @ " << at;
        EXPECT_EQ(rep.entriesDropped, 0u) << "crash @ " << at;
        expectMatchesReplay(cfg, crashed.durable,
                            "crash @ " + std::to_string(at));

        // Idempotence: recovery of a recovered image is a clean no-op.
        MemImage again = crashed.durable;
        RecoveryReport rep2 = recoverImageHardened(again);
        EXPECT_FALSE(rep2.undone);
        EXPECT_EQ(rep2.verdict, RecoveryVerdict::kClean);
        EXPECT_EQ(again.hash(), crashed.durable.hash());
    }
}

TEST(MediaFaults, InterruptedRecoveryConvergesUnderMediaFaults)
{
    // The triple-crash schedule of the legacy suite, rerun against the
    // hardened path with NVMM media corruption on the crash image: two
    // interrupted passes then a full one must converge byte-for-byte
    // with a single uninterrupted pass on a twin.
    RunConfig cfg = checksummedConfig(WorkloadKind::kAvlTreeIncremental);
    RunResult full = runExperiment(cfg);
    ASSERT_TRUE(full.completed);

    std::vector<Tick> armed =
        findArmedPointsHardened(cfg, full.stats.cycles, 3);
    ASSERT_GE(armed.size(), 1u);

    unsigned converged = 0;
    for (size_t i = 0; i < armed.size(); ++i) {
        RunResult crashed = runExperiment(cfg, armed[i]);
        ASSERT_FALSE(crashed.completed);

        MediaFaultConfig mcfg;
        mcfg.enabled = true;
        mcfg.faults = 3;
        mcfg.silentFraction = 0.5;
        mcfg.seed = 1000 + i;
        MediaFaultPlan plan =
            planMediaFaults(mcfg, crashed.durable, crashed.stats.cycles);
        applyMediaFaults(crashed.durable, plan);

        MemImage direct = crashed.durable; // uninterrupted twin
        MemImage staged = crashed.durable; // triple-crash twin

        RecoveryReport repDirect = recoverImageHardened(direct);
        if (repDirect.verdict == RecoveryVerdict::kUnrecoverable) {
            // A fault that breaks the live entry chain is loud, never
            // silent -- and the staged schedule must agree.
            RecoveryReport repStaged = recoverImageHardened(staged);
            EXPECT_EQ(repStaged.verdict, RecoveryVerdict::kUnrecoverable);
            continue;
        }

        RecoveryReport rep1 = recoverImageHardenedInterrupted(staged, 1);
        EXPECT_TRUE(rep1.interrupted);
        EXPECT_LE(rep1.entriesApplied, 1u);
        recoverImageHardenedInterrupted(
            staged, std::max(1u, repDirect.entriesApplied / 2));
        RecoveryReport repFinal = recoverImageHardened(staged);

        EXPECT_EQ(staged.hash(), direct.hash())
            << "crash @ " << armed[i]
            << ": triple-crash recovery diverged from the direct pass";
        EXPECT_EQ(repFinal.verdict, repDirect.verdict);
        EXPECT_EQ(repFinal.degradedLines, repDirect.degradedLines);
        ++converged;
    }
    EXPECT_GT(converged, 0u)
        << "every armed point broke the entry chain; the schedule "
           "exercised nothing";
}

// --------------------------------------------------------------------------
// The corruption x crash x workload campaign
// --------------------------------------------------------------------------

TEST(MediaFaults, CampaignReportsZeroSilentEscapesOnAllWorkloads)
{
    CampaignOptions opts;
    opts.crashPoints = 3;
    opts.conflictPeriods = {}; // media axis only
    opts.mediaFaults = true;
    opts.mediaFaultCount = 3;
    opts.mediaSilentFraction = 0.5;
    opts.mediaDraws = 2;
    opts.initOps = 250;
    opts.simOps = 25;
    opts.seed = 7;

    CampaignReport report = runFaultCampaign(opts);

    // 8 workloads x (3 crash cells + 3 points x 2 draws media cells).
    EXPECT_EQ(opts.kinds.size(), 8u);
    ASSERT_EQ(report.cells.size(), opts.kinds.size() * (3 + 3 * 2));
    EXPECT_EQ(report.mediaCells, opts.kinds.size() * 3 * 2);

    EXPECT_EQ(report.exceptionCells, 0u);
    EXPECT_GT(report.mediaChecked, 0u);
    EXPECT_EQ(report.mediaMatched, report.mediaChecked);
    EXPECT_EQ(report.silentEscapes, 0u) << report.toJson();
    EXPECT_GT(report.mediaFaultsApplied, 0u);

    // The verdict distribution must cover the interesting half of the
    // state machine: some cells detect-and-cope (repair or degrade).
    EXPECT_GT(report.mediaRepairedCells + report.mediaDegradedCells, 0u);

    // Per-cell invariants: a checked cell reached a verdict and kept its
    // retries inside the bounded-retry contract.
    for (const CampaignCellResult &cell : report.cells) {
        if (cell.kind != CampaignCellKind::kMedia || !cell.mediaChecked)
            continue;
        EXPECT_TRUE(cell.mediaNoEscapes) << cell.config;
        EXPECT_TRUE(cell.mediaRetryBounded) << cell.config;
        EXPECT_EQ(cell.mediaEscapes, 0u) << cell.config;
        EXPECT_EQ(cell.mediaApplied + cell.mediaScrubbed, cell.mediaPlanned)
            << cell.config;
    }
    EXPECT_TRUE(report.passed()) << report.toJson();
}

TEST(MediaFaults, CampaignIsBitIdenticalAcrossWorkerCounts)
{
    CampaignOptions opts;
    opts.kinds = {WorkloadKind::kLinkedList,
                  WorkloadKind::kAvlTreeIncremental};
    opts.crashPoints = 2;
    opts.conflictPeriods = {};
    opts.mediaFaults = true;
    opts.mediaFaultCount = 3;
    opts.mediaDraws = 2;
    opts.initOps = 200;
    opts.simOps = 20;
    opts.seed = 11;

    opts.workers = 1;
    CampaignReport serial = runFaultCampaign(opts);
    opts.workers = 8;
    CampaignReport parallel = runFaultCampaign(opts);

    ASSERT_EQ(serial.cells.size(), parallel.cells.size());
    EXPECT_EQ(serial.signature(), parallel.signature());
    for (size_t i = 0; i < serial.cells.size(); ++i) {
        EXPECT_EQ(serial.cells[i].mediaVerdict,
                  parallel.cells[i].mediaVerdict)
            << serial.cells[i].config;
        EXPECT_EQ(serial.cells[i].mediaApplied,
                  parallel.cells[i].mediaApplied);
        EXPECT_EQ(serial.cells[i].mediaDetected,
                  parallel.cells[i].mediaDetected);
        EXPECT_EQ(serial.cells[i].mediaEscapes,
                  parallel.cells[i].mediaEscapes);
        EXPECT_EQ(serial.cells[i].imageHash, parallel.cells[i].imageHash);
    }
    EXPECT_GT(serial.mediaChecked, 0u);
    EXPECT_TRUE(serial.passed()) << serial.toJson();
}

// --------------------------------------------------------------------------
// Golden no-regression fingerprints (checksums off)
// --------------------------------------------------------------------------

TEST(MediaFaults, ChecksumsOffStaysBitIdenticalToSeedFingerprints)
{
    // Captured from the pre-hardening seed build with
    // makeRunConfig(kind, kLogPSf, sp=true), initOps=250, simOps=25.
    // Any drift here means the checksum/media machinery leaked into the
    // default op stream -- the one regression this PR must not make.
    struct Golden
    {
        WorkloadKind kind;
        uint64_t cycles;
        uint64_t hash;
    };
    const Golden golden[] = {
        {WorkloadKind::kGraph, 131051, 0x5a21077d476a7f37ull},
        {WorkloadKind::kHashMap, 130222, 0xe39d4e065e6e4c1cull},
        {WorkloadKind::kLinkedList, 99863, 0x41e00c06aee741d3ull},
        {WorkloadKind::kStringSwap, 189050, 0x08bed0eb2eab01ffull},
        {WorkloadKind::kAvlTree, 51890, 0x91d8e718a6b679aeull},
        {WorkloadKind::kBTree, 50608, 0xa136bbf7fd1dde2full},
        {WorkloadKind::kRbTree, 49290, 0x1fc9969341ba0d79ull},
        {WorkloadKind::kAvlTreeIncremental, 104138, 0x79f03c96fe9243c9ull},
    };
    for (const Golden &g : golden) {
        RunConfig cfg = makeRunConfig(g.kind, PersistMode::kLogPSf, true);
        cfg.params.initOps = 250;
        cfg.params.simOps = 25;
        ASSERT_FALSE(cfg.params.checksums);
        RunResult r = runExperiment(cfg);
        ASSERT_TRUE(r.completed);
        EXPECT_EQ(r.stats.cycles, g.cycles) << describeRunConfig(cfg);
        EXPECT_EQ(r.durable.hash(), g.hash) << describeRunConfig(cfg);
    }
}
