/**
 * @file
 * perfbench: host-time benchmark of the specpersist simulator.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans FILE]
 *   perfbench --selftest
 *   perfbench --emit-goldens
 *
 * A run repeats closed-loop passes over the workload's grid (the next
 * simulator run starts when the previous one finishes), single-threaded,
 * until S seconds have passed (at least kMinPasses passes). Host times are
 * reported per unit (simulator run or campaign cell) at its fastest over
 * the passes. --trace 0 prints the end-to-end metrics;
 * --trace 1 makes a separate traced run that prints the per-layer ones.
 * Either way the last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. See README.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hh"
#include "harness/machine.hh"
#include "harness/report.hh"
#include "pmem/recovery.hh"
#include "workloads/factory.hh"

namespace perfbench
{
namespace
{

using namespace sp;

constexpr unsigned kMinPasses = 3;
/** A campaign normally takes a few seconds; this bounds a hung one. */
constexpr double kCampaignTimeoutS = 60;
/** Heartbeat length of the traced run, in simulated cycles. */
constexpr Tick kHeartbeatCycles = 100'000;
/** Paper Figure 8 geomean normalized execution times over all seven
 *  structures (EXPERIMENTS.md): Log+P+Sf 1.60, SP256 1.38. */
constexpr double kPaperLogPSf = 1.60;
constexpr double kPaperSP = 1.38;

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    /** How the number was made (printed in the human-readable report). */
    std::string note;
};

/** Output checks: every simulator run, campaign cell, and workload-level
 *  invariant is one attempted unit. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;

    void check(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (failures.size() < 20)
            failures.push_back(what);
    }
};

/** One closed-loop pass over a workload's grid. */
struct PassResult
{
    double wallS = 0;
    double setupS = 0;
    double simS = 0;
    double finishS = 0;
    /** Wall time of the pass's fault campaign. */
    double campaignS = 0;
    uint64_t retired = 0;
    uint64_t setupAllocs = 0;
    uint64_t simAllocs = 0;
    std::vector<RunRecord> runs;
    bool hasCampaign = false;
    CampaignOutcome campaign;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolation quantile (numpy's default). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * (v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - lo);
}

template <typename F>
std::vector<double>
collect(const std::vector<PassResult> &passes, F &&f)
{
    std::vector<double> out;
    for (const PassResult &p : passes)
        out.push_back(f(p));
    return out;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

PassResult
runPass(const WorkloadSpec &spec, SpanLog *log, Tick chunk)
{
    PassResult p;
    double t0 = nowSeconds();
    Phase pass(log, "bench.pass");
    for (const Cell &cell : spec.cells) {
        RunRecord r = runCell(cell, log, chunk);
        p.setupS += r.setupS;
        p.simS += r.simS;
        p.finishS += r.finishS;
        p.retired += r.stats.instructions;
        p.setupAllocs += r.setupAllocs;
        p.simAllocs += r.simAllocs;
        p.runs.push_back(std::move(r));
    }
    if (spec.campaign) {
        if (log)
            log->beginRun();
        Phase c(log, "harness.campaign");
        p.campaign = runCampaignIsolated(spec.campaignOpts, kCampaignTimeoutS);
        p.hasCampaign = true;
        p.campaignS = c.stop();
    }
    pass.stop();
    p.wallS = nowSeconds() - t0;
    return p;
}

/** Output checks of one run: its own checks, plus the pinned golden on
 *  the default seed. */
void
checkRun(const WorkloadSpec &spec, const RunRecord &r, Tally &tally)
{
    std::string why = r.failure;
    if (why.empty() && spec.pinned)
        why = checkGolden(spec.name, r);
    tally.check(why.empty(), spec.name + " " + r.label + ": " + why);
}

/** Every cell's verdict; false when the campaign gave no result. */
bool
checkCampaignCells(const CampaignOutcome &c, Tally &tally)
{
    if (!c.crash.empty()) {
        tally.check(false, "fault campaign: " + c.crash);
        return false;
    }
    size_t described = 0;
    for (const CampaignCell &cell : c.cells) {
        std::string what = "campaign cell failed";
        if (cell.failed && described < c.failures.size())
            what = "campaign cell " + c.failures[described++];
        tally.check(!cell.failed, what);
    }
    return true;
}

void
checkCampaign(const WorkloadSpec &spec, const CampaignOutcome &rep,
              Tally &tally)
{
    if (!checkCampaignCells(rep, tally))
        return;
    tally.check(rep.passed, "CampaignReport::passed() is false");
    // Precondition: a campaign whose epochs all commit never exercises
    // the abort/rollback path it exists to test.
    tally.check(rep.totalAborts > 0,
                "precondition: the campaign aborted no epochs");
    if (spec.pinned)
        tally.check(rep.signature == campaignSignatureGolden(),
                    "campaign signature " + std::to_string(rep.signature) +
                        " differs from the pinned golden");
}

void
checkPass(const WorkloadSpec &spec, const PassResult &p, Tally &tally)
{
    for (const RunRecord &r : p.runs) {
        checkRun(spec, r, tally);
        if (r.variant != Variant::kSPConflict)
            continue;
        // Seed-independent invariant: aborts roll speculation back, so
        // the final durable image equals the non-speculative run's.
        for (const RunRecord &g : p.runs) {
            if (g.kind == r.kind && g.variant == Variant::kLogPSf)
                tally.check(g.durableHash == r.durableHash,
                            r.label + ": final image differs from " +
                                g.label);
        }
    }
    if (p.hasCampaign)
        checkCampaign(spec, p.campaign, tally);
}

/** Geomean over structures of Log+P+Sf cycles / SP256 cycles. */
double
spSpeedup(const std::vector<RunRecord> &runs, const WorkloadSpec &spec)
{
    double logSum = 0;
    unsigned n = 0;
    for (WorkloadKind kind : spec.kinds) {
        Tick base = 0, sp = 0;
        for (const RunRecord &r : runs) {
            if (r.kind != kind)
                continue;
            if (r.variant == Variant::kLogPSf)
                base = r.stats.cycles;
            else if (r.variant == Variant::kSP)
                sp = r.stats.cycles;
        }
        if (base == 0 || sp == 0)
            throw std::logic_error("sp_speedup: missing Log+P+Sf or SP256 "
                                   "run for a structure");
        logSum += std::log(static_cast<double>(base) / sp);
        ++n;
    }
    return std::exp(logSum / n);
}

std::string
kindList(const WorkloadSpec &spec)
{
    std::string s;
    for (WorkloadKind k : spec.kinds)
        s += std::string(s.empty() ? "" : ",") + workloadKindName(k);
    return s;
}

/** Peak resident set of this process or of its largest campaign child. */
double
peakRssMb()
{
    struct rusage self, children;
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    // ru_maxrss is in KiB on Linux.
    return std::max(self.ru_maxrss, children.ru_maxrss) / 1024.0;
}

/** The default-seed Figure 8 grid at full bench scale, checked against
 *  the pinned subset of the 154,819,131-cycle seed_sweep golden. Untimed. */
void
checkFig08Golden(const WorkloadSpec &spec, Tally &tally)
{
    WorkloadSpec full = makeWorkloadSpec(spec.name, spec.seed, Size::kFull);
    uint64_t total = 0;
    for (const Cell &cell : full.cells) {
        RunRecord r = runCell(cell, nullptr, 0);
        tally.check(r.failure.empty(),
                    "fig08 " + r.label + ": " + r.failure);
        total += r.stats.cycles;
    }
    tally.check(total == fig08SubsetGolden(spec.name),
                "fig08 subset total " + std::to_string(total) +
                    " cycles differs from the pinned " +
                    std::to_string(fig08SubsetGolden(spec.name)));
}

struct Options
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string spansPath;
    Size size = Size::kMeasured;
};

struct Outcome
{
    Tally tally;
    std::vector<Metric> metrics;
    /** Human-readable context lines printed before the metrics. */
    std::vector<std::string> notes;
    /** Spans of the traced run (empty for --trace 0). */
    std::unique_ptr<SpanLog> spans;
};

/** Untraced passes until `seconds` have passed, at least kMinPasses. */
std::vector<PassResult>
runPasses(const WorkloadSpec &spec, double seconds, Tally &tally)
{
    std::vector<PassResult> passes;
    double t0 = nowSeconds();
    while (passes.size() < kMinPasses || nowSeconds() - t0 < seconds) {
        passes.push_back(runPass(spec, nullptr, 0));
        checkPass(spec, passes.back(), tally);
    }
    return passes;
}

/**
 * Each unit's fastest time over the passes. Unit i of every pass is the
 * same simulator run or campaign cell, so its repeats differ only in what
 * the host did meanwhile; other tenants can only slow a unit down, and on
 * a shared host that slowdown drifts over minutes (README.md, "Steadiness"),
 * so the fastest repeat is the steadiest estimate of the unit's own cost.
 */
template <typename F>
std::vector<double>
fastestPerUnit(const std::vector<PassResult> &passes, F &&unitTimes)
{
    std::vector<double> best;
    for (const PassResult &p : passes) {
        std::vector<double> t = unitTimes(p);
        if (best.empty())
            best = t;
        for (size_t i = 0; i < std::min(best.size(), t.size()); ++i)
            best[i] = std::min(best[i], t[i]);
    }
    return best;
}

double
sum(const std::vector<double> &v)
{
    double total = 0;
    for (double x : v)
        total += x;
    return total;
}

/** One field of every simulator run of a pass, in grid order. */
template <typename F>
std::vector<double>
runTimes(const PassResult &p, F &&field)
{
    std::vector<double> t;
    for (const RunRecord &r : p.runs)
        t.push_back(field(r));
    return t;
}

/** What cell_ms_* is over: the campaign's cells on a campaign workload,
 *  else the simulator runs (construct + runUntil + finish), in ms. */
std::vector<double>
cellTimes(const PassResult &p)
{
    if (!p.hasCampaign)
        return runTimes(p, [](const RunRecord &r) { return r.cellMs; });
    std::vector<double> ms;
    for (const CampaignCell &c : p.campaign.cells)
        ms.push_back(c.wallMs);
    return ms;
}

// --------------------------------------------------------------------------
// --trace 0: end-to-end metrics.
// --------------------------------------------------------------------------

void
endToEnd(const Options &opt, Outcome &out)
{
    WorkloadSpec spec = makeWorkloadSpec(opt.workload, opt.seed, opt.size);
    Tally &tally = out.tally;

    std::vector<RunRecord> reference;
    for (const Cell &cell : spec.referenceCells) {
        reference.push_back(runCell(cell, nullptr, 0));
        checkRun(spec, reference.back(), tally);
    }

    std::vector<PassResult> passes = runPasses(spec, opt.seconds, tally);
    // Read before the full-scale golden rerun, which is not part of the
    // measured workload.
    const double peakRss = peakRssMb();

    if (spec.fig08Golden)
        checkFig08Golden(spec, tally);

    std::vector<RunRecord> speedRuns = passes.front().runs;
    speedRuns.insert(speedRuns.end(), reference.begin(), reference.end());
    double speedup = spSpeedup(speedRuns, spec);
    double paper = kPaperLogPSf / kPaperSP;
    char paperNote[200];
    std::snprintf(paperNote, sizeof(paperNote),
                  "Paper Fig. 8: %.3f (1.60/1.38, geomean over all seven "
                  "structures); simulator error %+.1f%%. No paper value "
                  "exists for this subset.",
                  paper, (speedup / paper - 1) * 100);

    const std::vector<double> cells = fastestPerUnit(passes, cellTimes);
    const double setupS = sum(fastestPerUnit(passes, [](const PassResult &p) {
        return runTimes(p, [](const RunRecord &r) { return r.setupS; });
    }));
    const double simS = sum(fastestPerUnit(passes, [](const PassResult &p) {
        return runTimes(p, [](const RunRecord &r) { return r.simS; });
    }));
    // One pass with every run, and the campaign, at its fastest.
    const double wallS =
        sum(fastestPerUnit(passes, [](const PassResult &p) {
            return runTimes(p,
                            [](const RunRecord &r) { return r.cellMs / 1e3; });
        })) +
        sum(fastestPerUnit(passes, [](const PassResult &p) {
            return std::vector<double>{p.campaignS};
        }));
    const std::string nPasses = std::to_string(passes.size());
    const std::string fastest = "fastest of " + nPasses + " passes";
    const std::string cellWhat = std::to_string(cells.size()) +
        (spec.campaign ? " campaign cells" : " simulator runs") +
        ", each its " + fastest;
    const std::string phaseScope = spec.campaign
        ? "; covers the " + std::to_string(spec.cells.size()) +
            " runs driven through Machine, not the campaign cells"
        : "";

    std::string perPass;
    for (const PassResult &p : passes) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " %.3f/%.3f/%.3f", p.wallS, p.setupS,
                      p.simS);
        perPass += buf;
    }
    out.notes.push_back("per pass wall/setup/sim (s):" + perPass);
    out.notes.push_back("passes " + nPasses + ", " +
                        std::to_string(spec.cells.size()) +
                        " simulator runs per pass" +
                        (spec.campaign ? " + one fault campaign" : "") +
                        ", structures " + kindList(spec) +
                        "; modelled caches start empty");
    out.metrics = {
        {"wall_s", wallS, "s",
         "host; one pass (runs, checks excluded" +
             std::string(spec.campaign ? ", plus the campaign" : "") +
             "), each its " + fastest},
        {"setup_s", setupS, "s",
         "host; Machine construction per pass, each run its " + fastest +
             phaseScope},
        {"sim_s", simS, "s",
         "host; runUntil per pass, each run its " + fastest + phaseScope},
        {"sim_mips", ratio(passes.front().retired / 1e6, simS), "Mop/s",
         "retired micro-ops per second of sim_s"},
        {"peak_rss_mb", peakRss, "MB",
         "host; whole process and its campaign children"},
        {"sp_speedup", speedup, "ratio",
         "simulated; geomean over " + kindList(spec) +
             " of Log+P+Sf/SP256 cycles. " + paperNote},
        {"cell_ms_p50", quantile(cells, 0.5), "ms", "host; over " + cellWhat},
        {"cell_ms_p90", quantile(cells, 0.9), "ms", "host; over " + cellWhat},
    };
}

// --------------------------------------------------------------------------
// --trace 1: per-layer metrics from a separate traced run.
// --------------------------------------------------------------------------

/** Strip every observer from a config. */
RunConfig
unobserved(RunConfig cfg)
{
    cfg.trace = TraceOptions{};
    cfg.audit = AuditOptions{};
    cfg.account = AccountOptions{};
    return cfg;
}

void
perLayer(const Options &opt, Outcome &out)
{
    WorkloadSpec spec = makeWorkloadSpec(opt.workload, opt.seed, opt.size);
    Tally &tally = out.tally;

    // Untraced and traced passes alternate, so host-speed drift hits both
    // alike; the untraced ones are what the spans' overhead is measured
    // against.
    out.spans = std::make_unique<SpanLog>();
    SpanLog &log = *out.spans;
    std::vector<PassResult> untraced, passes;
    double t0 = nowSeconds();
    do {
        untraced.push_back(runPass(spec, nullptr, 0));
        checkPass(spec, untraced.back(), tally);
        passes.push_back(runPass(spec, &log, kHeartbeatCycles));
        checkPass(spec, passes.back(), tally);
    } while (nowSeconds() - t0 < opt.seconds);
    const PassResult &first = passes.front();

    // Probe: functional setup and the op emitter drained with no core,
    // then machine assembly with the setup deferred.
    double setupS = 0, emitS = 0;
    uint64_t initOps = 0, emitted = 0;
    std::vector<double> assembleMs;
    {
        Phase probe(&log, "probe.layers");
        for (const Cell &cell : spec.cells) {
            log.beginRun();
            std::unique_ptr<Workload> w;
            {
                Phase p(&log, "workloads.setup");
                w = makeWorkload(cell.cfg.kind, cell.cfg.params);
                w->setup();
                setupS += p.stop();
            }
            initOps += cell.cfg.params.initOps;
            {
                Phase p(&log, "pmem.emit");
                MicroOp op;
                while (w->program().next(op))
                    ++emitted;
                emitS += p.stop();
            }
            Phase p(&log, "harness.assemble");
            Machine deferred(cell.cfg, nullptr, true);
            assembleMs.push_back(p.stop() * 1e3);
        }
    }

    // Probe: each observer alone against observers off, on the SP runs.
    // Observers never change simulated results, so every variant must
    // still match the run's golden.
    std::array<double, 4> observerSim{}; // off, trace, audit, account
    {
        Phase probe(&log, "probe.observers");
        for (const Cell &cell : spec.cells) {
            if (cell.variant != Variant::kSP)
                continue;
            std::array<Cell, 4> variants;
            variants.fill(Cell{unobserved(cell.cfg), cell.variant, cell.label});
            variants[1].cfg.trace.categories = kTraceAll;
            variants[2].cfg.audit.enabled = true;
            variants[3].cfg.account.enabled = true;
            for (size_t i = 0; i < variants.size(); ++i) {
                RunRecord r = runCell(variants[i], nullptr, 0);
                checkRun(spec, r, tally);
                observerSim[i] += r.simS;
            }
        }
    }

    // Probe: crash each SP run halfway and time undo-log recovery
    // (hardened, CRC-validated recovery on checksummed images).
    std::vector<double> recoverMs;
    {
        Phase probe(&log, "probe.recover");
        for (const Cell &cell : spec.cells) {
            if (cell.variant != Variant::kSP &&
                cell.variant != Variant::kSPChecksums)
                continue;
            RunConfig cfg = unobserved(cell.cfg);
            Tick crashAt = 0;
            for (const RunRecord &r : first.runs)
                if (r.label == cell.label)
                    crashAt = r.stats.cycles / 2;
            log.beginRun();
            Machine m(cfg);
            m.runUntil(crashAt);
            RunResult crashed = m.finish(crashAt);
            MemImage img = std::move(crashed.durable);
            bool ok = crashed.outcome == RunOutcome::kCrashed;
            {
                Phase p(&log, "pmem.recover");
                if (cfg.params.checksums) {
                    RecoveryOptions ro;
                    ro.checksums = true;
                    ok = ok && recoverImageHardened(img, ro).verdict !=
                        RecoveryVerdict::kUnrecoverable;
                } else {
                    recoverImage(img);
                }
                recoverMs.push_back(p.stop() * 1e3);
            }
            std::string why;
            ok = ok && checkDurable(cfg, img, &why);
            tally.check(ok, cell.label + " crash at " +
                                std::to_string(crashAt) +
                                ": recovered image invalid " + why);
        }
    }

    // Campaign cell costs: the workload's own campaign, or a campaign
    // over the workload's structures at the campaign's default sizes.
    CampaignOutcome probeCampaign;
    const CampaignOutcome *campaign = &first.campaign;
    if (!spec.campaign) {
        Phase probe(&log, "probe.campaign");
        CampaignOptions o =
            makeWorkloadSpec("fault_campaign", opt.seed, opt.size)
                .campaignOpts;
        o.kinds = spec.kinds;
        log.beginRun();
        Phase p(&log, "harness.campaign");
        probeCampaign = runCampaignIsolated(o, kCampaignTimeoutS);
        campaign = &probeCampaign;
        checkCampaignCells(probeCampaign, tally);
    }
    auto campaignCellMs = [&](CampaignCellKind kind) {
        std::vector<double> ms;
        for (const CampaignCell &c : campaign->cells)
            if (c.kind == kind)
                ms.push_back(c.wallMs);
        return median(ms);
    };

    std::string why;
    tally.check(log.nests(&why), "spans do not nest: " + why);

    // Simulated counts and layer ratios over the first traced pass.
    Stats s;
    uint64_t maxSsb = 0, maxInflight = 0;
    uint64_t volHits = 0, volMisses = 0, durHits = 0, durMisses = 0;
    std::vector<double> heartbeats;
    for (const PassResult &p : passes)
        for (const RunRecord &r : p.runs)
            heartbeats.insert(heartbeats.end(), r.heartbeatMs.begin(),
                              r.heartbeatMs.end());
    for (const RunRecord &r : first.runs) {
        const Stats &t = r.stats;
        s.cycles += t.cycles;
        s.instructions += t.instructions;
        s.fenceStallCycles += t.fenceStallCycles;
        s.fetchQueueStallCycles += t.fetchQueueStallCycles;
        s.ssbFullStallCycles += t.ssbFullStallCycles;
        s.checkpointStallCycles += t.checkpointStallCycles;
        s.epochsStarted += t.epochsStarted;
        s.epochsCommitted += t.epochsCommitted;
        s.aborts += t.aborts;
        s.bloomLookups += t.bloomLookups;
        s.bloomFalsePositives += t.bloomFalsePositives;
        s.ssbForwards += t.ssbForwards;
        s.spsTriples += t.spsTriples;
        s.l1dHits += t.l1dHits;
        s.l1dMisses += t.l1dMisses;
        s.wpqInserts += t.wpqInserts;
        s.wpqCoalesced += t.wpqCoalesced;
        s.nvmmWrites += t.nvmmWrites;
        s.pcommits += t.pcommits;
        s.fences += t.fences;
        s.storesDuringPcommit += t.storesDuringPcommit;
        maxSsb = std::max<uint64_t>(maxSsb, t.ssbMaxOccupancy);
        maxInflight = std::max<uint64_t>(maxInflight, t.maxInflightPcommits);
        volHits += r.volTransHits;
        volMisses += r.volTransMisses;
        durHits += r.durTransHits;
        durMisses += r.durTransMisses;
    }
    uint64_t aborts = s.aborts + (first.hasCampaign
                                      ? first.campaign.totalAborts
                                      : 0);

    double tracedSim =
        median(collect(passes, [](auto &p) { return p.simS; }));
    auto phases = [](auto &p) { return p.setupS + p.simS; };
    double tracedPhases = median(collect(passes, phases));
    double untracedPhases = median(collect(untraced, phases));
    std::map<std::string, double> self = log.selfSeconds();
    std::map<std::string, double> layerSelf;
    for (const auto &[name, secs] : self)
        layerSelf[name.substr(0, name.find('.'))] += secs;

    auto count = [](uint64_t v) { return static_cast<double>(v); };
    out.notes.push_back(
        "traced passes " + std::to_string(passes.size()) +
        " alternating with as many untraced ones, then probes; " +
        std::to_string(log.spans().size()) + " spans; heartbeat " +
        std::to_string(kHeartbeatCycles) + " simulated cycles; stats over " +
        std::to_string(first.runs.size()) + " runs of one pass");
    out.metrics = {
        {"workloads.setup_s", setupS, "s", "makeWorkload+setup, one grid"},
        {"workloads.setup_kops_per_s", ratio(initOps / 1e3, setupS),
         "kop/s", "functional init ops per second of setup"},
        {"harness.setup_allocs",
         median(collect(passes, [](auto &p) { return 1.0 * p.setupAllocs; })),
         "count", "allocations in Machine construction per pass"},
        {"harness.assemble_ms", median(assembleMs), "ms",
         "Machine(cfg, nullptr, deferSetup) median"},
        {"harness.finish_s",
         median(collect(passes, [](auto &p) { return p.finishS; })), "s",
         "Machine::finish per pass (clean-shutdown writeback)"},
        {"harness.sim_allocs",
         median(collect(passes, [](auto &p) { return 1.0 * p.simAllocs; })),
         "count", "allocations inside runUntil per pass"},
        {"harness.crash_cell_ms", campaignCellMs(CampaignCellKind::kCrash),
         "ms", "campaign crash cell median"},
        {"harness.conflict_cell_ms",
         campaignCellMs(CampaignCellKind::kConflict), "ms",
         "campaign conflict cell median"},
        {"pmem.emit_s", emitS, "s",
         "Program::next drained with no core, one grid"},
        {"pmem.emit_mops_per_s", ratio(emitted / 1e6, emitS), "Mop/s",
         "micro-ops emitted per second"},
        {"pmem.recover_ms_p50", quantile(recoverMs, 0.5), "ms",
         "recoverImage(/Hardened) of SP runs crashed halfway, over " +
             std::to_string(recoverMs.size())},
        {"pmem.recover_ms_p90", quantile(recoverMs, 0.9), "ms",
         "as p50"},
        {"pmem.pcommits", count(s.pcommits), "count", "simulated"},
        {"pmem.fences", count(s.fences), "count", "simulated"},
        {"pmem.stores_per_pcommit",
         ratio(count(s.storesDuringPcommit), count(s.pcommits)), "ratio",
         "simulated"},
        {"cpu.timing_s", tracedSim - emitS, "s",
         "derived: traced sim_s - pmem.emit_s"},
        {"cpu.heartbeat_ms_p50", quantile(heartbeats, 0.5), "ms",
         "runUntil chunk, over " + std::to_string(heartbeats.size())},
        {"cpu.heartbeat_ms_p90", quantile(heartbeats, 0.9), "ms", "as p50"},
        {"cpu.cycles", count(s.cycles), "cycles", "simulated"},
        {"cpu.ipc", ratio(count(s.instructions), count(s.cycles)), "ratio",
         "simulated"},
        {"cpu.fence_stall_cycles", count(s.fenceStallCycles), "cycles",
         "simulated"},
        {"cpu.fetchq_stall_cycles", count(s.fetchQueueStallCycles),
         "cycles", "simulated"},
        {"cpu.ssb_full_stall_cycles", count(s.ssbFullStallCycles), "cycles",
         "simulated"},
        {"cpu.checkpoint_stall_cycles", count(s.checkpointStallCycles),
         "cycles", "simulated"},
        {"core.aborts", count(aborts), "count",
         "simulated; runs of one pass plus its campaign"},
        {"core.commit_ratio",
         ratio(count(s.epochsCommitted), count(s.epochsStarted)), "ratio",
         "committed / started epochs"},
        {"core.ssb_max_occupancy", count(maxSsb), "count", "simulated"},
        {"core.bloom_fp_rate",
         ratio(count(s.bloomFalsePositives), count(s.bloomLookups)),
         "ratio", "simulated"},
        {"core.ssb_forwards", count(s.ssbForwards), "count", "simulated"},
        {"core.sps_triples", count(s.spsTriples), "count", "simulated"},
        {"mem.vol_trans_miss_rate",
         ratio(count(volMisses), count(volHits + volMisses)), "ratio",
         "volatile image page-translation cache"},
        {"mem.dur_trans_miss_rate",
         ratio(count(durMisses), count(durHits + durMisses)), "ratio",
         "durable image page-translation cache"},
        {"mem.l1d_hit_rate",
         ratio(count(s.l1dHits), count(s.l1dHits + s.l1dMisses)), "ratio",
         "simulated"},
        {"mem.wpq_inserts", count(s.wpqInserts), "count", "simulated"},
        {"mem.wpq_coalesced", count(s.wpqCoalesced), "count", "simulated"},
        {"mem.nvmm_writes", count(s.nvmmWrites), "count", "simulated"},
        {"mem.max_inflight_pcommits", count(maxInflight), "count",
         "simulated"},
        {"sim.trace_overhead_x", ratio(observerSim[1], observerSim[0]),
         "ratio", "runUntil with trace-all / observers off, SP runs"},
        {"sim.audit_overhead_x", ratio(observerSim[2], observerSim[0]),
         "ratio", "audit alone / observers off"},
        {"sim.account_overhead_x", ratio(observerSim[3], observerSim[0]),
         "ratio", "cycle account alone / observers off"},
        {"self.harness_s", layerSelf["harness"], "s", "span self time"},
        {"self.cpu_s", layerSelf["cpu"], "s", "span self time"},
        {"self.workloads_s", layerSelf["workloads"], "s", "span self time"},
        {"self.pmem_s", layerSelf["pmem"], "s", "span self time"},
        {"self.bench_s", layerSelf["bench"] + layerSelf["probe"], "s",
         "benchmark's own checks and probe scaffolding"},
        {"bench.trace_overhead", ratio(tracedPhases, untracedPhases) - 1,
         "frac",
         "traced construct+runUntil over the untraced setup_s+sim_s, "
         "minus 1"},
    };
}

Outcome
runWorkload(const Options &opt)
{
    Outcome out;
    if (opt.trace)
        perLayer(opt, out);
    else
        endToEnd(opt, out);
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void
printOutcome(const Options &opt, const Outcome &out)
{
    const Tally &t = out.tally;
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    for (const std::string &n : out.notes)
        std::printf("  # %s\n", n.c_str());
    for (const Metric &m : out.metrics)
        std::printf("  %-28s %16.6f %-7s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    std::printf("  %-28s %16.6f %-7s %llu of %llu attempted runs, cells "
                "and invariants failed\n",
                "failed_frac", ratio(t.failed, t.attempted), "frac",
                static_cast<unsigned long long>(t.failed),
                static_cast<unsigned long long>(t.attempted));
    for (const std::string &f : t.failures)
        std::printf("  FAILED: %s\n", f.c_str());

    std::string json = "{\"correct\": ";
    json += t.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(t.attempted);
    json += ", \"failed\": " + std::to_string(t.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

// --------------------------------------------------------------------------
// --selftest and --emit-goldens.
// --------------------------------------------------------------------------

/** Everything a run produced that the simulation determines. */
std::string
fingerprint(const RunRecord &r)
{
    return statsCsvRow("", r.stats) + "|" + std::to_string(r.durableHash) +
        "|" + runOutcomeName(r.outcome);
}

int
selfTest()
{
    int failures = 0;
    auto expect = [&failures](bool ok, const std::string &what) {
        std::printf("selftest %s: %s\n", ok ? "ok" : "FAILED", what.c_str());
        failures += ok ? 0 : 1;
    };
    for (const std::string &name : workloadNames()) {
        // Chunked runUntil must reproduce the one-call run exactly.
        WorkloadSpec spec = makeWorkloadSpec(name, kDefaultSeed, Size::kTiny);
        for (const Cell &cell : spec.cells) {
            SpanLog log;
            RunRecord whole = runCell(cell, nullptr, 0);
            RunRecord chunked = runCell(cell, &log, 997);
            expect(fingerprint(whole) == fingerprint(chunked) &&
                       chunked.heartbeatMs.size() > 1,
                   name + " " + cell.label + " chunked == unchunked (" +
                       std::to_string(chunked.heartbeatMs.size()) +
                       " chunks)");
        }
        for (bool trace : {false, true}) {
            Options opt;
            opt.workload = name;
            opt.seconds = 0;
            opt.trace = trace;
            opt.size = Size::kTiny;
            Outcome out = runWorkload(opt);
            expect(out.tally.failed == 0,
                   name + " trace=" + std::to_string(trace) +
                       " output checks (" +
                       std::to_string(out.tally.attempted) + " attempted)" +
                       (out.tally.failures.empty()
                            ? ""
                            : ": " + out.tally.failures.front()));
            bool unitsOk = true;
            std::string list;
            for (const Metric &m : out.metrics) {
                unitsOk = unitsOk && !m.unit.empty() &&
                    std::isfinite(m.value);
                list += (list.empty() ? "" : ",") + m.name + ":" + m.unit;
            }
            expect(unitsOk, name + " trace=" + std::to_string(trace) +
                                " every metric has a unit and a value");
            if (trace) {
                std::string why;
                bool nested = out.spans && out.spans->nests(&why) &&
                    !out.spans->spans().empty();
                expect(nested, name + " traced spans nest " + why);
            }
            // run.py compares these names and units with BENCHMARK.json.
            std::printf("selftest-metrics %s %d %s\n", name.c_str(),
                        trace ? 1 : 0, list.c_str());
        }
    }
    std::printf("selftest %s (%d failures)\n",
                failures ? "FAILED" : "passed", failures);
    return failures ? 1 : 0;
}

int
emitGoldens()
{
    for (const std::string &name : workloadNames()) {
        WorkloadSpec spec =
            makeWorkloadSpec(name, kDefaultSeed, Size::kMeasured);
        std::vector<Cell> cells = spec.referenceCells;
        cells.insert(cells.end(), spec.cells.begin(), spec.cells.end());
        for (const Cell &cell : cells) {
            RunRecord r = runCell(cell, nullptr, 0);
            std::printf("    {\"%s\", \"%s\", %lluull, %lluull},\n",
                        name.c_str(), r.label.c_str(),
                        static_cast<unsigned long long>(r.stats.cycles),
                        static_cast<unsigned long long>(r.durableHash));
        }
        if (spec.campaign) {
            CampaignReport rep = runFaultCampaign(spec.campaignOpts);
            std::printf("campaign signature %lluull\n",
                        static_cast<unsigned long long>(rep.signature()));
        }
        if (spec.fig08Golden) {
            uint64_t total = 0;
            for (const Cell &cell :
                 makeWorkloadSpec(name, kDefaultSeed, Size::kFull).cells)
                total += runCell(cell, nullptr, 0).stats.cycles;
            std::printf("fig08 %s %lluull\n", name.c_str(),
                        static_cast<unsigned long long>(total));
        }
    }
    return 0;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--spans FILE]\n"
                 "       perfbench --selftest | --emit-goldens\n",
                 msg);
    return 2;
}

int
mainImpl(int argc, char **argv)
{
    Options opt;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--selftest")
            return selfTest();
        if (a == "--emit-goldens")
            return emitGoldens();
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        if (a == "--workload") {
            opt.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            opt.seed = std::stoull(v);
        } else if (a == "--seconds") {
            opt.seconds = std::stod(v);
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return usage("--trace takes 0 or 1");
            opt.trace = v == "1";
        } else if (a == "--spans") {
            opt.spansPath = v;
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (!haveWorkload)
        return usage("--workload is required");
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), opt.workload) == names.end())
        return usage(("unknown workload " + opt.workload).c_str());

    Outcome out = runWorkload(opt);
    if (out.spans && !opt.spansPath.empty())
        out.spans->writeJson(opt.spansPath);
    printOutcome(opt, out);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::mainImpl(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
