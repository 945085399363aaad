/**
 * @file
 * The four named workloads and the timed single-run path they share.
 */

#include <map>
#include <memory>
#include <stdexcept>

#include "bench.hh"
#include "harness/machine.hh"
#include "workloads/factory.hh"

namespace perfbench
{

using namespace sp;

namespace
{

/** Fraction of defaultParams() the measured grids run at: a Figure 8
 *  pass then takes about a second, so a run holds a few dozen passes and
 *  each simulator run's fastest repeat is taken over many host states. */
constexpr double kMeasuredScale = 0.06;
constexpr double kTinyScale = 0.01;

/** Simulated micro-op count of the observed single run. */
constexpr uint64_t kObservedSimOps = 800;
constexpr uint64_t kTinyObservedSimOps = 40;

/** Conflict runs of fault_campaign: the campaign's trail-writer adversary
 *  at its shorter default period (the uniform one rarely hits a
 *  speculatively written line, so it aborts nothing at these sizes), with
 *  a cycle cap so a livelock fails the run instead of hanging it. */
constexpr Tick kConflictPeriod = 400;
constexpr Tick kConflictMaxCycles = 200'000'000;

const Variant kFig08Variants[] = {Variant::kBase, Variant::kLog,
                                  Variant::kLogP, Variant::kLogPSf,
                                  Variant::kSP};

Cell
makeCell(WorkloadKind kind, Variant v, const WorkloadParams &params)
{
    Cell cell;
    cell.variant = v;
    cell.cfg.kind = kind;
    cell.cfg.params = params;
    switch (v) {
      case Variant::kBase:
        cell.cfg.params.mode = PersistMode::kNone;
        break;
      case Variant::kLog:
        cell.cfg.params.mode = PersistMode::kLog;
        break;
      case Variant::kLogP:
        cell.cfg.params.mode = PersistMode::kLogP;
        break;
      case Variant::kLogPSf:
        cell.cfg.params.mode = PersistMode::kLogPSf;
        break;
      case Variant::kSP:
      case Variant::kSPChecksums:
      case Variant::kSPConflict:
        cell.cfg.params.mode = PersistMode::kLogPSf;
        cell.cfg.sim.sp.enabled = true;
        cell.cfg.sim.sp.ssbEntries = 256;
        cell.cfg.params.checksums = v == Variant::kSPChecksums;
        break;
    }
    cell.label = std::string(workloadKindName(kind)) + "/" + variantName(v);
    return cell;
}

/** defaultParams() without the SP_OPS/SP_INIT/SP_SEED environment
 *  overrides makeRunConfig() applies: inputs come from --seed only. */
WorkloadParams
paramsFor(WorkloadKind kind, double scale, uint64_t seed)
{
    WorkloadParams p = defaultParams(kind, scale);
    p.seed = seed;
    return p;
}

void
addFig08Grid(WorkloadSpec &spec, double scale)
{
    for (WorkloadKind kind : spec.kinds)
        for (Variant v : kFig08Variants)
            spec.cells.push_back(
                makeCell(kind, v, paramsFor(kind, scale, spec.seed)));
}

} // namespace

bool
checkDurable(const RunConfig &cfg, const MemImage &img, std::string *why)
{
    // checkImage() reads only the image, so one unpopulated workload per
    // structure validates any run's durable state.
    static std::map<WorkloadKind, std::unique_ptr<Workload>> checkers;
    auto it = checkers.find(cfg.kind);
    if (it == checkers.end())
        it = checkers.emplace(cfg.kind, makeWorkload(cfg.kind, cfg.params))
                 .first;
    return it->second->checkImage(img, why);
}

const char *
variantName(Variant v)
{
    switch (v) {
      case Variant::kBase:
        return "Base";
      case Variant::kLog:
        return "Log";
      case Variant::kLogP:
        return "Log+P";
      case Variant::kLogPSf:
        return "Log+P+Sf";
      case Variant::kSP:
        return "SP256";
      case Variant::kSPChecksums:
        return "SP256+crc";
      case Variant::kSPConflict:
        return "SP256+conflict";
    }
    return "?";
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "tree_setup", "fence_sim", "observed_sp", "fault_campaign"};
    return names;
}

WorkloadSpec
makeWorkloadSpec(const std::string &name, uint64_t seed, Size size)
{
    const bool tiny = size == Size::kTiny;
    const double scale = size == Size::kFull ? 1.0
        : tiny                               ? kTinyScale
                                             : kMeasuredScale;
    WorkloadSpec spec;
    spec.name = name;
    spec.seed = seed;
    spec.pinned = size == Size::kMeasured && seed == kDefaultSeed;
    if (name == "tree_setup" || name == "fence_sim") {
        if (name == "tree_setup")
            spec.kinds = {WorkloadKind::kAvlTree, WorkloadKind::kBTree,
                          WorkloadKind::kRbTree};
        else
            spec.kinds = {WorkloadKind::kGraph, WorkloadKind::kHashMap,
                          WorkloadKind::kLinkedList,
                          WorkloadKind::kStringSwap};
        addFig08Grid(spec, scale);
        spec.fig08Golden = spec.pinned;
    } else if (name == "observed_sp") {
        // The ROADMAP single_run configuration with every observer on.
        spec.kinds = {WorkloadKind::kBTree};
        WorkloadParams p = paramsFor(WorkloadKind::kBTree, scale, seed);
        p.simOps = tiny ? kTinyObservedSimOps : kObservedSimOps;
        Cell cell = makeCell(WorkloadKind::kBTree, Variant::kSP, p);
        cell.cfg.trace.categories = kTraceAll;
        cell.cfg.audit.enabled = true;
        cell.cfg.account.enabled = true;
        spec.cells.push_back(cell);
        spec.referenceCells.push_back(
            makeCell(WorkloadKind::kBTree, Variant::kLogPSf, p));
    } else if (name == "fault_campaign") {
        // Crash and conflict cells only, and crashes without torn writes:
        // at campaign defaults, media cells fail their oracle on about a
        // third of seeds and torn-write crash cells panic in recoverImage
        // on about one seed in eighty (see README.md, "Known defects").
        CampaignOptions &o = spec.campaignOpts;
        o.mediaFaults = false;
        o.tornWrites = false;
        o.workers = 1;
        o.seed = seed;
        if (tiny) {
            o.kinds = {WorkloadKind::kLinkedList, WorkloadKind::kBTree};
            o.crashPoints = 2;
            o.conflictPeriods = {kConflictPeriod};
            o.policies = {ConflictPolicy::kTrailWriter};
            o.initOps = 40;
        }
        spec.kinds = o.kinds;
        spec.campaign = true;
        // The campaign's own reference runs (SP on, SP off), driven here
        // through Machine so their phases are timed, a checksummed SP run
        // (the traced run's recovery probe times hardened recovery on it),
        // plus one conflict run per structure under the trail-writer
        // adversary so the abort/rollback path shows in the epoch counts.
        for (size_t i = 0; i < o.kinds.size(); ++i) {
            WorkloadKind kind = o.kinds[i];
            WorkloadParams p;
            p.seed = seed;
            p.initOps = o.initOps;
            p.simOps = o.simOps;
            spec.cells.push_back(makeCell(kind, Variant::kSP, p));
            spec.cells.push_back(makeCell(kind, Variant::kLogPSf, p));
            spec.cells.push_back(makeCell(kind, Variant::kSPChecksums, p));
            Cell conflict = makeCell(kind, Variant::kSPConflict, p);
            ConflictInjectConfig &c = conflict.cfg.sim.fault.conflict;
            c.enabled = true;
            c.policy = ConflictPolicy::kTrailWriter;
            c.timing = o.timing;
            c.period = kConflictPeriod;
            c.seed = seed * 1000003 + i;
            conflict.cfg.sim.fault.watchdog = o.watchdog;
            conflict.cfg.sim.maxCycles = kConflictMaxCycles;
            spec.cells.push_back(conflict);
        }
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return spec;
}

namespace
{

/** runCell's body; exceptions escape to runCell, which records them. */
void
execute(const Cell &cell, SpanLog *log, Tick chunk, RunRecord &r)
{
    double t0 = nowSeconds();
    uint64_t a0 = allocationCount();
    std::unique_ptr<Machine> machine;
    {
        Phase p(log, "harness.construct");
        machine = std::make_unique<Machine>(cell.cfg);
        r.setupS = p.stop();
    }
    uint64_t a1 = allocationCount();
    {
        Phase p(log, "cpu.run");
        if (chunk == 0) {
            machine->runUntil(kTickNever);
        } else {
            // Heartbeats: fixed simulated-cycle chunks. A chunk that ends
            // short of its target stopped at the cycle cap.
            for (;;) {
                Phase hb(log, "cpu.heartbeat");
                Tick target = machine->now() + chunk;
                bool done = machine->runUntil(target);
                r.heartbeatMs.push_back(hb.stop() * 1e3);
                if (done || machine->now() < target)
                    break;
            }
        }
        r.simS = p.stop();
    }
    r.simAllocs = allocationCount() - a1;
    r.setupAllocs = a1 - a0;

    RunResult res;
    {
        Phase p(log, "harness.finish");
        res = machine->finish();
        r.finishS = p.stop();
    }
    r.cellMs = (nowSeconds() - t0) * 1e3;
    machine.reset();

    Phase check(log, "bench.check");
    r.outcome = res.outcome;
    r.stats = res.stats;
    r.durableHash = res.durable.hash();
    r.volTransHits = res.perf.volatileTransHits;
    r.volTransMisses = res.perf.volatileTransMisses;
    r.durTransHits = res.perf.durableTransHits;
    r.durTransMisses = res.perf.durableTransMisses;

    std::string why;
    // Under the conflict adversary the watchdog may fall back to
    // non-speculative execution; that is a completed run, not a failure.
    bool completed = res.outcome == RunOutcome::kOk ||
        (cell.cfg.sim.fault.conflict.enabled &&
         res.outcome == RunOutcome::kWatchdogDegraded);
    if (!completed)
        r.failure = std::string("outcome ") + runOutcomeName(res.outcome);
    else if (!checkDurable(cell.cfg, res.durable, &why))
        r.failure = "final durable image fails checkImage: " + why;
    else if (res.account.enabled && res.account.cycles != res.stats.cycles)
        r.failure = "cycle account does not sum to Stats::cycles";
    else if (res.audit.enabled && !res.audit.clean())
        r.failure = "durability audit reported violations";
    else if (cell.cfg.trace.categories != 0 && !res.trace.enabled)
        r.failure = "tracing was requested but no summary came back";
}

} // namespace

RunRecord
runCell(const Cell &cell, SpanLog *log, Tick chunk)
{
    RunRecord r;
    r.label = cell.label;
    r.variant = cell.variant;
    r.kind = cell.cfg.kind;
    if (log)
        log->beginRun();
    try {
        execute(cell, log, chunk, r);
    } catch (const std::exception &e) {
        r.failure = std::string("exception: ") + e.what();
    }
    return r;
}

bool
campaignCellFailed(const CampaignCellResult &c)
{
    if (c.outcome == RunOutcome::kException ||
        c.outcome == RunOutcome::kMaxCycles ||
        c.outcome == RunOutcome::kTimeout)
        return true;
    if (c.recoveryChecked && !c.recoveryMatched)
        return true;
    if (c.kind == CampaignCellKind::kConflict && !c.finalStateMatched)
        return true;
    if (c.mediaChecked && !(c.mediaNoEscapes && c.mediaRetryBounded))
        return true;
    return c.mediaEscapes != 0;
}

} // namespace perfbench
