/**
 * @file
 * Simulator-throughput baseline: how fast does the simulator itself run?
 *
 * Every other bench measures the *simulated machine*; this one measures
 * the *simulator*, so perf work has a number to move and regressions have
 * a gate to trip. Three suites:
 *
 *   - seed_sweep: the fig08 grid (every Table 1 workload x the five
 *     persistence variants) at default bench scale -- the workload mix
 *     the ISSUE's >=2x target is defined against;
 *   - fault_campaign: every workload under Log+P+Sf with SP on and the
 *     uniform conflict adversary firing, covering the abort/rollback
 *     paths the sweep grid never exercises;
 *   - smoke: two mid-sized SP configurations (seeds 42/43), small enough
 *     for CI. Two runs, not one, so the suite's steadyAllocations --
 *     allocations after the first, pool-warming run -- is a real
 *     measurement of the steady state instead of a constant zero. Three
 *     repetitions, best wall time kept, so a transient load spike on the
 *     CI machine does not read as a regression.
 *   - smoke_audit: the same cell with the durability audit attached.
 *     It has no absolute baseline entry (and --check skips suites
 *     without one); instead --check gates it *relative* to smoke --
 *     identical simulated cycles (the audit is a pure observer) and at
 *     most the tolerance fraction of cycles/sec lost to bookkeeping.
 *   - smoke_account: the same cell with the cycle accountant attached,
 *     gated exactly like smoke_audit (identical simulated cycles,
 *     relative throughput envelope) so CPI-stack bookkeeping can never
 *     silently tax or perturb the simulator.
 *   - single_run_serial: ONE long fully-observed run (trace + audit +
 *     cycle account), gated like every other suite on throughput and
 *     allocations.
 *
 * Per suite it reports simulated cycles, wall seconds, simulated
 * cycles/second, and heap allocations (counted by the interposed
 * operator new below -- the simulator runs single-threaded here, so the
 * count is deterministic and comparable across builds).
 *
 * Usage:
 *   bench_perf_baseline            run all suites, write BENCH_perf.json
 *   bench_perf_baseline --smoke    run only the smoke suite
 *   bench_perf_baseline --single-run  run only the single_run suite
 *   bench_perf_baseline --check F  compare cycles/sec per suite against
 *                                  the `suites` object in JSON file F;
 *                                  exit 1 on >25% regression (override
 *                                  with SP_BENCH_TOLERANCE, a fraction).
 *                                  Suites with an `allocations` entry are
 *                                  also gated on allocation count (10%
 *                                  headroom; SP_BENCH_ALLOC_TOLERANCE)
 *   bench_perf_baseline --out F    write the JSON report to F instead of
 *                                  ./BENCH_perf.json (empty = no file)
 *
 * The `bench-smoke` ctest label runs `--smoke --check <repo>/BENCH_perf.json`.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "sim/trace.hh"
#include "workloads/factory.hh"

// --------------------------------------------------------------------------
// Allocation interposition. Counting in the bench binary overrides the
// global operators for the whole process (simulator library included).
// --------------------------------------------------------------------------

static std::atomic<uint64_t> g_allocations{0};

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace sp;

struct SuiteResult
{
    std::string name;
    unsigned runs = 0;
    uint64_t simCycles = 0;
    uint64_t allocations = 0;
    /** Allocations during the first run of the grid: machine
     *  construction plus every pool growing to its working size. */
    uint64_t warmupAllocations = 0;
    /** Page-translation-cache counters summed over both images. */
    uint64_t transHits = 0;
    uint64_t transMisses = 0;
    double wallSeconds = 0;

    double cyclesPerSec() const
    {
        return wallSeconds > 0 ? static_cast<double>(simCycles) /
                wallSeconds
                               : 0;
    }

    /** Allocations after the first run (the steady-state tail). */
    uint64_t steadyAllocations() const
    {
        return allocations - warmupAllocations;
    }
};

/** Run a grid serially, timing the simulation only (not setup parsing). */
SuiteResult
runSuite(const std::string &name, const std::vector<RunConfig> &grid)
{
    SuiteResult result;
    result.name = name;
    result.runs = static_cast<unsigned>(grid.size());
    uint64_t allocs0 = g_allocations.load(std::memory_order_relaxed);
    auto t0 = std::chrono::steady_clock::now();
    bool first = true;
    for (const RunConfig &cfg : grid) {
        RunResult run = runExperiment(cfg);
        result.simCycles += run.stats.cycles;
        result.transHits +=
            run.perf.volatileTransHits + run.perf.durableTransHits;
        result.transMisses +=
            run.perf.volatileTransMisses + run.perf.durableTransMisses;
        if (first) {
            result.warmupAllocations =
                g_allocations.load(std::memory_order_relaxed) - allocs0;
            first = false;
        }
    }
    auto t1 = std::chrono::steady_clock::now();
    result.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    result.allocations =
        g_allocations.load(std::memory_order_relaxed) - allocs0;
    if (result.runs <= 1)
        result.warmupAllocations = result.allocations;
    return result;
}

std::vector<RunConfig>
seedSweepGrid()
{
    struct Variant
    {
        PersistMode mode;
        bool sp;
    };
    const Variant variants[] = {
        {PersistMode::kNone, false},   {PersistMode::kLog, false},
        {PersistMode::kLogP, false},   {PersistMode::kLogPSf, false},
        {PersistMode::kLogPSf, true},
    };
    std::vector<RunConfig> grid;
    for (WorkloadKind kind : allWorkloadKinds())
        for (const Variant &v : variants)
            grid.push_back(makeRunConfig(kind, v.mode, v.sp));
    return grid;
}

std::vector<RunConfig>
faultCampaignGrid()
{
    std::vector<RunConfig> grid;
    for (WorkloadKind kind : allWorkloadKinds()) {
        RunConfig cfg =
            makeRunConfig(kind, PersistMode::kLogPSf, true, 256, 0.5);
        cfg.sim.fault.conflict.enabled = true;
        cfg.sim.fault.conflict.policy = ConflictPolicy::kUniform;
        cfg.sim.fault.conflict.period = 2000;
        cfg.sim.fault.conflict.seed = 7;
        grid.push_back(cfg);
    }
    return grid;
}

std::vector<RunConfig>
smokeGrid()
{
    // Two cells so the suite has a steady-state tail: the first run warms
    // the pools (warmupAllocations), the second measures what the steady
    // state still allocates. Seeds only -- same machine, same op mix.
    RunConfig cfg = makeRunConfig(WorkloadKind::kBTree,
                                  PersistMode::kLogPSf, true, 256, 0.25);
    std::vector<RunConfig> grid;
    grid.push_back(cfg);
    cfg.params.seed = 43;
    grid.push_back(cfg);
    return grid;
}

std::vector<RunConfig>
smokeAuditGrid()
{
    std::vector<RunConfig> grid = smokeGrid();
    for (RunConfig &cfg : grid)
        cfg.audit.enabled = true;
    return grid;
}

std::vector<RunConfig>
smokeAccountGrid()
{
    std::vector<RunConfig> grid = smokeGrid();
    for (RunConfig &cfg : grid)
        cfg.account.enabled = true;
    return grid;
}

/**
 * One long, fully observed run: every expensive observer attached, so
 * observer cost shows next to simulation cost.
 */
RunConfig
singleRunConfig()
{
    RunConfig cfg =
        makeRunConfig(WorkloadKind::kBTree, PersistMode::kLogPSf, true);
    // Long enough that simulation dominates the functional setup.
    cfg.params.simOps = 12000;
    cfg.trace.categories = kTraceAll;
    cfg.audit.enabled = true;
    cfg.account.enabled = true;
    return cfg;
}

/** Time the single_run suite: one fully observed serial run. */
SuiteResult
runSingleRunSuite()
{
    SuiteResult result;
    result.name = "single_run_serial";
    result.runs = 1;
    RunConfig cfg = singleRunConfig();
    uint64_t allocs0 = g_allocations.load(std::memory_order_relaxed);
    auto t0 = std::chrono::steady_clock::now();
    RunResult run = runExperiment(cfg);
    auto t1 = std::chrono::steady_clock::now();
    result.simCycles = run.stats.cycles;
    result.transHits =
        run.perf.volatileTransHits + run.perf.durableTransHits;
    result.transMisses =
        run.perf.volatileTransMisses + run.perf.durableTransMisses;
    result.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    result.allocations =
        g_allocations.load(std::memory_order_relaxed) - allocs0;
    result.warmupAllocations = result.allocations;
    return result;
}

SuiteResult
runSmokeBestOf(unsigned reps, const std::string &name,
               const std::vector<RunConfig> &grid)
{
    SuiteResult best;
    for (unsigned i = 0; i < reps; ++i) {
        SuiteResult r = runSuite(name, grid);
        if (i == 0 || r.wallSeconds < best.wallSeconds)
            best = r;
    }
    return best;
}

std::string
suiteJson(const SuiteResult &s)
{
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "{\"runs\":%u,\"simCycles\":%llu,\"wallSeconds\":%.3f,"
                  "\"cyclesPerSec\":%.0f,\"allocations\":%llu,"
                  "\"warmupAllocations\":%llu,\"steadyAllocations\":%llu,"
                  "\"transHits\":%llu,\"transMisses\":%llu}",
                  s.runs, static_cast<unsigned long long>(s.simCycles),
                  s.wallSeconds, s.cyclesPerSec(),
                  static_cast<unsigned long long>(s.allocations),
                  static_cast<unsigned long long>(s.warmupAllocations),
                  static_cast<unsigned long long>(s.steadyAllocations()),
                  static_cast<unsigned long long>(s.transHits),
                  static_cast<unsigned long long>(s.transMisses));
    return buf;
}

void
printSuite(const SuiteResult &s)
{
    uint64_t trans = s.transHits + s.transMisses;
    double hitRate = trans
        ? 100.0 * static_cast<double>(s.transHits) /
            static_cast<double>(trans)
        : 0.0;
    std::printf("%-15s %3u runs  %12llu cycles  %8.3f s  %12.0f cyc/s"
                "  %10llu allocs (%llu warm-up + %llu steady)"
                "  ptc %.2f%%\n",
                s.name.c_str(), s.runs,
                static_cast<unsigned long long>(s.simCycles),
                s.wallSeconds, s.cyclesPerSec(),
                static_cast<unsigned long long>(s.allocations),
                static_cast<unsigned long long>(s.warmupAllocations),
                static_cast<unsigned long long>(s.steadyAllocations()),
                hitRate);
}

/**
 * Pull `"<suite>": { ... "<key>": N ... }` out of a JSON report.
 * A full parser is overkill for a file this tool writes itself; the
 * extraction is keyed on the suite name inside the "suites" object.
 * The field search stays within the suite's braces so a key missing
 * from one suite cannot match the next suite's entry.
 *
 * @retval false the suite or field was not found.
 */
bool
extractSuiteField(const std::string &json, const std::string &suite,
                  const std::string &field, double *out)
{
    size_t suites = json.find("\"suites\"");
    if (suites == std::string::npos)
        return false;
    size_t at = json.find("\"" + suite + "\"", suites);
    if (at == std::string::npos)
        return false;
    size_t end = json.find('}', at);
    size_t key = json.find("\"" + field + "\"", at);
    if (key == std::string::npos || (end != std::string::npos && key > end))
        return false;
    size_t colon = json.find(':', key);
    if (colon == std::string::npos)
        return false;
    *out = std::strtod(json.c_str() + colon + 1, nullptr);
    return *out > 0;
}

int
checkAgainstBaseline(const std::vector<SuiteResult> &measured,
                     const std::string &baselinePath)
{
    std::ifstream in(baselinePath);
    if (!in) {
        std::cerr << "cannot open baseline " << baselinePath << "\n";
        return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();

    double tolerance = 0.25;
    if (const char *env = std::getenv("SP_BENCH_TOLERANCE")) {
        double v = std::strtod(env, nullptr);
        if (v > 0)
            tolerance = v;
    }
    // Allocation counts are deterministic (single-threaded simulator,
    // counted in-process), so the budget is much tighter than the
    // wall-clock envelope. The headroom only absorbs allocator-library
    // differences across toolchains.
    double allocTolerance = 0.10;
    if (const char *env = std::getenv("SP_BENCH_ALLOC_TOLERANCE")) {
        double v = std::strtod(env, nullptr);
        if (v > 0)
            allocTolerance = v;
    }

    int failures = 0;
    const SuiteResult *smoke = nullptr;
    std::vector<const SuiteResult *> observerCells;
    for (const SuiteResult &s : measured) {
        if (s.name == "smoke")
            smoke = &s;
        else if (s.name == "smoke_audit" || s.name == "smoke_account")
            observerCells.push_back(&s);
    }
    for (const SuiteResult &s : measured) {
        double baseline = 0;
        if (!extractSuiteField(json, s.name, "cyclesPerSec", &baseline)) {
            std::printf("check %-15s no baseline entry, skipped\n",
                        s.name.c_str());
            continue;
        }
        double ratio = s.cyclesPerSec() / baseline;
        bool ok = ratio >= 1.0 - tolerance;
        std::printf("check %-15s %12.0f cyc/s vs baseline %12.0f"
                    "  (%+5.1f%%)  %s\n",
                    s.name.c_str(), s.cyclesPerSec(), baseline,
                    (ratio - 1.0) * 100.0, ok ? "ok" : "REGRESSION");
        if (!ok)
            ++failures;
        // Allocation gate: the suite must not allocate more than the
        // baseline recorded (plus headroom). This is what keeps the
        // allocation-free steady state from silently eroding -- a new
        // per-op container shows up here long before it costs enough
        // wall time to trip the throughput envelope.
        double allocBase = 0;
        if (extractSuiteField(json, s.name, "allocations", &allocBase)) {
            double measuredAllocs = static_cast<double>(s.allocations);
            bool allocOk =
                measuredAllocs <= allocBase * (1.0 + allocTolerance);
            std::printf("check %-15s %12llu allocs vs budget %12.0f"
                        "  (%+5.1f%%)  %s\n",
                        s.name.c_str(),
                        static_cast<unsigned long long>(s.allocations),
                        allocBase,
                        (measuredAllocs / allocBase - 1.0) * 100.0,
                        allocOk ? "ok" : "ALLOCATION REGRESSION");
            if (!allocOk)
                ++failures;
        }
    }

    // Observer cells (audit, cycle accounting) are gated relative to the
    // plain smoke cell measured in the same process, so they need no
    // per-machine baseline entry: the simulated cycle count must be
    // exactly smoke's (observers never perturb timing) and the
    // throughput must stay inside the tolerance envelope.
    for (const SuiteResult *cell : observerCells) {
        if (!smoke)
            break;
        if (cell->simCycles != smoke->simCycles) {
            std::printf("check %-15s simulated %llu cycles vs smoke's "
                        "%llu  PERTURBED (must be a pure observer)\n",
                        cell->name.c_str(),
                        static_cast<unsigned long long>(cell->simCycles),
                        static_cast<unsigned long long>(smoke->simCycles));
            ++failures;
        }
        double ratio = cell->cyclesPerSec() / smoke->cyclesPerSec();
        bool ok = ratio >= 1.0 - tolerance;
        std::printf("check %-15s %12.0f cyc/s vs smoke %12.0f"
                    "  (%+5.1f%%)  %s\n",
                    cell->name.c_str(), cell->cyclesPerSec(),
                    smoke->cyclesPerSec(), (ratio - 1.0) * 100.0,
                    ok ? "ok" : "OBSERVER OVERHEAD");
        if (!ok)
            ++failures;
    }

    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smokeOnly = false;
    bool singleRunOnly = false;
    std::string checkPath;
    std::string outPath = "BENCH_perf.json";
    bool outPathSet = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--smoke") {
            smokeOnly = true;
        } else if (arg == "--single-run") {
            singleRunOnly = true;
        } else if (arg == "--check" && i + 1 < argc) {
            checkPath = argv[++i];
        } else if (arg == "--out" && i + 1 < argc) {
            outPath = argv[++i];
            outPathSet = true;
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--smoke] [--single-run] [--check FILE] "
                         "[--out FILE]\n";
            return 2;
        }
    }
    // In check mode the JSON report is a side effect nobody asked for;
    // keep the tree clean unless --out was explicit.
    if (!checkPath.empty() && !outPathSet)
        outPath.clear();

    std::vector<SuiteResult> results;
    if (!smokeOnly && !singleRunOnly) {
        results.push_back(runSuite("seed_sweep", seedSweepGrid()));
        printSuite(results.back());
        results.push_back(runSuite("fault_campaign", faultCampaignGrid()));
        printSuite(results.back());
    }
    if (!singleRunOnly) {
        results.push_back(runSmokeBestOf(3, "smoke", smokeGrid()));
        printSuite(results.back());
        results.push_back(
            runSmokeBestOf(3, "smoke_audit", smokeAuditGrid()));
        printSuite(results.back());
        results.push_back(
            runSmokeBestOf(3, "smoke_account", smokeAccountGrid()));
        printSuite(results.back());
    }
    if (!smokeOnly) {
        results.push_back(runSingleRunSuite());
        printSuite(results.back());
    }

    if (!outPath.empty()) {
        std::ofstream out(outPath);
        out << "{\n  \"schema\": \"sp-perf-v1\",\n  \"suites\": {\n";
        for (size_t i = 0; i < results.size(); ++i) {
            out << "    \"" << results[i].name
                << "\": " << suiteJson(results[i])
                << (i + 1 < results.size() ? ",\n" : "\n");
        }
        out << "  }\n}\n";
        std::cout << "wrote " << outPath << "\n";
    }

    if (!checkPath.empty())
        return checkAgainstBaseline(results, checkPath);
    return 0;
}
