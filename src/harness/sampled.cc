#include "harness/sampled.hh"

#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "harness/machine.hh"
#include "harness/sweep.hh"
#include "sim/logging.hh"

namespace sp
{

std::string
SampledEstimate::toJson() const
{
    std::ostringstream os;
    os << "{\"totalOps\":" << totalOps << ",\"windows\":" << windows.size()
       << ",\"meanCyclesPerOp\":" << meanCyclesPerOp
       << ",\"ciCyclesPerOp\":" << ciCyclesPerOp
       << ",\"estimatedCycles\":" << estimatedCycles
       << ",\"ciCycles\":" << ciCycles << ",\"hasShares\":"
       << (hasShares ? "true" : "false");
    if (hasShares) {
        os << ",\"categoryShares\":{";
        for (unsigned c = 0; c < kNumCycleCats; ++c) {
            if (c)
                os << ",";
            os << "\"" << cycleCatName(static_cast<CycleCat>(c))
               << "\":" << categoryShares[c];
        }
        os << "}";
    }
    os << "}";
    return os.str();
}

void
SampledEstimate::print(std::ostream &os, const std::string &prefix) const
{
    os << prefix << "sampled estimate over " << windows.size()
       << " windows (" << totalOps << " ops total):\n"
       << prefix << "  cycles/op " << std::fixed << std::setprecision(2)
       << meanCyclesPerOp << " +/- " << ciCyclesPerOp << " (95% CI)\n"
       << prefix << "  estimated cycles " << std::setprecision(0)
       << estimatedCycles << " +/- " << ciCycles << "\n";
    os.unsetf(std::ios::floatfield);
    if (hasShares) {
        os << prefix << "  CPI shares:";
        for (unsigned c = 0; c < kNumCycleCats; ++c) {
            if (categoryShares[c] <= 0)
                continue;
            os << " " << cycleCatName(static_cast<CycleCat>(c)) << "="
               << std::fixed << std::setprecision(3) << categoryShares[c];
            os.unsetf(std::ios::floatfield);
        }
        os << "\n";
    }
}

SampledEstimate
runSampledExperiment(const RunConfig &cfg, const SampledOptions &opts)
{
    SP_ASSERT(opts.samples > 0, "sampled run needs at least one window");
    SP_ASSERT(opts.measureOps > 0, "sampled run needs measureOps > 0");
    const uint64_t window = opts.warmupOps + opts.measureOps;
    SP_ASSERT(cfg.params.simOps >= window,
              "simOps smaller than one sample window");

    SampledEstimate est;
    est.totalOps = cfg.params.simOps;
    est.windows.resize(opts.samples);

    // Window placement is pure arithmetic over the op stream, so the
    // estimate is reproducible for any worker count.
    const uint64_t span = cfg.params.simOps - window;
    const bool wantShares = cfg.account.enabled;
    std::vector<std::array<double, kNumCycleCats>> shares(
        opts.samples);

    auto sampleTask = [&](size_t i) -> RunResult {
        uint64_t offset = opts.samples > 1
            ? span * static_cast<uint64_t>(i) / (opts.samples - 1)
            : 0;
        RunConfig sampleCfg = cfg;
        // Functional fast-forward: the offset ops run muted through the
        // exact doOperation/rng path, so the sampled machine starts from
        // the precise functional state of the full run at that offset.
        sampleCfg.params.initOps = cfg.params.initOps + offset;
        sampleCfg.params.simOps = window;
        // The window keeps cfg's accountant (the shares' source) and
        // drops the other observers.
        sampleCfg.trace.categories = 0;
        sampleCfg.audit.enabled = false;

        Machine machine(sampleCfg);

        // Detail warm-up: run until warmupOps ops have been generated so
        // caches/WPQ/SSB reach steady state before measurement.
        const Tick poll = 4096;
        while (!machine.done() &&
               machine.opsGenerated() < opts.warmupOps)
            machine.runUntil(machine.now() + poll);
        uint64_t warmOps = machine.opsGenerated();
        Tick warmTick = machine.now();
        CycleAccountant warmCopy =
            wantShares ? *machine.accountant() : CycleAccountant();

        machine.runUntil(kTickNever);
        SampleWindow &w = est.windows[i];
        w.offsetOps = offset;
        w.measuredOps = machine.opsGenerated() - warmOps;
        w.measuredCycles = machine.now() - warmTick;
        SP_ASSERT(w.measuredOps > 0, "sample window measured no ops");
        w.cyclesPerOp = static_cast<double>(w.measuredCycles) /
            static_cast<double>(w.measuredOps);

        if (wantShares) {
            CycleAccountant endCopy = *machine.accountant();
            CycleAccount full = endCopy.finalize(machine.now());
            CycleAccount warm = warmCopy.finalize(warmTick);
            for (unsigned c = 0; c < kNumCycleCats; ++c) {
                shares[i][c] = w.measuredCycles
                    ? static_cast<double>(full.categories[c] -
                                          warm.categories[c]) /
                        static_cast<double>(w.measuredCycles)
                    : 0.0;
            }
        }
        // The sampled machine is measurement scaffolding; its RunResult
        // is not part of the estimate.
        return machine.finish(0);
    };

    SweepOptions engineOpts;
    engineOpts.workers = opts.workers;
    std::vector<SweepRunResult> taskResults =
        SweepEngine(engineOpts).runTasks(opts.samples, sampleTask);
    for (const SweepRunResult &tr : taskResults) {
        if (!tr.ok)
            throw std::runtime_error("sampled window failed: " + tr.error);
    }

    double sum = 0;
    for (const SampleWindow &w : est.windows)
        sum += w.cyclesPerOp;
    double n = static_cast<double>(est.windows.size());
    est.meanCyclesPerOp = sum / n;
    double var = 0;
    for (const SampleWindow &w : est.windows) {
        double d = w.cyclesPerOp - est.meanCyclesPerOp;
        var += d * d;
    }
    var = est.windows.size() > 1 ? var / (n - 1) : 0.0;
    est.ciCyclesPerOp = 1.96 * std::sqrt(var / n);
    est.estimatedCycles =
        est.meanCyclesPerOp * static_cast<double>(est.totalOps);
    est.ciCycles =
        est.ciCyclesPerOp * static_cast<double>(est.totalOps);
    if (wantShares) {
        est.hasShares = true;
        for (unsigned c = 0; c < kNumCycleCats; ++c) {
            double s = 0;
            for (unsigned i = 0; i < opts.samples; ++i)
                s += shares[i][c];
            est.categoryShares[c] = s / n;
        }
    }
    return est;
}

} // namespace sp
