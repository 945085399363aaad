#include "harness/runner.hh"

#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "harness/machine.hh"

#include "cpu/ooo_core.hh"
#include "mem/cache_hierarchy.hh"
#include "mem/mem_system.hh"
#include "pmem/layout.hh"
#include "pmem/op_emitter.hh"
#include "sim/logging.hh"

namespace sp
{

const char *
runOutcomeName(RunOutcome outcome)
{
    switch (outcome) {
      case RunOutcome::kOk:
        return "ok";
      case RunOutcome::kCrashed:
        return "crashed";
      case RunOutcome::kWatchdogDegraded:
        return "watchdog_degraded";
      case RunOutcome::kMaxCycles:
        return "max_cycles";
      case RunOutcome::kException:
        return "exception";
      case RunOutcome::kTimeout:
        return "timeout";
    }
    return "unknown";
}

void
PerfTelemetry::print(std::ostream &os, const std::string &prefix) const
{
    auto cacheLine = [&](const char *name, uint64_t hits, uint64_t misses) {
        uint64_t total = hits + misses;
        os << prefix << name << " image translation cache: " << hits
           << " hits, " << misses << " misses";
        if (total) {
            os << " (" << std::fixed << std::setprecision(2)
               << 100.0 * static_cast<double>(hits) /
                   static_cast<double>(total)
               << "% hit)";
            os.unsetf(std::ios::floatfield);
        }
        os << "\n";
    };
    cacheLine("volatile", volatileTransHits, volatileTransMisses);
    cacheLine("durable", durableTransHits, durableTransMisses);
    os << prefix << "WPQ peak occupancy: timed " << wpqPeakTimed
       << ", shutdown " << wpqPeakShutdown << "\n";
    os << prefix << "serial-chain jumped cycles: " << chainJumpCycles
       << "\n";
    os << prefix << "host seconds: setup " << std::fixed
       << std::setprecision(4) << setupSeconds << ", timed simulation "
       << simSeconds << "\n";
    os.unsetf(std::ios::floatfield);
    for (const PoolStat &p : pools) {
        os << prefix << std::left << std::setw(20) << p.name << std::right
           << " capacity " << std::setw(8) << p.capacity << "  high-water "
           << std::setw(8) << p.highWater << "\n";
    }
}

void
validateRunConfig(const RunConfig &cfg)
{
    auto reject = [](const std::string &why) {
        throw std::invalid_argument("invalid RunConfig: " + why);
    };
    if (cfg.sim.sp.enabled && cfg.sim.sp.ssbEntries == 0)
        reject("sp.enabled requires ssbEntries > 0");
    if (cfg.sim.sp.enabled && cfg.sim.sp.checkpoints == 0)
        reject("sp.enabled requires checkpoints > 0");
    if (cfg.sim.sp.enabled &&
        (cfg.sim.sp.bloomBytes == 0 || cfg.sim.sp.bloomHashes == 0))
        reject("sp.enabled requires a non-empty Bloom filter");
    const CoreConfig &c = cfg.sim.core;
    if (!c.fetchWidth || !c.dispatchWidth || !c.issueWidth || !c.retireWidth)
        reject("core fetch, dispatch, issue and retire widths must be > 0");
    if (cfg.sim.mem.nvmmBanks == 0)
        reject("mem.nvmmBanks must be > 0");
    if (cfg.sim.mem.wpqEntries == 0)
        reject("mem.wpqEntries must be > 0");
    if (cfg.sim.fault.conflict.enabled && cfg.sim.fault.conflict.period == 0)
        reject("conflict injection requires period > 0");
    if (cfg.sim.fault.media.enabled && cfg.sim.fault.media.faults == 0)
        reject("media-fault injection requires faults > 0");
    if (cfg.sim.fault.media.enabled &&
        (cfg.sim.fault.media.silentFraction < 0.0 ||
         cfg.sim.fault.media.silentFraction > 1.0))
        reject("media.silentFraction must be within [0, 1]");
    if (!cfg.sim.fault.media.enabled &&
        cfg.sim.fault.media.scrubInterval != 0)
        reject("media.scrubInterval requires media.enabled");
}

std::string
describeRunConfig(const RunConfig &cfg)
{
    std::ostringstream os;
    os << workloadKindName(cfg.kind) << "/" << persistModeName(cfg.params.mode)
       << " sp=" << (cfg.sim.sp.enabled ? 1 : 0)
       << " ssb=" << cfg.sim.sp.ssbEntries
       << " seed=" << cfg.params.seed
       << " ops=" << cfg.params.simOps;
    const FaultConfig &fault = cfg.sim.fault;
    if (fault.conflict.enabled) {
        os << " conflict=" << conflictPolicyName(fault.conflict.policy)
           << "/" << conflictTimingName(fault.conflict.timing)
           << " period=" << fault.conflict.period
           << " cseed=" << fault.conflict.seed;
    }
    if (fault.crash.tornWrites)
        os << " torn=1";
    if (fault.crash.pcommitJitterCycles)
        os << " jitter=" << fault.crash.pcommitJitterCycles;
    if (fault.watchdog.enabled)
        os << " watchdog=" << fault.watchdog.abortThreshold;
    if (fault.media.enabled) {
        os << " media=" << fault.media.faults
           << " silent=" << fault.media.silentFraction
           << " mseed=" << fault.media.seed;
        if (fault.media.scrubInterval)
            os << " scrub=" << fault.media.scrubInterval;
    }
    if (cfg.params.checksums)
        os << " crc=1";
    if (cfg.sim.maxCycles)
        os << " maxCycles=" << cfg.sim.maxCycles;
    if (cfg.audit.enabled) {
        os << " audit=1";
        if (cfg.audit.failOnViolation)
            os << " auditFail=1";
    }
    if (cfg.account.enabled)
        os << " account=1";
    if (cfg.params.mutation.active())
        os << " mut=" << describeMutation(cfg.params.mutation);
    return os.str();
}

RunResult
runExperiment(const RunConfig &cfg, Tick crashAtCycle, Tracer *tracer,
              const WorkloadSetup *setup)
{
    // The assembly, run, and teardown all live in Machine now (so
    // snapshot and sampled callers share them); this wrapper is the
    // bit-identical classic entry point.
    Machine machine(cfg, tracer, /*deferSetup=*/false, setup);
    machine.runUntil(crashAtCycle != 0 ? crashAtCycle : kTickNever);
    return machine.finish(crashAtCycle);
}

void
applyEnvOverrides(WorkloadParams &params)
{
    if (const char *ops = std::getenv("SP_OPS")) {
        uint64_t v = std::strtoull(ops, nullptr, 10);
        if (v > 0)
            params.simOps = v;
    }
    if (const char *init = std::getenv("SP_INIT")) {
        params.initOps = std::strtoull(init, nullptr, 10);
    }
    if (const char *seed = std::getenv("SP_SEED")) {
        uint64_t v = std::strtoull(seed, nullptr, 10);
        if (v > 0)
            params.seed = v;
    }
}

RunConfig
makeRunConfig(WorkloadKind kind, PersistMode mode, bool sp,
              unsigned ssbEntries, double scale)
{
    RunConfig cfg;
    cfg.kind = kind;
    cfg.params = defaultParams(kind, scale);
    cfg.params.mode = mode;
    applyEnvOverrides(cfg.params);
    cfg.sim.sp.enabled = sp;
    cfg.sim.sp.ssbEntries = ssbEntries;
    return cfg;
}

} // namespace sp
