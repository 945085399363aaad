#include "harness/machine.hh"

#include <chrono>
#include <type_traits>
#include <utility>

#include "cpu/ooo_core.hh"
#include "mem/cache_hierarchy.hh"
#include "mem/mem_system.hh"
#include "pmem/layout.hh"
#include "sim/logging.hh"

namespace sp
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace

Machine::Machine(const RunConfig &cfg, Tracer *tracer, bool deferSetup,
                 const WorkloadSetup *setup)
    : cfg_(cfg)
{
    auto t0 = std::chrono::steady_clock::now();
    validateRunConfig(cfg_);
    SP_ASSERT(!setup || !deferSetup,
              "a deferred-setup machine cannot take a setup state");
    SP_ASSERT(!setup || setup->matches(cfg_.kind, cfg_.params),
              "setup state was captured for a different workload or "
              "parameters");

    // Per-run tracer, created only when the config asks for one and the
    // caller did not supply its own. Summary-only: sweeps aggregate the
    // TraceSummary, so the event vector would be dead weight.
    if (!tracer && cfg_.trace.categories != 0) {
        TraceOptions opts = cfg_.trace;
        opts.retainEvents = false;
        ownedTracer_ = std::make_unique<Tracer>(opts);
        tracer = ownedTracer_.get();
    }
    tracer_ = tracer;

    workload_ = setup ? setup->instantiate()
                      : makeWorkload(cfg_.kind, cfg_.params);
    if (!deferSetup) {
        if (!setup)
            workload_->setup();
        // The populated structure is assumed durable at the start of the
        // measured phase: snapshot the functional image into the NVMM.
        durable_ = workload_->image();
    }

    mc_ = std::make_unique<MemSystem>(cfg_.sim.mem, durable_);
    caches_ = std::make_unique<CacheHierarchy>(cfg_.sim, *mc_);
    mc_->setStats(&stats_);
    caches_->setStats(&stats_);
    if (cfg_.sim.fault.crash.pcommitJitterCycles != 0) {
        mc_->setWriteJitter(cfg_.sim.fault.crash.pcommitJitterCycles,
                            cfg_.sim.fault.crash.seed);
    }

    core_ = std::make_unique<OooCore>(cfg_.sim, workload_->program(),
                                      *caches_, *mc_, stats_);
    if (tracer_)
        core_->setTracer(tracer_);
    if (cfg_.audit.enabled) {
        auditor_ = std::make_unique<DurabilityAuditor>(
            cfg_.audit, cfg_.sim.mem.numMemCtrls);
        core_->setAuditor(auditor_.get());
    }
    if (cfg_.account.enabled) {
        accountant_ = std::make_unique<CycleAccountant>();
        core_->setAccountant(accountant_.get());
    }
    if (cfg_.sim.fault.conflict.enabled) {
        // Default footprint: the hot region -- workload metadata, the
        // undo log, and the first stretch of the heap -- where
        // speculative writes live.
        Addr base = cfg_.sim.fault.conflict.footprintBase
            ? cfg_.sim.fault.conflict.footprintBase
            : kMetaBase;
        uint64_t bytes = cfg_.sim.fault.conflict.footprintBytes
            ? cfg_.sim.fault.conflict.footprintBytes
            : kHeapBase + (4u << 20) - kMetaBase;
        injector_ = std::make_unique<ConflictInjector>(
            cfg_.sim.fault.conflict, base, bytes);
        core_->setProbeSource(injector_.get());
    }
    setupSeconds_ = secondsSince(t0);
}

Machine::~Machine() = default;

bool
Machine::runUntil(Tick cycleLimit)
{
    SP_ASSERT(!finished_, "Machine used after finish()");
    auto t0 = std::chrono::steady_clock::now();
    bool done = core_->runUntil(cycleLimit);
    simSeconds_ += secondsSince(t0);
    return done;
}

Tick
Machine::now() const
{
    return core_->now();
}

bool
Machine::done() const
{
    return core_->done();
}

bool
Machine::quiescent() const
{
    return core_->quiescent();
}

uint64_t
Machine::opsGenerated() const
{
    return workload_->opsGenerated();
}

namespace
{

/**
 * An optional section: a presence byte, then the component when present.
 * A section the snapshot carries must have a component to restore into;
 * with `exact`, a component the snapshot lacks is rejected too.
 * Observers are not exact: a snapshot taken without a tracer restores
 * into a traced machine (spcli --resume with trace flags).
 */
template <class Ar, class T, class F>
void
optionalSection(Ar &ar, T *component, bool exact, const char *what,
                F body)
{
    uint8_t present = component ? 1 : 0;
    ar.pod(present);
    if constexpr (Ar::kLoading) {
        if (present && !component) {
            throw SnapshotError(std::string("snapshot carries ") + what +
                                " state but the machine has none");
        }
        if (exact && !present && component) {
            throw SnapshotError(std::string("snapshot lacks the ") + what +
                                " state the machine configuration has");
        }
    }
    if (present)
        body(*component);
}

} // namespace

template <class Ar>
void
Machine::serialize(Ar &ar)
{
    static_assert(std::is_trivially_copyable<Stats>::value,
                  "Stats must stay trivially copyable");
    static_assert(std::is_trivially_copyable<CycleAccountant>::value,
                  "CycleAccountant must stay trivially copyable");
    SP_ASSERT(!finished_, "Machine used after finish()");
    ar.tag("MACH");
    ar.pod(stats_);
    workload_->serialize(ar);
    durable_.serialize(ar);
    mc_->serialize(ar);
    caches_->serialize(ar);
    core_->serialize(ar);

    auto component = [&ar](auto &c) { c.serialize(ar); };
    optionalSection(ar, injector_.get(), true, "conflict-injector",
                    component);
    optionalSection(ar, tracer_, false, "tracer", component);
    optionalSection(ar, auditor_.get(), false, "audit", component);
    optionalSection(ar, accountant_.get(), false, "cycle-account",
                    [&ar](CycleAccountant &a) { ar.pod(a); });
}

template void Machine::serialize(SnapshotWriter &);
template void Machine::serialize(SnapshotReader &);

SimSnapshot
Machine::takeSnapshot() const
{
    SimSnapshot snap;
    snap.configDesc = describeRunConfig(cfg_);
    snap.tick = core_->now();
    SnapshotWriter w;
    // Saving leaves the machine unchanged; serialize() is non-const only
    // because the same body restores.
    const_cast<Machine *>(this)->serialize(w);
    snap.payload = w.take();
    return snap;
}

void
Machine::restoreSnapshot(const SimSnapshot &snap)
{
    std::string desc = describeRunConfig(cfg_);
    if (snap.configDesc != desc) {
        throw SnapshotError("snapshot was taken under a different "
                            "configuration: snapshot \"" +
                            snap.configDesc + "\" vs machine \"" + desc +
                            "\"");
    }
    SnapshotReader r(snap.payload);
    serialize(r);
    if (!r.exhausted())
        throw SnapshotError("snapshot has trailing bytes (layout skew)");
    SP_ASSERT(core_->now() == snap.tick,
              "restored clock disagrees with the snapshot stamp");
}

RunResult
Machine::finish(Tick crashAtCycle)
{
    SP_ASSERT(!finished_, "Machine::finish() called twice");
    finished_ = true;

    RunResult result;
    result.completed = core_->done();
    if (result.completed) {
        result.outcome = stats_.watchdogDegradations > 0
            ? RunOutcome::kWatchdogDegraded
            : RunOutcome::kOk;
    } else if (core_->hitMaxCycles()) {
        result.outcome = RunOutcome::kMaxCycles;
    } else {
        result.outcome = RunOutcome::kCrashed;
    }

    result.functionalGeneration = Workload::generation(workload_->image());
    // On a completed run, drain the hierarchy so the durable image holds
    // the final state (clean shutdown); on a crash, everything volatile
    // is lost and the durable image stays exactly as the device left it
    // -- except that a FIFO prefix of the pending writes may land, with
    // the boundary write torn at word granularity (see applyTornWrites).
    result.perf.wpqPeakTimed = mc_->wpqPeak();
    if (result.completed) {
        mc_->resetWpqPeak();
        caches_->writebackAll();
        mc_->drainAll();
        result.perf.wpqPeakShutdown = mc_->wpqPeak();
    } else if (result.outcome == RunOutcome::kCrashed &&
               cfg_.sim.fault.crash.tornWrites) {
        mc_->applyTornWrites(cfg_.sim.fault.crash.seed ^ crashAtCycle);
    }
    // Media faults land last: they model the NVMM cells themselves
    // degrading, so they corrupt whatever image the crash (including
    // torn writes) actually left behind.
    if (result.outcome == RunOutcome::kCrashed &&
        cfg_.sim.fault.media.enabled) {
        result.mediaFaults = planMediaFaults(
            cfg_.sim.fault.media, durable_, stats_.cycles);
        applyMediaFaults(durable_, result.mediaFaults);
    }
    result.stats = stats_;
    if (tracer_)
        result.trace = tracer_->summary();
    // finalize() asserts the exhaustiveness identity against the run's
    // final cycle count, whatever way the run ended (ok/crash/maxCycles).
    if (accountant_)
        result.account = accountant_->finalize(result.stats.cycles);
    // finalize() last: with failOnViolation it throws, and the sweep's
    // failure record should describe a fully assembled run.
    if (auditor_)
        result.audit = auditor_->finalize();
    core_->collectPoolStats(result.perf.pools);
    result.perf.chainJumpCycles = core_->chainJumpCycles();
    result.perf.setupSeconds = setupSeconds_;
    result.perf.simSeconds = simSeconds_;
    result.perf.volatileTransHits = workload_->image().translationHits();
    result.perf.volatileTransMisses = workload_->image().translationMisses();
    // Translation counters are not moved with the image contents: read
    // them from the live device image before the move.
    result.perf.durableTransHits = durable_.translationHits();
    result.perf.durableTransMisses = durable_.translationMisses();
    result.durable = std::move(durable_);
    return result;
}

} // namespace sp
