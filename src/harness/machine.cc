#include "harness/machine.hh"

#include <type_traits>
#include <utility>

#include "cpu/ooo_core.hh"
#include "mem/cache_hierarchy.hh"
#include "mem/mem_system.hh"
#include "pmem/layout.hh"
#include "sim/logging.hh"

namespace sp
{

Machine::Machine(const RunConfig &cfg, Tracer *tracer, bool deferSetup,
                 const WorkloadSetup *setup)
    : cfg_(cfg)
{
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
        ownedAccountant_ = std::make_unique<CycleAccountant>();
        accountant_ = ownedAccountant_.get();
        core_->setAccountant(accountant_);
    }
    if (cfg_.probePeriod != 0) {
        // Target the hot region: workload metadata, the undo log, and the
        // first stretch of the heap -- where speculative writes live.
        core_->enablePeriodicProbes(cfg_.probePeriod, kMetaBase,
                                    kHeapBase + (4u << 20) - kMetaBase,
                                    cfg_.probeSeed);
    }
    if (cfg_.sim.fault.conflict.enabled) {
        // Default footprint: the same hot region periodic probes target.
        Addr base = cfg_.sim.fault.conflict.footprintBase
            ? cfg_.sim.fault.conflict.footprintBase
            : kMetaBase;
        uint64_t bytes = cfg_.sim.fault.conflict.footprintBytes
            ? cfg_.sim.fault.conflict.footprintBytes
            : kHeapBase + (4u << 20) - kMetaBase;
        injector_ = std::make_unique<ConflictInjector>(
            cfg_.sim.fault.conflict, base, bytes);
        core_->setConflictInjector(injector_.get());
    }
}

Machine::~Machine() = default;

bool
Machine::runUntil(Tick cycleLimit)
{
    SP_ASSERT(!finished_, "Machine used after finish()");
    return core_->runUntil(cycleLimit);
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

void
Machine::setAccountant(CycleAccountant *accountant)
{
    ownedAccountant_.reset();
    accountant_ = accountant;
    core_->setAccountant(accountant);
}

void
Machine::setTracer(Tracer *tracer)
{
    ownedTracer_.reset();
    tracer_ = tracer;
    core_->setTracer(tracer);
}

void
Machine::save(SnapshotWriter &w) const
{
    static_assert(std::is_trivially_copyable<Stats>::value,
                  "Stats must stay trivially copyable");
    static_assert(std::is_trivially_copyable<CycleAccountant>::value,
                  "CycleAccountant must stay trivially copyable");
    static_assert(std::is_trivially_copyable<ConflictInjector>::value,
                  "ConflictInjector must stay trivially copyable");
    w.putTag("MACH");
    w.putPod(stats_);
    workload_->saveState(w);
    durable_.saveState(w);
    mc_->saveState(w);
    caches_->saveState(w);
    core_->saveState(w);

    w.putPod<uint8_t>(injector_ ? 1 : 0);
    if (injector_)
        injector_->saveState(w);

    // Observer sections are optional: a snapshot taken without a tracer
    // (the slice producer) restores into a machine with a fresh one.
    w.putPod<uint8_t>(tracer_ ? 1 : 0);
    if (tracer_)
        tracer_->saveState(w);
    w.putPod<uint8_t>(auditor_ ? 1 : 0);
    if (auditor_)
        auditor_->saveState(w);
    w.putPod<uint8_t>(accountant_ ? 1 : 0);
    if (accountant_)
        w.putPod(*accountant_);
}

void
Machine::restore(SnapshotReader &r)
{
    SP_ASSERT(!finished_, "Machine used after finish()");
    r.checkTag("MACH");
    r.getPod(stats_);
    workload_->restoreState(r);
    durable_.restoreState(r);
    mc_->restoreState(r);
    caches_->restoreState(r);
    core_->restoreState(r);

    bool hasInjector = r.getPod<uint8_t>() != 0;
    if (hasInjector != (injector_ != nullptr)) {
        throw SnapshotError(
            "snapshot conflict-injector presence does not match the "
            "machine configuration");
    }
    if (injector_)
        injector_->restoreState(r);

    bool hasTracer = r.getPod<uint8_t>() != 0;
    if (hasTracer && !tracer_) {
        throw SnapshotError(
            "snapshot carries tracer state but no tracer is attached");
    }
    if (hasTracer)
        tracer_->restoreState(r);

    bool hasAuditor = r.getPod<uint8_t>() != 0;
    if (hasAuditor && !auditor_) {
        throw SnapshotError(
            "snapshot carries audit state but the audit is not enabled");
    }
    if (hasAuditor)
        auditor_->restoreState(r);

    bool hasAccountant = r.getPod<uint8_t>() != 0;
    if (hasAccountant && !accountant_) {
        throw SnapshotError("snapshot carries cycle-account state but no "
                            "accountant is attached");
    }
    if (hasAccountant)
        r.getPod(*accountant_);
}

SimSnapshot
Machine::takeSnapshot() const
{
    SimSnapshot snap;
    snap.configDesc = describeRunConfig(cfg_);
    snap.tick = core_->now();
    SnapshotWriter w;
    save(w);
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
    restore(r);
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
    result.perf.chainFastCycles = core_->chainFastCycles();
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
