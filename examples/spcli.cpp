/**
 * @file
 * spcli: run any benchmark/variant/configuration from the command line
 * and print the full statistics -- the kitchen-sink driver for exploring
 * the simulator without writing code.
 *
 * Usage:
 *   spcli [--workload LL|HM|GH|SS|AT|BT|RT] [--mode base|log|logp|logpsf]
 *         [--sp] [--strict] [--ssb N] [--checkpoints N] [--banks N]
 *         [--wpq N] [--mcs N] [--ops N] [--init N] [--seed N]
 *         [--evict] [--probe-period N] [--crash-at CYCLE] [--csv]
 *         [--inject-conflicts[=uniform|hotset|trail]]
 *         [--conflict-period=N] [--poisson] [--watchdog[=N]]
 *         [--torn-writes] [--jitter=N] [--max-cycles=N]
 *         [--crash-matrix=N] [--campaign-csv=FILE]
 *         [--trace] [--trace=FILE] [--trace-csv=FILE]
 *         [--trace-categories=LIST] [--sample-every=N]
 *         [--audit[=FILE]] [--cycle-account[=FILE]]
 *         [--checksums] [--media-faults[=N]]
 *         [--fault-class=ecc|silent|mixed] [--scrub=CYCLES]
 *         [--snapshot=FILE --snapshot-at=CYCLE]
 *         [--resume=FILE] [--sampled[=WINDOWS]]
 *
 * Exit status: 0 on success; 1 when a run or verdict fails (audit
 * violations, campaign FAILED); 2 on a usage error (unknown flag, bad
 * value, contradictory combination).
 *
 * Media faults:
 *   --checksums         arm the checksummed image format (per-line CRC
 *                       slots, CRC'd undo-log entries) so hardened
 *                       recovery can detect and repair corruption
 *   --media-faults[=N]  inject N NVMM media faults (bit flips, stuck
 *                       words, torn residue; default 4) into the crash
 *                       image; requires --crash-at or --crash-matrix
 *   --fault-class       ecc (every fault raises a MediaFault signal on
 *                       read), silent (no signal; only checksums can
 *                       catch it), or mixed (half and half; default)
 *   --scrub=CYCLES      model a patrol scrubber with this period: ECC
 *                       faults that land before the last scrub tick are
 *                       repaired before recovery ever sees them
 *
 * Cycle accounting:
 *   --cycle-account     attach the CycleAccountant (sim/cycle_account.hh)
 *                       to the run: every simulated cycle attributed to
 *                       one exclusive category, plus the hidden/exposed
 *                       persist-barrier ledger. Prints the CPI-stack
 *                       table and the machine-readable account; with
 *                       =FILE also writes the JSON there.
 *
 * Durability audit:
 *   --audit             attach the DurabilityAuditor (sim/audit.hh) to
 *                       the run: happens-before-durable checking of the
 *                       retired op stream. Prints the findings and the
 *                       machine-readable report; with =FILE also writes
 *                       the JSON report there. Exits 1 when the audit
 *                       finds violations.
 *
 * Fault injection:
 *   --inject-conflicts  arm the conflict adversary (optionally choosing
 *                       its address policy; default uniform)
 *   --conflict-period   mean cycles between adversary probes
 *   --poisson           draw probe gaps from an exponential instead of a
 *                       fixed period
 *   --watchdog          arm the forward-progress watchdog (optionally
 *                       setting the consecutive-abort threshold)
 *   --torn-writes       on a crash, tear the write on the NVMM media at
 *                       8-byte-word granularity
 *   --jitter            add up to N cycles of per-write NVMM latency
 *   --max-cycles        stop and report `max_cycles` after N cycles
 *   --crash-matrix      run a fault campaign over N crash points (plus
 *                       conflict cells when --inject-conflicts is given)
 *                       for the selected workload, then exit
 *   --campaign-csv      write the per-cell campaign record to FILE
 *
 * Tracing:
 *   --trace             stream human-readable event lines to stdout
 *   --trace=FILE        write Chrome trace-event JSON (open the file in
 *                       ui.perfetto.dev or chrome://tracing)
 *   --trace-csv=FILE    write the counter tracks as a CSV time series
 *   --trace-categories  comma list: retire,spec,epoch,ssb,cache,mem,
 *                       counters,all,default (default: "default" for
 *                       file export, "all" for --trace text)
 *   --sample-every=N    occupancy-sampler period in cycles (default 64)
 *
 * Snapshots and sampling (harness/machine.hh, harness/sampled.hh):
 *   --snapshot=FILE     write a whole-simulator snapshot to FILE at
 *                       --snapshot-at=CYCLE, then keep running
 *   --resume=FILE       restore FILE (taken under the SAME flags) and
 *                       run to completion; bit-identical to the
 *                       uninterrupted run
 *   --sampled[=N]       SMARTS-style sampled ESTIMATE from N windows
 *                       (default 16) with a 95% confidence interval;
 *                       with --cycle-account also estimates CPI shares
 *
 * Examples:
 *   spcli --workload BT --sp --ssb 128
 *   spcli --workload SS --mode logp --ops 5000
 *   spcli --workload LL --sp --crash-at 100000
 *   spcli --workload HM --sp --trace=hm.json --sample-every=16
 *   spcli --workload BT --sp --inject-conflicts=trail --watchdog
 *   spcli --workload LL --sp --crash-matrix=8 --torn-writes --jitter=64
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "harness/campaign.hh"
#include "harness/machine.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/sampled.hh"
#include "harness/table.hh"
#include "pmem/recovery.hh"
#include "sim/snapshot.hh"
#include "sim/trace.hh"

using namespace sp;

namespace
{

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg)
        std::cerr << "spcli: " << msg << "\n";
    std::cerr <<
        "usage: spcli [--workload LL|HM|GH|SS|AT|BT|RT]\n"
        "             [--mode base|log|logp|logpsf] [--sp] [--strict]\n"
        "             [--ssb N] [--checkpoints N] [--banks N] [--wpq N]\n"
        "             [--mcs N] [--ops N] [--init N] [--seed N] [--evict]\n"
        "             [--probe-period N] [--crash-at CYCLE] [--csv]\n"
        "             [--inject-conflicts[=uniform|hotset|trail]]\n"
        "             [--conflict-period=N] [--poisson] [--watchdog[=N]]\n"
        "             [--torn-writes] [--jitter=N] [--max-cycles=N]\n"
        "             [--crash-matrix=N] [--campaign-csv=FILE]\n"
        "             [--trace] [--trace=FILE] [--trace-csv=FILE]\n"
        "             [--trace-categories=LIST] [--sample-every=N]\n"
        "             [--audit[=FILE]] [--cycle-account[=FILE]]\n"
        "             [--checksums] [--media-faults[=N]]\n"
        "             [--fault-class=ecc|silent|mixed] [--scrub=CYCLES]\n"
        "             [--snapshot=FILE --snapshot-at=CYCLE]\n"
        "             [--resume=FILE] [--sampled[=WINDOWS]]\n"
        "\n"
        "  --audit      durability audit of the retired op stream\n"
        "               (missing/late clwb, unordered flushes, redundant\n"
        "               barriers); =FILE writes the JSON report; exit 1\n"
        "               on violations\n"
        "  --cycle-account  exhaustive CPI-stack attribution and the\n"
        "               hidden/exposed persist-barrier ledger; =FILE\n"
        "               writes the JSON account\n"
        "  --checksums  arm the checksummed image format (CRC slots +\n"
        "               CRC'd undo log) for hardened recovery\n"
        "  --media-faults[=N]  inject N NVMM media faults into the crash\n"
        "               image (needs --crash-at or --crash-matrix)\n"
        "  --fault-class  ecc | silent | mixed fault population\n"
        "  --scrub=CYCLES  patrol-scrubber period for ECC faults\n"
        "  --snapshot=FILE --snapshot-at=CYCLE  checkpoint mid-run\n"
        "  --resume=FILE  restore a snapshot (same flags!) and continue\n"
        "  --sampled[=N]  sampled cycle ESTIMATE with 95% CI\n"
        "\n"
        "exit status: 0 ok; 1 run/verdict failure; 2 usage error\n";
    std::exit(msg ? 2 : 0);
}

uint64_t
parseNum(const char *arg, const char *flag)
{
    char *end = nullptr;
    uint64_t v = std::strtoull(arg, &end, 10);
    if (end == arg || *end != '\0')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg = makeRunConfig(WorkloadKind::kLinkedList,
                                  PersistMode::kLogPSf, false);
    Tick crash_at = 0;
    unsigned crash_matrix = 0;
    std::string campaign_csv_file;
    bool csv = false;
    bool trace_text = false;
    std::string trace_file;
    std::string trace_csv_file;
    uint32_t trace_cats = 0;
    unsigned sample_every = 0;
    bool audit = false;
    std::string audit_file;
    bool account = false;
    std::string account_file;
    bool media = false;
    bool fault_class_given = false;
    bool scrub_given = false;
    std::string snapshot_file;
    Tick snapshot_at = 0;
    std::string resume_file;
    bool sampled = false;
    unsigned sampled_windows = 0;

    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage((flag + " needs a value").c_str());
            return argv[++i];
        };
        // Split "--flag=value" so both argument styles work.
        std::string inline_value;
        bool has_inline = false;
        if (auto eq = flag.find('='); eq != std::string::npos) {
            inline_value = flag.substr(eq + 1);
            flag = flag.substr(0, eq);
            has_inline = true;
        }
        auto value = [&]() -> std::string {
            return has_inline ? inline_value : std::string(next());
        };
        if (flag == "--help" || flag == "-h") {
            usage();
        } else if (flag == "--workload") {
            std::string name = value();
            bool matched = false;
            for (WorkloadKind k : allWorkloadKinds()) {
                if (name == workloadKindName(k)) {
                    cfg.kind = k;
                    // Re-derive default op counts for the new kind,
                    // preserving any --ops/--init given earlier by
                    // re-applying env overrides afterwards.
                    WorkloadParams fresh = defaultParams(k);
                    fresh.mode = cfg.params.mode;
                    fresh.seed = cfg.params.seed;
                    fresh.evictOnPersist = cfg.params.evictOnPersist;
                    cfg.params = fresh;
                    applyEnvOverrides(cfg.params);
                    matched = true;
                }
            }
            if (!matched)
                usage("unknown workload");
        } else if (flag == "--mode") {
            std::string m = value();
            if (m == "base")
                cfg.params.mode = PersistMode::kNone;
            else if (m == "log")
                cfg.params.mode = PersistMode::kLog;
            else if (m == "logp")
                cfg.params.mode = PersistMode::kLogP;
            else if (m == "logpsf")
                cfg.params.mode = PersistMode::kLogPSf;
            else
                usage("unknown mode");
        } else if (flag == "--sp") {
            cfg.sim.sp.enabled = true;
        } else if (flag == "--strict") {
            cfg.sim.sp.strictCommit = true;
        } else if (flag == "--ssb") {
            cfg.sim.sp.ssbEntries =
                static_cast<unsigned>(parseNum(value().c_str(), "--ssb"));
        } else if (flag == "--checkpoints") {
            cfg.sim.sp.checkpoints = static_cast<unsigned>(
                parseNum(value().c_str(), "--checkpoints"));
        } else if (flag == "--banks") {
            cfg.sim.mem.nvmmBanks =
                static_cast<unsigned>(parseNum(value().c_str(), "--banks"));
        } else if (flag == "--wpq") {
            cfg.sim.mem.wpqEntries =
                static_cast<unsigned>(parseNum(value().c_str(), "--wpq"));
        } else if (flag == "--mcs") {
            cfg.sim.mem.numMemCtrls =
                static_cast<unsigned>(parseNum(value().c_str(), "--mcs"));
        } else if (flag == "--ops") {
            cfg.params.simOps = parseNum(value().c_str(), "--ops");
        } else if (flag == "--init") {
            cfg.params.initOps = parseNum(value().c_str(), "--init");
        } else if (flag == "--seed") {
            cfg.params.seed = parseNum(value().c_str(), "--seed");
        } else if (flag == "--evict") {
            cfg.params.evictOnPersist = true;
        } else if (flag == "--probe-period") {
            cfg.probePeriod = parseNum(value().c_str(), "--probe-period");
        } else if (flag == "--crash-at") {
            crash_at = parseNum(value().c_str(), "--crash-at");
        } else if (flag == "--inject-conflicts") {
            cfg.sim.fault.conflict.enabled = true;
            if (has_inline) {
                cfg.sim.fault.conflict.policy =
                    parseConflictPolicy(inline_value);
            }
        } else if (flag == "--conflict-period") {
            cfg.sim.fault.conflict.enabled = true;
            cfg.sim.fault.conflict.period =
                parseNum(value().c_str(), "--conflict-period");
        } else if (flag == "--poisson") {
            cfg.sim.fault.conflict.timing = ConflictTiming::kPoisson;
        } else if (flag == "--watchdog") {
            cfg.sim.fault.watchdog.enabled = true;
            if (has_inline) {
                cfg.sim.fault.watchdog.abortThreshold =
                    static_cast<unsigned>(
                        parseNum(inline_value.c_str(), "--watchdog"));
            }
        } else if (flag == "--torn-writes") {
            cfg.sim.fault.crash.tornWrites = true;
        } else if (flag == "--jitter") {
            cfg.sim.fault.crash.pcommitJitterCycles = static_cast<unsigned>(
                parseNum(value().c_str(), "--jitter"));
        } else if (flag == "--max-cycles") {
            cfg.sim.maxCycles = parseNum(value().c_str(), "--max-cycles");
        } else if (flag == "--crash-matrix") {
            crash_matrix = static_cast<unsigned>(
                parseNum(value().c_str(), "--crash-matrix"));
        } else if (flag == "--campaign-csv") {
            campaign_csv_file = value();
        } else if (flag == "--csv") {
            csv = true;
        } else if (flag == "--trace") {
            if (has_inline)
                trace_file = inline_value;
            else
                trace_text = true;
        } else if (flag == "--trace-csv") {
            trace_csv_file = value();
        } else if (flag == "--trace-categories") {
            trace_cats = parseTraceCategories(value());
        } else if (flag == "--sample-every") {
            sample_every = static_cast<unsigned>(
                parseNum(value().c_str(), "--sample-every"));
        } else if (flag == "--audit") {
            audit = true;
            cfg.audit.enabled = true;
            if (has_inline)
                audit_file = inline_value;
        } else if (flag == "--cycle-account") {
            account = true;
            cfg.account.enabled = true;
            if (has_inline)
                account_file = inline_value;
        } else if (flag == "--checksums") {
            cfg.params.checksums = true;
        } else if (flag == "--media-faults") {
            media = true;
            cfg.sim.fault.media.enabled = true;
            if (has_inline) {
                cfg.sim.fault.media.faults = static_cast<unsigned>(
                    parseNum(inline_value.c_str(), "--media-faults"));
                if (cfg.sim.fault.media.faults == 0)
                    usage("--media-faults needs at least one fault; drop "
                          "the flag to run without media corruption");
            }
        } else if (flag == "--fault-class") {
            fault_class_given = true;
            std::string c = value();
            if (c == "ecc")
                cfg.sim.fault.media.silentFraction = 0.0;
            else if (c == "silent")
                cfg.sim.fault.media.silentFraction = 1.0;
            else if (c == "mixed")
                cfg.sim.fault.media.silentFraction = 0.5;
            else
                usage("--fault-class must be ecc, silent, or mixed");
        } else if (flag == "--scrub") {
            scrub_given = true;
            cfg.sim.fault.media.scrubInterval =
                parseNum(value().c_str(), "--scrub");
        } else if (flag == "--snapshot") {
            snapshot_file = value();
            if (snapshot_file.empty())
                usage("--snapshot needs a file name");
        } else if (flag == "--snapshot-at") {
            snapshot_at = parseNum(value().c_str(), "--snapshot-at");
            if (snapshot_at == 0)
                usage("--snapshot-at needs a cycle > 0");
        } else if (flag == "--resume") {
            resume_file = value();
            if (resume_file.empty())
                usage("--resume needs a file name");
        } else if (flag == "--sampled") {
            sampled = true;
            if (has_inline) {
                sampled_windows = static_cast<unsigned>(
                    parseNum(inline_value.c_str(), "--sampled"));
                if (sampled_windows == 0)
                    usage("--sampled needs at least one window");
            }
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }

    // Reject contradictory flag combinations with a pointer to the fix
    // (exit 2, like every other usage error).
    if (fault_class_given && !media)
        usage("--fault-class classifies injected media faults; add "
              "--media-faults[=N]");
    if (scrub_given && !media)
        usage("--scrub models a patrol scrubber for injected media "
              "faults; add --media-faults[=N]");
    if (media && crash_at == 0 && crash_matrix == 0)
        usage("--media-faults corrupts a crash image; add --crash-at "
              "CYCLE or --crash-matrix=N");
    cfg.sim.fault.media.seed = cfg.params.seed;

    // Sampling, resuming and snapshotting are whole-run modes;
    // combinations that would need a different entry point are usage
    // errors.
    bool tracing_flags =
        trace_text || !trace_file.empty() || !trace_csv_file.empty();
    if (sampled && !resume_file.empty())
        usage("--sampled and --resume are exclusive modes");
    if ((sampled || !resume_file.empty()) && !snapshot_file.empty()) {
        usage("--snapshot checkpoints a plain serial run; drop "
              "--sampled/--resume");
    }
    if (snapshot_file.empty() != (snapshot_at == 0))
        usage("--snapshot and --snapshot-at go together");
    if ((sampled || !resume_file.empty() || !snapshot_file.empty()) &&
        (crash_at != 0 || crash_matrix != 0)) {
        usage("crash injection uses the plain serial path; drop "
              "--sampled/--snapshot/--resume");
    }
    if (sampled && (tracing_flags || trace_cats != 0 || audit))
        usage("--sampled estimates cycles (and CPI shares with "
              "--cycle-account); tracing and audit need an exact run");

    if (crash_matrix != 0) {
        // Campaign mode: a crash matrix (plus conflict cells when the
        // adversary is armed) for the selected workload, with the
        // mechanical pass/fail verdict the fault tests use.
        CampaignOptions opts;
        opts.kinds = {cfg.kind};
        opts.crashPoints = crash_matrix;
        opts.tornWrites = cfg.sim.fault.crash.tornWrites;
        opts.pcommitJitterCycles = cfg.sim.fault.crash.pcommitJitterCycles;
        if (cfg.sim.fault.conflict.enabled) {
            opts.conflictPeriods = {cfg.sim.fault.conflict.period};
            opts.policies = {cfg.sim.fault.conflict.policy};
            opts.timing = cfg.sim.fault.conflict.timing;
        } else {
            opts.conflictPeriods.clear();
        }
        if (cfg.sim.fault.watchdog.enabled)
            opts.watchdog = cfg.sim.fault.watchdog;
        opts.seed = cfg.params.seed;
        opts.initOps = cfg.params.initOps;
        opts.simOps = cfg.params.simOps;
        if (media) {
            opts.mediaFaults = true;
            opts.mediaFaultCount = cfg.sim.fault.media.faults;
            opts.mediaSilentFraction = cfg.sim.fault.media.silentFraction;
            opts.mediaScrubInterval = cfg.sim.fault.media.scrubInterval;
        }

        std::cout << "spcli: fault campaign, " << workloadKindName(cfg.kind)
                  << ", " << crash_matrix << " crash points"
                  << (media ? ", media faults armed" : "") << ", seed "
                  << opts.seed << "\n";
        CampaignReport report = runFaultCampaign(opts);
        for (const CampaignCellResult &cell : report.cells) {
            std::cout << "  [" << campaignCellKindName(cell.kind) << "] "
                      << cell.config << " -> "
                      << runOutcomeName(cell.outcome);
            if (cell.kind == CampaignCellKind::kCrash &&
                cell.recoveryChecked) {
                std::cout << (cell.recoveryMatched
                                  ? ", recovered exactly"
                                  : ", RECOVERY MISMATCH");
            }
            if (cell.kind == CampaignCellKind::kConflict) {
                std::cout << ", " << cell.aborts << "/"
                          << cell.conflictProbes << " probes aborted"
                          << (cell.finalStateMatched
                                  ? ", final image golden"
                                  : ", FINAL IMAGE DIFFERS");
            }
            if (cell.kind == CampaignCellKind::kMedia &&
                cell.mediaChecked) {
                std::cout << ", " << recoveryVerdictName(cell.mediaVerdict)
                          << ": " << cell.mediaApplied << " faults ("
                          << cell.mediaScrubbed << " scrubbed), "
                          << cell.mediaRepaired << " repaired, "
                          << cell.mediaDegraded << " degraded, "
                          << cell.mediaEscapes
                          << (cell.mediaEscapes == 0 ? " escapes"
                                                     : " SILENT ESCAPES");
            }
            std::cout << "\n";
        }
        if (!campaign_csv_file.empty()) {
            std::ofstream out(campaign_csv_file);
            if (!out) {
                std::cerr << "spcli: cannot write " << campaign_csv_file
                          << "\n";
                return 1;
            }
            report.writeCsv(out);
            std::cout << "campaign: wrote " << campaign_csv_file << "\n";
        }
        std::cout << report.toJson() << "\n"
                  << "campaign " << (report.passed() ? "PASSED" : "FAILED")
                  << "\n";
        return report.passed() ? 0 : 1;
    }

    std::cout << "spcli: " << workloadKindName(cfg.kind) << " "
              << persistModeName(cfg.params.mode)
              << (cfg.sim.sp.enabled ? " +SP" : "")
              << (cfg.sim.sp.strictCommit ? " (strict)" : "") << ", "
              << cfg.params.simOps << " ops, seed " << cfg.params.seed
              << "\n\n";

    // One tracer for the run, whatever combination of backends is on:
    // text lines stream during the run; file exports happen at the end.
    bool tracing =
        trace_text || !trace_file.empty() || !trace_csv_file.empty();
    std::unique_ptr<Tracer> tracer;
    if (tracing) {
        TraceOptions opts;
        opts.categories = trace_cats != 0
            ? trace_cats
            : (trace_text ? kTraceAll : kTraceDefault);
        if (sample_every != 0)
            opts.sampleEvery = sample_every;
        opts.retainEvents =
            !trace_file.empty() || !trace_csv_file.empty();
        tracer = std::make_unique<Tracer>(opts);
        if (trace_text)
            tracer->setTextSink(&std::cout);
    }

    if (sampled) {
        SampledOptions sopts;
        if (sampled_windows != 0)
            sopts.samples = sampled_windows;
        SampledEstimate est = runSampledExperiment(cfg, sopts);
        est.print(std::cout);
        std::cout << "sampled estimate: " << est.toJson() << "\n";
        return 0;
    }

    RunResult r;
    if (!resume_file.empty()) {
        SimSnapshot snap = SimSnapshot::readFile(resume_file);
        std::cout << "resuming " << resume_file << " at tick "
                  << snap.tick << "\n";
        // deferSetup: the snapshot carries the functional state, so the
        // fast-forward would be wasted work.
        Machine machine(cfg, tracer.get(), /*deferSetup=*/true);
        machine.restoreSnapshot(snap);
        machine.runUntil(kTickNever);
        r = machine.finish();
    } else if (!snapshot_file.empty()) {
        Machine machine(cfg, tracer.get());
        machine.runUntil(snapshot_at);
        machine.takeSnapshot().writeFile(snapshot_file);
        std::cout << "snapshot: wrote " << snapshot_file << " at tick "
                  << machine.now() << "\n";
        machine.runUntil(kTickNever);
        r = machine.finish();
    } else {
        r = runExperiment(cfg, crash_at, tracer.get());
    }
    std::cout << "outcome: " << runOutcomeName(r.outcome) << "\n\n";

    if (crash_at != 0 && !r.completed &&
        (media || cfg.params.checksums)) {
        // Hardened detect-repair-degrade recovery: the path media faults
        // and checksummed images exercise.
        std::cout << "crashed at cycle " << crash_at;
        if (media) {
            std::cout << "; " << r.mediaFaults.applied()
                      << " media faults applied ("
                      << r.mediaFaults.scrubbed() << " scrubbed)";
        }
        std::cout << "; running hardened recovery...\n";
        RecoveryOptions ropts;
        ropts.checksums = cfg.params.checksums;
        RecoveryReport rep = recoverImageHardened(r.durable, ropts);
        uint64_t gen = Workload::generation(r.durable);
        std::cout << "  verdict " << recoveryVerdictName(rep.verdict)
                  << ": " << rep.entriesApplied << "/" << rep.entriesWalked
                  << " undo entries applied, " << rep.entriesDropped
                  << " dropped, " << rep.faultsDetected
                  << " faults detected, " << rep.crcMismatches
                  << " CRC mismatches, " << rep.linesRepaired
                  << " lines repaired, " << rep.degradedLines.size()
                  << " degraded, " << rep.retries << " retries\n";
        if (rep.verdict != RecoveryVerdict::kUnrecoverable) {
            auto w = makeWorkload(cfg.kind, cfg.params);
            w->setup();
            w->runFunctionalToGeneration(gen);
            std::string why;
            bool ok = w->checkImage(r.durable, &why) &&
                w->contents(r.durable) == w->contents(w->image());
            std::cout << "  generation " << gen << " -> "
                      << (ok ? "live state recovered exactly"
                             : "MISMATCH: " + why)
                      << "\n\n";
        } else {
            std::cout << "  image reported unusable (loud failure)\n\n";
        }
    } else if (crash_at != 0 && !r.completed) {
        std::cout << "crashed at cycle " << crash_at << "; recovering the "
                  << "durable image...\n";
        RecoveryResult rec = recoverImage(r.durable);
        uint64_t gen = Workload::generation(r.durable);
        auto w = makeWorkload(cfg.kind, cfg.params);
        w->setup();
        w->runFunctionalToGeneration(gen);
        std::string why;
        bool ok = w->checkImage(r.durable, &why) &&
            w->contents(r.durable) == w->contents(w->image());
        std::cout << "  " << (rec.undone
                                  ? std::to_string(rec.entriesApplied) +
                                        " undo entries applied"
                                  : "no transaction in flight")
                  << ", generation " << gen << " -> "
                  << (ok ? "recovered exactly" : "MISMATCH: " + why)
                  << "\n\n";
    }

    if (tracer) {
        if (!trace_file.empty()) {
            std::ostringstream buf;
            tracer->writeChromeJson(buf);
            std::string doc = buf.str();
            std::string err;
            if (!jsonIsValid(doc, &err)) {
                std::cerr << "spcli: trace JSON failed self-check: " << err
                          << "\n";
                return 1;
            }
            std::ofstream out(trace_file);
            if (!out) {
                std::cerr << "spcli: cannot write " << trace_file << "\n";
                return 1;
            }
            out << doc;
            std::cout << "trace: wrote " << trace_file << " ("
                      << tracer->events().size()
                      << " events; open in ui.perfetto.dev)\n";
        }
        if (!trace_csv_file.empty()) {
            std::ofstream out(trace_csv_file);
            if (!out) {
                std::cerr << "spcli: cannot write " << trace_csv_file
                          << "\n";
                return 1;
            }
            tracer->writeCounterCsv(out);
            std::cout << "trace: wrote " << trace_csv_file
                      << " (counter time series)\n";
        }
        std::cout << "trace summary: " << tracer->summary().toJson()
                  << "\n\n";
    }

    if (account) {
        std::cout << "cycle account:\n";
        r.account.print(std::cout, "  ");
        std::cout << "perf telemetry (pools / translation caches):\n";
        r.perf.print(std::cout, "  ");
        std::string doc = r.account.toJson();
        std::string err;
        if (!jsonIsValid(doc, &err)) {
            std::cerr << "spcli: cycle-account JSON failed self-check: "
                      << err << "\n";
            return 1;
        }
        if (!account_file.empty()) {
            std::ofstream out(account_file);
            if (!out) {
                std::cerr << "spcli: cannot write " << account_file << "\n";
                return 1;
            }
            out << doc << "\n";
            std::cout << "cycle account: wrote " << account_file << "\n";
        }
        std::cout << "cycle account: " << doc << "\n\n";
    }

    bool audit_dirty = false;
    if (audit) {
        const AuditReport &rep = r.audit;
        audit_dirty = !rep.clean();
        std::cout << "audit: " << (rep.clean() ? "clean" : "VIOLATIONS")
                  << " -- " << rep.stores << " stores, " << rep.flushes
                  << " flushes, " << rep.pcommits << " pcommits, "
                  << rep.fences << " fences, " << rep.epochs
                  << " epochs; " << rep.redundantFlushes
                  << " redundant flushes, " << rep.redundantFences
                  << " redundant fences, " << rep.redundantPcommits
                  << " redundant pcommits\n";
        for (const AuditFinding &f : rep.findings)
            std::cout << "  " << f.toString() << "\n";
        if (rep.findingsTruncated)
            std::cout << "  (findings truncated)\n";
        std::string doc = rep.toJson();
        std::string err;
        if (!jsonIsValid(doc, &err)) {
            std::cerr << "spcli: audit JSON failed self-check: " << err
                      << "\n";
            return 1;
        }
        if (!audit_file.empty()) {
            std::ofstream out(audit_file);
            if (!out) {
                std::cerr << "spcli: cannot write " << audit_file << "\n";
                return 1;
            }
            out << doc << "\n";
            std::cout << "audit: wrote " << audit_file << "\n";
        }
        std::cout << "audit report: " << doc << "\n\n";
    }

    if (csv) {
        std::cout << statsCsvHeader() << "\n"
                  << statsCsvRow(workloadKindName(cfg.kind), r.stats)
                  << "\n";
    } else {
        r.stats.print(std::cout, "  ");
        if (r.stats.flushLatency.samples() > 0) {
            std::cout << "\n  pcommit flush latency:\n";
            r.stats.flushLatency.print(std::cout, "    ");
        }
    }
    return audit_dirty ? 1 : 0;
}
