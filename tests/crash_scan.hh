/**
 * @file
 * Shared crash-scheduling helpers for the crash-recovery and
 * audit-mutation tests.
 *
 * The central lesson (learned in the interrupted-recovery test this was
 * promoted from): armed windows -- stretches where a crash lands inside
 * a transaction -- are narrow and recur with the transaction cadence, so
 * any evenly spaced grid can alias past every single one. A sequential
 * fine-step scan cannot, and early crash runs are cheap because a
 * crashed run's cost is proportional to its crash cycle. Mutation crash
 * schedules are seeded from these scans for the same reason: the window
 * in which a dropped clwb is observable is exactly such a narrow,
 * cadence-locked stretch.
 *
 * Every scan crashes the same configuration many times, so the helpers
 * take the configuration's captured post-setup state (WorkloadSetup):
 * each crash run and each functional replay restores it instead of
 * re-running the #InitOps fast-forward.
 */

#ifndef SP_TESTS_CRASH_SCAN_HH
#define SP_TESTS_CRASH_SCAN_HH

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "pmem/recovery.hh"
#include "workloads/factory.hh"

namespace sp
{

/**
 * Sequential fine-step crash schedule over [startAt, endAt) (endAt == 0
 * means totalCycles). Steps are `max(minStep, range / maxPoints)` so the
 * schedule has at most ~maxPoints points but never strides coarser than
 * the range demands.
 */
inline std::vector<Tick>
fineStepCrashSchedule(Tick totalCycles, unsigned maxPoints = 200,
                      Tick minStep = 64, Tick startAt = 0, Tick endAt = 0)
{
    std::vector<Tick> points;
    if (endAt == 0 || endAt > totalCycles)
        endAt = totalCycles;
    if (maxPoints == 0 || endAt <= startAt)
        return points;
    Tick range = endAt - startAt;
    Tick step = std::max<Tick>(minStep, range / maxPoints);
    for (Tick at = startAt + step; at < endAt; at += step)
        points.push_back(at);
    return points;
}

/**
 * Scan forward in fine steps until `want` crash points land inside a
 * transaction (recovery finds logged_bit set and undoes entries).
 * Probes at most `maxProbes` crash runs; returns the armed points found
 * (possibly fewer than `want` -- callers assert on what they need).
 */
inline std::vector<Tick>
findArmedCrashPoints(const RunConfig &cfg, const WorkloadSetup &setup,
                     Tick totalCycles, unsigned want,
                     unsigned maxProbes = 200)
{
    std::vector<Tick> armed;
    unsigned probes = 0;
    Tick step = std::max<Tick>(64, totalCycles / 400);
    for (Tick at = step;
         at < totalCycles && armed.size() < want && probes < maxProbes;
         at += step) {
        ++probes;
        RunResult crashed = runExperiment(cfg, at, nullptr, &setup);
        if (crashed.completed)
            break;
        MemImage img = crashed.durable;
        if (recoverImage(img).undone)
            armed.push_back(at);
    }
    return armed;
}

/**
 * The crash-recovery verdict used throughout the crash campaign: crash
 * `cfg` at `at`, recover the durable image, and compare it against a
 * fresh functional replay to the recovered generation. True when the
 * recovered state diverges (structural check fails, contents differ, or
 * the recovered generation exceeds anything the replay can reach).
 */
inline bool
crashRecoveryDiverges(const RunConfig &cfg, const WorkloadSetup &setup,
                      Tick at, uint64_t maxGen, std::string *why = nullptr)
{
    RunResult crashed = runExperiment(cfg, at, nullptr, &setup);
    if (crashed.completed) {
        if (why)
            *why = "crash point beyond the end of the run";
        return false;
    }
    recoverImage(crashed.durable);
    uint64_t gen = Workload::generation(crashed.durable);
    if (gen > maxGen) {
        if (why) {
            *why = "recovered generation " + std::to_string(gen) +
                " exceeds the full run's " + std::to_string(maxGen);
        }
        return true;
    }
    std::unique_ptr<Workload> replay = setup.instantiate();
    replay->runFunctionalToGeneration(gen);
    std::string local;
    if (!replay->checkImage(crashed.durable, &local)) {
        if (why)
            *why = "crash @ " + std::to_string(at) + ": " + local;
        return true;
    }
    if (replay->contents(crashed.durable) !=
        replay->contents(replay->image())) {
        if (why) {
            *why = "crash @ " + std::to_string(at) + " gen " +
                std::to_string(gen) +
                ": recovered contents differ from the replayed boundary";
        }
        return true;
    }
    return false;
}

} // namespace sp

#endif // SP_TESTS_CRASH_SCAN_HH
