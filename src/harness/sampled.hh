/**
 * @file
 * Sampled measurement of a single run.
 *
 * SMARTS-style systematic sampling: N short windows at evenly spaced
 * operation offsets run in parallel, each functionally fast-forwarded
 * (the workload's deterministic op stream replaces checkpoint warming),
 * detail-warmed, then measured. Returns estimated cycles / CPI with a
 * 95% confidence interval -- fast triage, clearly labelled as an
 * estimate, never a fingerprint.
 */

#ifndef SP_HARNESS_SAMPLED_HH
#define SP_HARNESS_SAMPLED_HH

#include <array>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "sim/cycle_account.hh"

namespace sp
{

/** Knobs of a sampled (estimated) run. */
struct SampledOptions
{
    /** Measurement windows, spread evenly over the op stream. */
    unsigned samples = 16;
    /** Detail warm-up operations per window (caches, WPQ, SSB reach
     *  steady state before measurement starts). */
    uint64_t warmupOps = 64;
    /** Measured operations per window. */
    uint64_t measureOps = 256;
    /** Worker threads for the windows; 0 = automatic. */
    unsigned workers = 0;
};

/** One measured window of a sampled run. */
struct SampleWindow
{
    /** Functional fast-forward depth (ops past the normal initOps). */
    uint64_t offsetOps = 0;
    uint64_t measuredOps = 0;
    uint64_t measuredCycles = 0;
    double cyclesPerOp = 0;
};

/** The estimate a sampled run produces. */
struct SampledEstimate
{
    /** simOps of the run being estimated. */
    uint64_t totalOps = 0;
    std::vector<SampleWindow> windows;
    double meanCyclesPerOp = 0;
    /** Half-width of the 95% confidence interval on cyclesPerOp. */
    double ciCyclesPerOp = 0;
    /** meanCyclesPerOp * totalOps. */
    double estimatedCycles = 0;
    /** Half-width of the 95% confidence interval on estimatedCycles. */
    double ciCycles = 0;
    /** Mean share of each cycle category inside the measured windows
     *  (all zero unless cfg.account.enabled). */
    std::array<double, kNumCycleCats> categoryShares{};
    bool hasShares = false;

    /** One-line JSON object. */
    std::string toJson() const;

    /** Human-readable block. */
    void print(std::ostream &os, const std::string &prefix = "") const;
};

/**
 * Estimate a run's cycle count (and CPI shares, when accounting is
 * enabled) from sampled windows. Deterministic for a fixed config and
 * option set -- windows are placed by arithmetic, not time -- but an
 * ESTIMATE: use runExperiment() for fingerprints.
 */
SampledEstimate runSampledExperiment(const RunConfig &cfg,
                                     const SampledOptions &opts = {});

} // namespace sp

#endif // SP_HARNESS_SAMPLED_HH
