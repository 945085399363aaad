/**
 * @file
 * Workload factory: construct any Table 1 benchmark by kind, with
 * paper-scale or scaled-down default op counts.
 */

#ifndef SP_WORKLOADS_FACTORY_HH
#define SP_WORKLOADS_FACTORY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "workloads/workload.hh"

namespace sp
{

/** All seven benchmark kinds in Table 1 order. */
const std::vector<WorkloadKind> &allWorkloadKinds();

/** Table 1 abbreviation for a kind. */
const char *workloadKindName(WorkloadKind kind);

/** Paper-scale #InitOps / #SimOps (Table 1). */
WorkloadParams paperScaleParams(WorkloadKind kind);

/**
 * Scaled-down op counts that keep every benchmark's character (resizes,
 * rebalancing, steady-state sizes) while running in seconds. `scale` is a
 * multiplier on the defaults (1 = bench default).
 */
WorkloadParams defaultParams(WorkloadKind kind, double scale = 1.0);

/** Construct a workload (does not run setup()). */
std::unique_ptr<Workload> makeWorkload(WorkloadKind kind,
                                       const WorkloadParams &params);

/**
 * One workload's post-setup state, captured once and replayed into any
 * number of fresh instances: the Workload::serialize bytes taken right
 * after setup(). Restoring them is equivalent to running setup() again
 * (same image, allocator, emitter, tx and rng state) at the cost of a
 * copy, so many-small-runs callers -- campaign cells, their functional
 * replays, crash scans -- pay the #InitOps fast-forward once per
 * structure instead of once per run. Immutable after capture; one
 * instance may be shared by concurrent readers.
 */
class WorkloadSetup
{
  public:
    /** Construct the workload, run setup(), and keep its state. */
    WorkloadSetup(WorkloadKind kind, const WorkloadParams &params);

    /** True when this state is the setup of exactly (kind, params). */
    bool matches(WorkloadKind kind, const WorkloadParams &params) const
    {
        return kind == kind_ && params == params_;
    }

    /** A fresh instance restored to the post-setup state. */
    std::unique_ptr<Workload> instantiate() const;

  private:
    WorkloadKind kind_;
    WorkloadParams params_;
    std::vector<uint8_t> state_;
};

} // namespace sp

#endif // SP_WORKLOADS_FACTORY_HH
