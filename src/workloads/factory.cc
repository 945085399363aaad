#include "workloads/factory.hh"

#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "workloads/avl_tree.hh"
#include "workloads/avl_tree_incremental.hh"
#include "workloads/btree.hh"
#include "workloads/graph.hh"
#include "workloads/hash_map.hh"
#include "workloads/linked_list.hh"
#include "workloads/rb_tree.hh"
#include "workloads/string_swap.hh"

namespace sp
{

const std::vector<WorkloadKind> &
allWorkloadKinds()
{
    static const std::vector<WorkloadKind> kinds = {
        WorkloadKind::kGraph,      WorkloadKind::kHashMap,
        WorkloadKind::kLinkedList, WorkloadKind::kStringSwap,
        WorkloadKind::kAvlTree,    WorkloadKind::kBTree,
        WorkloadKind::kRbTree,
    };
    return kinds;
}

const char *
workloadKindName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::kGraph:
        return "GH";
      case WorkloadKind::kHashMap:
        return "HM";
      case WorkloadKind::kLinkedList:
        return "LL";
      case WorkloadKind::kStringSwap:
        return "SS";
      case WorkloadKind::kAvlTree:
        return "AT";
      case WorkloadKind::kBTree:
        return "BT";
      case WorkloadKind::kRbTree:
        return "RT";
      case WorkloadKind::kAvlTreeIncremental:
        return "AT-inc";
    }
    return "?";
}

WorkloadParams
paperScaleParams(WorkloadKind kind)
{
    WorkloadParams p;
    switch (kind) {
      case WorkloadKind::kGraph:
        p.initOps = 2600000;
        p.simOps = 100000;
        break;
      case WorkloadKind::kHashMap:
        p.initOps = 1500000;
        p.simOps = 100000;
        break;
      case WorkloadKind::kLinkedList:
        p.initOps = 500;
        p.simOps = 50000;
        break;
      case WorkloadKind::kStringSwap:
        p.initOps = 120000;
        p.simOps = 500000;
        break;
      case WorkloadKind::kAvlTree:
      case WorkloadKind::kAvlTreeIncremental:
        p.initOps = 1000000;
        p.simOps = 50000;
        break;
      case WorkloadKind::kBTree:
        p.initOps = 1000000;
        p.simOps = 50000;
        break;
      case WorkloadKind::kRbTree:
        p.initOps = 1500000;
        p.simOps = 50000;
        break;
    }
    return p;
}

WorkloadParams
defaultParams(WorkloadKind kind, double scale)
{
    WorkloadParams p;
    // Ratios mirror Table 1 (GH/HM measure 2x the tree op counts, SS 10x)
    // at a size that runs in seconds; SP_OPS/SP_INIT env vars and the
    // scale knob reach paper-scale counts.
    switch (kind) {
      case WorkloadKind::kGraph:
        p.initOps = 80000;
        p.simOps = 1000;
        break;
      case WorkloadKind::kHashMap:
        p.initOps = 100000;
        p.simOps = 1000;
        break;
      case WorkloadKind::kLinkedList:
        p.initOps = 3000; // saturates the 1024-node cap (paper: Max 1024)
        p.simOps = 800;
        break;
      case WorkloadKind::kStringSwap:
        p.initOps = 2000;
        p.simOps = 1500;
        break;
      case WorkloadKind::kAvlTree:
      case WorkloadKind::kAvlTreeIncremental:
        p.initOps = 60000;
        p.simOps = 500;
        break;
      case WorkloadKind::kBTree:
        p.initOps = 60000;
        p.simOps = 500;
        break;
      case WorkloadKind::kRbTree:
        p.initOps = 60000;
        p.simOps = 500;
        break;
    }
    if (scale != 1.0) {
        p.initOps = static_cast<uint64_t>(p.initOps * scale);
        p.simOps = static_cast<uint64_t>(p.simOps * scale);
        if (p.simOps == 0)
            p.simOps = 1;
    }
    return p;
}

std::unique_ptr<Workload>
makeWorkload(WorkloadKind kind, const WorkloadParams &params)
{
    switch (kind) {
      case WorkloadKind::kGraph:
        return std::make_unique<GraphWorkload>(params);
      case WorkloadKind::kHashMap:
        return std::make_unique<HashMapWorkload>(params);
      case WorkloadKind::kLinkedList:
        return std::make_unique<LinkedListWorkload>(params);
      case WorkloadKind::kStringSwap:
        return std::make_unique<StringSwapWorkload>(params);
      case WorkloadKind::kAvlTree:
        return std::make_unique<AvlTreeWorkload>(params);
      case WorkloadKind::kBTree:
        return std::make_unique<BTreeWorkload>(params);
      case WorkloadKind::kRbTree:
        return std::make_unique<RbTreeWorkload>(params);
      case WorkloadKind::kAvlTreeIncremental:
        return std::make_unique<AvlTreeIncrementalWorkload>(params);
    }
    SP_PANIC("unknown workload kind");
}

WorkloadSetup::WorkloadSetup(WorkloadKind kind, const WorkloadParams &params)
    : kind_(kind), params_(params)
{
    std::unique_ptr<Workload> w = makeWorkload(kind_, params_);
    w->setup();
    SnapshotWriter sw;
    w->serialize(sw);
    state_ = sw.take();
}

std::unique_ptr<Workload>
WorkloadSetup::instantiate() const
{
    std::unique_ptr<Workload> w = makeWorkload(kind_, params_);
    SnapshotReader r(state_);
    w->serialize(r);
    SP_ASSERT(r.exhausted(), "workload setup state has trailing bytes");
    return w;
}

} // namespace sp
