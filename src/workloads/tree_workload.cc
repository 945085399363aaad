#include "workloads/tree_workload.hh"

#include <algorithm>
#include <iterator>

#include "sim/logging.hh"

namespace sp
{

TreeWorkload::TreeWorkload(const WorkloadParams &params, uint64_t keyRange)
    : Workload(params), keyRange_(keyRange)
{
}

Addr
TreeWorkload::newNode()
{
    Addr addr = alloc_.alloc(kBlockBytes);
    freshNodes_.push_back(addr);
    return addr;
}

bool
TreeWorkload::runTx(const std::function<void()> &body)
{
    // Pass A (shadow): learn the exact touched-block set without mutating
    // anything; the allocator is rewound so pass B allocates identically.
    auto alloc_snapshot = alloc_.save();
    freshNodes_.clear();
    em_.beginShadow();
    body();
    em_.endShadow(shadow_);
    alloc_.restore(alloc_snapshot);

    if (shadow_.writtenBlocks.empty()) {
        // Read-only: no transaction, no barriers; just execute.
        freshNodes_.clear();
        body();
        return false;
    }

    fresh_.assign(freshNodes_.begin(), freshNodes_.end());
    std::sort(fresh_.begin(), fresh_.end());

    // Log set: everything read or written, minus freshly allocated nodes
    // (their pre-state is garbage and undo never needs it) and minus the
    // generation block (logged separately).
    // Both shadow lists come back sorted and duplicate-free.
    logSet_.clear();
    std::set_union(shadow_.readBlocks.begin(), shadow_.readBlocks.end(),
                   shadow_.writtenBlocks.begin(),
                   shadow_.writtenBlocks.end(), std::back_inserter(logSet_));
    std::erase_if(logSet_, [&](Addr a) {
        return std::binary_search(fresh_.begin(), fresh_.end(), a) ||
            a == blockAlign(kGenerationAddr);
    });

    // Pass B (real): the paper's four-step transaction.
    tx_.begin();
    for (Addr blk : logSet_)
        tx_.logRange(blk, kBlockBytes);
    // Fresh nodes need no undo cover, but their CRC slots do.
    for (Addr blk : fresh_)
        tx_.trackRange(blk, kBlockBytes);
    logGeneration();
    tx_.seal();

    freshNodes_.clear();
    body();

    for (Addr blk : shadow_.writtenBlocks) {
        if (blk != blockAlign(kGenerationAddr))
            em_.clwb(blk);
    }
    bumpGeneration();
    tx_.commitUpdates();
    tx_.end();
    return true;
}

void
TreeWorkload::doOperation()
{
    uint64_t key = rng_.nextBounded(keyRange_);
    appWork(1200);
    runTx([&] { performOp(key); });
}

} // namespace sp
