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
    freshNodes_.clear();
    if (em_.mode() < PersistMode::kLog) {
        // No transaction: nothing consumes the touched set, and a shadow
        // pass emits nothing, so one pass yields the same op stream.
        uint64_t stores = em_.stores();
        body();
        return em_.stores() != stores;
    }
    if (em_.muted())
        return runJournalTx(body);

    // Pass A (shadow): learn the exact touched-block set without mutating
    // anything; the allocator is rewound so pass B allocates identically.
    auto alloc_snapshot = alloc_.save();
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

    buildLogSet();
    logPhase();
    // Pass B (real).
    freshNodes_.clear();
    body();
    commitPhase();
    return true;
}

bool
TreeWorkload::runJournalTx(const std::function<void()> &body)
{
    // One pass: the body runs for real while the emitter journals the
    // touched blocks and stashes their pre-images.
    em_.beginJournal();
    body();
    em_.endJournal(shadow_);
    if (shadow_.writtenBlocks.empty())
        return false;

    buildLogSet();
    // The log phase reads the logged blocks and writes only the undo log
    // and the generation block; the body touched neither, so running it
    // over the pre-images logs the bytes the two-pass protocol logs.
    auto outside_log = [](Addr blk) {
        return (blk < kLogBase || blk >= kLogBase + kLogBytes) &&
            blk != blockAlign(kGenerationAddr);
    };
    SP_ASSERT(std::all_of(shadow_.touchedBlocks.begin(),
                          shadow_.touchedBlocks.end(), outside_log),
              "journalled transaction touched the undo log or the "
              "generation block");
    em_.exchangeJournal();
    logPhase();
    em_.exchangeJournal();
    commitPhase();
    return true;
}

void
TreeWorkload::buildLogSet()
{
    fresh_.assign(freshNodes_.begin(), freshNodes_.end());
    std::sort(fresh_.begin(), fresh_.end());

    // Log set: everything read or written (sorted, duplicate-free),
    // minus freshly allocated nodes (their pre-state is garbage and undo
    // never needs it) and minus the generation block (logged
    // separately).
    logSet_.clear();
    std::copy_if(shadow_.touchedBlocks.begin(), shadow_.touchedBlocks.end(),
                 std::back_inserter(logSet_), [&](Addr a) {
                     return !std::binary_search(fresh_.begin(), fresh_.end(),
                                                a) &&
                         a != blockAlign(kGenerationAddr);
                 });
}

void
TreeWorkload::logPhase()
{
    // Steps 1 and 2 of the paper's four-step transaction.
    tx_.begin();
    for (Addr blk : logSet_)
        tx_.logRange(blk, kBlockBytes);
    // Fresh nodes need no undo cover, but their CRC slots do.
    for (Addr blk : fresh_)
        tx_.trackRange(blk, kBlockBytes);
    logGeneration();
    tx_.seal();
}

void
TreeWorkload::commitPhase()
{
    // Steps 3 and 4, after the body's updates.
    for (Addr blk : shadow_.writtenBlocks) {
        if (blk != blockAlign(kGenerationAddr))
            em_.clwb(blk);
    }
    bumpGeneration();
    tx_.commitUpdates();
    tx_.end();
}

void
TreeWorkload::doOperation()
{
    uint64_t key = rng_.nextBounded(keyRange_);
    appWork(1200);
    runTx([&] { performOp(key); });
}

} // namespace sp
