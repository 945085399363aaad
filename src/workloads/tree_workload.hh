/**
 * @file
 * Base for the self-balancing tree benchmarks (AT, BT, RT) implementing
 * the paper's *full logging* policy (Section 3.2, Figure 5).
 *
 * Full logging conservatively logs, before any modification, every node
 * that rebalancing may need. We obtain that set exactly with a shadow
 * pass: the operation dry-runs against a copy-on-write overlay (no
 * emission, no image mutation), recording every block it reads or writes;
 * the transaction then undo-logs the set and the operation re-executes for
 * real. One transaction -- four pcommits -- per operation, whether or not
 * rebalancing triggers, exactly as the paper argues for full logging.
 *
 * The two passes are needed only where the emitted order matters: an
 * unmuted run with the transaction active must emit the undo log before
 * the updates. Elsewhere the operation runs once. A muted run (setup's
 * #InitOps fast-forward, functional replay) journals instead: the body
 * updates the image while the emitter records the same block set and
 * stashes each written block's pre-image; the log phase then runs with
 * the pre-images swapped back in, so the undo log holds the bytes the
 * two-pass protocol logs. The Base variant has no transaction at all,
 * so nothing consumes the block set and the op stream is the body's own.
 */

#ifndef SP_WORKLOADS_TREE_WORKLOAD_HH
#define SP_WORKLOADS_TREE_WORKLOAD_HH

#include <functional>

#include "workloads/workload.hh"

namespace sp
{

/** Shared full-logging transactional driver for tree benchmarks. */
class TreeWorkload : public Workload
{
  public:
    TreeWorkload(const WorkloadParams &params, uint64_t keyRange);

  protected:
    /**
     * One insert-or-delete operation: search for `key`; delete the node
     * if found, insert it otherwise. May run twice per doOperation() --
     * once in shadow, once for real -- so it must be deterministic and
     * must perform all memory access through the emitter (never through
     * image() directly).
     */
    virtual void performOp(uint64_t key) = 0;

    void doOperation() override;

    /** Allocate a node, remembering it is fresh (excluded from the log). */
    Addr newNode();

    /**
     * Run one full-logging transaction around `body`: learn the
     * touched-block set, undo-log it, apply the body, clwb the written
     * blocks, bump the generation, commit. If the body writes nothing
     * there is no transaction (a read-only step costs no barriers).
     *
     * Unmuted with the transaction active, this is the two-pass
     * protocol: a shadow pass learns the set and the body re-executes
     * after the log is sealed. Muted, the body runs once in a journal
     * pass and the log phase reads the stashed pre-images, which are the
     * bytes the shadow protocol would log. In the Base variant the body
     * runs once, plainly.
     *
     * @return true if the body wrote something (a transaction was
     *         committed unless the variant has none).
     */
    bool runTx(const std::function<void()> &body);

    uint64_t keyRange_;

  private:
    std::vector<Addr> freshNodes_;
    // Per-transaction scratch, reused across operations so the steady
    // state allocates nothing: touched blocks, sorted fresh set, log set.
    OpEmitter::ShadowResult shadow_;
    std::vector<Addr> fresh_;
    std::vector<Addr> logSet_;

    /** runTx for a muted emitter: one journal pass. */
    bool runJournalTx(const std::function<void()> &body);
    /** Derive fresh_ and logSet_ from shadow_ and freshNodes_. */
    void buildLogSet();
    /** Undo-log logSet_ and seal (steps 1 and 2). */
    void logPhase();
    /** clwb the written blocks, bump the generation, commit (3 and 4). */
    void commitPhase();
};

} // namespace sp

#endif // SP_WORKLOADS_TREE_WORKLOAD_HH
