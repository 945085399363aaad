/**
 * @file
 * AT-inc: the AVL tree under the paper's *incremental logging* policy
 * (Section 3.2, Figure 4) -- the design alternative the paper describes
 * and rejects in favour of full logging.
 *
 * Instead of one transaction logging the whole root-to-leaf path, each
 * operation becomes a sequence of small transactions: one for the BST
 * insert/delete itself, then one per tree level whose height update or
 * rotation actually changes anything. Every step pays the full
 * sfence-pcommit-sfence barrier set ("pcommits and sfences are required
 * for each step"), but logs only the one or two nodes the step touches
 * ("only necessary nodes are logged ... if the update doesn't trigger
 * rebalancing, the operation can be performed quickly").
 *
 * The failure-safety consequence the paper calls out also holds here: a
 * crash between steps leaves a valid BST with correct contents at a
 * transaction boundary, but the tree "may be temporarily imbalanced" --
 * so checkImage() verifies order, reachability, and stored-height local
 * consistency rather than the AVL balance factor.
 */

#ifndef SP_WORKLOADS_AVL_TREE_INCREMENTAL_HH
#define SP_WORKLOADS_AVL_TREE_INCREMENTAL_HH

#include "workloads/avl_tree.hh"

namespace sp
{

/** AVL tree with per-step (incremental) write-ahead logging. */
class AvlTreeIncrementalWorkload : public AvlTreeWorkload
{
  public:
    explicit AvlTreeIncrementalWorkload(const WorkloadParams &params,
                                        uint64_t keyRange = 65536);

    const char *name() const override { return "AT-inc"; }

    /** Relaxed structural check (crash may interrupt rebalancing). */
    bool checkImage(const MemImage &img, std::string *why) const override;

    /** Rebalance-step transactions committed (diagnostics / benches). */
    uint64_t rebalanceSteps() const { return rebalanceSteps_; }

    void serialize(SnapshotWriter &ar) override;
    void serialize(SnapshotReader &ar) override;

  protected:
    void doOperation() override;

  private:
    /**
     * A tree position addressed through its parent: the slot holding the
     * subtree-root pointer. Rotations below a link change which node the
     * link targets, so steps always re-read through the link.
     */
    struct Link
    {
        /** Node whose child slot this is; 0 means the root pointer. */
        Addr parent;
        /** Field offset within the parent (kLeft/kRight), or meta slot. */
        unsigned offset;
    };

    uint64_t rebalanceSteps_ = 0;

    Addr readLink(const Link &link);
    void writeLink(const Link &link, Addr value);

    /**
     * Emitting descent to `key`; fills `path` with the links from the
     * root down to the key's position (or its insertion point).
     *
     * @return true if the key is present (the last link targets it).
     */
    bool collectPath(uint64_t key, std::vector<Link> &path);

    /**
     * Step 0: attach a fresh leaf (insert) or remove the node (delete,
     * splicing the successor and extending `path` down to the removed
     * position). No heights are touched -- that's the later steps' job.
     */
    void stepModify(uint64_t key, bool found, std::vector<Link> &path);

    /** One per-level step: recompute height / rotate at `link`. */
    void stepRebalance(const Link &link);

    struct RelaxedResult
    {
        bool ok = true;
        uint64_t count = 0;
        std::string why;
    };
    RelaxedResult relaxedCheck(const MemImage &img, Addr n, bool hasMin,
                               uint64_t minKey, bool hasMax,
                               uint64_t maxKey, unsigned depth) const;
};

} // namespace sp

#endif // SP_WORKLOADS_AVL_TREE_INCREMENTAL_HH
