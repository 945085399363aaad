#include "workloads/avl_tree_incremental.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sp
{

AvlTreeIncrementalWorkload::AvlTreeIncrementalWorkload(
    const WorkloadParams &params, uint64_t keyRange)
    : AvlTreeWorkload(params, keyRange)
{
}

Addr
AvlTreeIncrementalWorkload::readLink(const Link &link)
{
    if (link.parent == 0)
        return em_.load(kMeta + 0, 8);
    return field(link.parent, link.offset);
}

void
AvlTreeIncrementalWorkload::writeLink(const Link &link, Addr value)
{
    if (link.parent == 0)
        em_.store(kMeta + 0, value, 8);
    else
        setField(link.parent, link.offset, value);
}

bool
AvlTreeIncrementalWorkload::collectPath(uint64_t key,
                                        std::vector<Link> &path)
{
    path.clear();
    Link link{0, 0};
    path.push_back(link);
    OpEmitter::Handle dep = appDep();
    Addr cur = readLink(link);
    unsigned guard = 0;
    while (cur != 0) {
        OpEmitter::Handle kh = OpEmitter::kNoDep;
        uint64_t nkey = field(cur, kKey, dep, &kh);
        em_.aluChain(4, kh);
        if (nkey == key)
            return true;
        unsigned off = nkey > key ? kLeft : kRight;
        link = Link{cur, off};
        path.push_back(link);
        cur = field(cur, off, kh, &dep);
        SP_ASSERT(++guard < 128, "AVL deeper than 128 levels");
    }
    return false;
}

void
AvlTreeIncrementalWorkload::stepModify(uint64_t key, bool found,
                                       std::vector<Link> &path)
{
    uint64_t size = em_.load(kMeta + 8, 8);
    if (!found) {
        Addr fresh = newNode();
        setField(fresh, kKey, key);
        setField(fresh, kVal, key * 7 + 5);
        setField(fresh, kLeft, 0);
        setField(fresh, kRight, 0);
        setField(fresh, kHeight, 1);
        writeLink(path.back(), fresh);
        em_.store(kMeta + 8, size + 1, 8);
        return;
    }

    // Delete the node the last link targets.
    Addr n = readLink(path.back());
    Addr l = field(n, kLeft);
    Addr r = field(n, kRight);
    if (l == 0 || r == 0) {
        writeLink(path.back(), l != 0 ? l : r);
        alloc_.free(n, kBlockBytes);
    } else {
        // Two children: splice the in-order successor's key/value into n
        // and remove the successor, extending the path down to it so the
        // later rebalance steps cover the changed spine.
        Link link{n, kRight};
        path.push_back(link);
        Addr succ = readLink(link);
        unsigned guard = 0;
        for (;;) {
            Addr left = field(succ, kLeft);
            if (left == 0)
                break;
            link = Link{succ, kLeft};
            path.push_back(link);
            succ = left;
            SP_ASSERT(++guard < 128, "AVL deeper than 128 levels");
        }
        setField(n, kKey, field(succ, kKey));
        setField(n, kVal, field(succ, kVal));
        writeLink(path.back(), field(succ, kRight));
        alloc_.free(succ, kBlockBytes);
    }
    em_.store(kMeta + 8, size - 1, 8);
}

void
AvlTreeIncrementalWorkload::stepRebalance(const Link &link)
{
    Addr n = readLink(link);
    if (n == 0)
        return; // the subtree here vanished (deleted leaf)
    Addr new_root = rebalance(n);
    if (new_root != n)
        writeLink(link, new_root);
}

void
AvlTreeIncrementalWorkload::doOperation()
{
    uint64_t key = rng_.nextBounded(keyRange_);
    appWork(1200);

    // The search is plain execution; transactions begin at the updates.
    std::vector<Link> path;
    bool found = collectPath(key, path);

    // Step 0 (paper Figure 4: "node is logged prior to insertion"): the
    // structural change, one small transaction. The body may run twice
    // (shadow + real, on unmuted logged runs; muted and Base runs take
    // one pass) and the delete case extends the path, so each pass works
    // on a fresh copy; the real (last) pass's extension survives.
    std::vector<Link> extended;
    runTx([&] {
        extended = path;
        stepModify(key, found, extended);
    });
    path = extended;
    if (replayStopRequested())
        return;

    // Escalating rebalance steps, bottom-up: each level whose height or
    // shape actually changes is its own transaction; untouched levels
    // cost nothing (runTx skips the barriers when nothing is written).
    for (size_t i = path.size(); i-- > 0;) {
        if (runTx([&] { stepRebalance(path[i]); }))
            ++rebalanceSteps_;
        if (replayStopRequested())
            return;
    }
}

AvlTreeIncrementalWorkload::RelaxedResult
AvlTreeIncrementalWorkload::relaxedCheck(const MemImage &img, Addr n,
                                         bool hasMin, uint64_t minKey,
                                         bool hasMax, uint64_t maxKey,
                                         unsigned depth) const
{
    RelaxedResult res;
    if (n == 0)
        return res;
    if (depth > 128) {
        res.ok = false;
        res.why = "depth exceeds 128 (cycle?)";
        return res;
    }
    if (n < kHeapBase || blockOffset(n) != 0) {
        res.ok = false;
        res.why = "node outside the heap or misaligned";
        return res;
    }
    uint64_t key = img.readInt(n + kKey, 8);
    if ((hasMin && key <= minKey) || (hasMax && key >= maxKey)) {
        res.ok = false;
        res.why = "BST order violated";
        return res;
    }
    uint64_t h = img.readInt(n + kHeight, 8);
    if (h == 0 || h > 128) {
        res.ok = false;
        res.why = "stored height out of range";
        return res;
    }
    RelaxedResult l = relaxedCheck(img, img.readInt(n + kLeft, 8), hasMin,
                                   minKey, true, key, depth + 1);
    if (!l.ok)
        return l;
    RelaxedResult r = relaxedCheck(img, img.readInt(n + kRight, 8), true,
                                   key, hasMax, maxKey, depth + 1);
    if (!r.ok)
        return r;
    res.count = 1 + l.count + r.count;
    return res;
}

bool
AvlTreeIncrementalWorkload::checkImage(const MemImage &img,
                                       std::string *why) const
{
    Addr root = img.readInt(kMeta + 0, 8);
    uint64_t size = img.readInt(kMeta + 8, 8);
    RelaxedResult res = relaxedCheck(img, root, false, 0, false, 0, 0);
    if (!res.ok) {
        if (why)
            *why = "AT-inc: " + res.why;
        return false;
    }
    if (res.count != size) {
        if (why)
            *why = "AT-inc: stored size disagrees with node count";
        return false;
    }
    return true;
}

void
AvlTreeIncrementalWorkload::saveExtra(SnapshotWriter &w) const
{
    w.putPod(rebalanceSteps_);
}

void
AvlTreeIncrementalWorkload::restoreExtra(SnapshotReader &r)
{
    r.getPod(rebalanceSteps_);
}

} // namespace sp
