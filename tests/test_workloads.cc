/**
 * @file
 * Workload functional-correctness tests: each benchmark's data structure
 * is checked against an independent reference model driven by the same
 * deterministic operation stream, and its invariant checker is exercised
 * at many points.
 */

#include <gtest/gtest.h>

#include <map>

#include "sim/rng.hh"
#include "workloads/avl_tree.hh"
#include "workloads/btree.hh"
#include "workloads/factory.hh"
#include "workloads/graph.hh"
#include "workloads/hash_map.hh"
#include "workloads/linked_list.hh"
#include "workloads/rb_tree.hh"
#include "workloads/string_swap.hh"

using namespace sp;

namespace
{

WorkloadParams
smallParams(uint64_t initOps, uint64_t simOps, uint64_t seed = 42)
{
    WorkloadParams p;
    p.seed = seed;
    p.initOps = initOps;
    p.simOps = simOps;
    p.mode = PersistMode::kLogPSf;
    return p;
}

/** Reference for the keyed insert-if-absent / delete-if-present ops. */
std::map<uint64_t, uint64_t>
keyedReference(uint64_t seed, uint64_t ops, uint64_t range,
               uint64_t value_mul, uint64_t value_add, uint64_t cap = 0)
{
    Rng rng(seed);
    std::map<uint64_t, uint64_t> ref;
    for (uint64_t i = 0; i < ops; ++i) {
        uint64_t key = rng.nextBounded(range);
        auto it = ref.find(key);
        if (it != ref.end())
            ref.erase(it);
        else if (cap == 0 || ref.size() < cap)
            ref.emplace(key, key * value_mul + value_add);
    }
    return ref;
}

std::vector<std::pair<uint64_t, uint64_t>>
toVector(const std::map<uint64_t, uint64_t> &m)
{
    return {m.begin(), m.end()};
}

} // namespace

// --- Linked list -------------------------------------------------------------

TEST(WorkloadLL, MatchesReferenceModel)
{
    WorkloadParams p = smallParams(0, 0, 7);
    LinkedListWorkload ll(p, /*maxNodes=*/64, /*keyRange=*/128);
    ll.setup();
    ll.runFunctional(600);
    auto ref = keyedReference(7, 600, 128, 2, 1, 64);
    EXPECT_EQ(ll.contents(ll.image()), toVector(ref));
    std::string why;
    EXPECT_TRUE(ll.checkImage(ll.image(), &why)) << why;
}

TEST(WorkloadLL, RespectsNodeCap)
{
    WorkloadParams p = smallParams(0, 0, 3);
    LinkedListWorkload ll(p, 16, 4096); // almost every op inserts
    ll.setup();
    ll.runFunctional(300);
    EXPECT_LE(ll.contents(ll.image()).size(), 16u);
    std::string why;
    EXPECT_TRUE(ll.checkImage(ll.image(), &why)) << why;
}

TEST(WorkloadLL, CheckerCatchesCorruption)
{
    WorkloadParams p = smallParams(50, 0);
    LinkedListWorkload ll(p, 64, 128);
    ll.setup();
    MemImage img = ll.image();
    // Corrupt the size field.
    img.writeInt(kWorkloadMetaBase + 8, 9999, 8);
    EXPECT_FALSE(ll.checkImage(img, nullptr));
}

// --- Hash map ----------------------------------------------------------------

TEST(WorkloadHM, MatchesReferenceModel)
{
    WorkloadParams p = smallParams(0, 0, 11);
    HashMapWorkload hm(p, 64, 512);
    hm.setup();
    hm.runFunctional(800);
    auto ref = keyedReference(11, 800, 512, 3, 7);
    EXPECT_EQ(hm.contents(hm.image()), toVector(ref));
    std::string why;
    EXPECT_TRUE(hm.checkImage(hm.image(), &why)) << why;
}

TEST(WorkloadHM, ResizesUnderLoad)
{
    WorkloadParams p = smallParams(0, 0, 13);
    HashMapWorkload hm(p, 16, 4096); // mostly inserts -> must grow
    hm.setup();
    hm.runFunctional(400);
    EXPECT_GT(hm.resizes(), 0u);
    std::string why;
    EXPECT_TRUE(hm.checkImage(hm.image(), &why)) << why;
    auto ref = keyedReference(13, 400, 4096, 3, 7);
    EXPECT_EQ(hm.contents(hm.image()), toVector(ref));
}

TEST(WorkloadHM, CheckerCatchesUnreachableEntry)
{
    WorkloadParams p = smallParams(100, 0, 5);
    HashMapWorkload hm(p, 64, 256);
    hm.setup();
    MemImage img = hm.image();
    // Plant a full entry in some slot without fixing counts.
    Addr table = img.readInt(kWorkloadMetaBase + 0, 8);
    uint64_t cap = img.readInt(kWorkloadMetaBase + 8, 8);
    for (uint64_t i = 0; i < cap; ++i) {
        Addr slot = table + i * kBlockBytes;
        if (img.readInt(slot, 8) == 0) {
            img.writeInt(slot, 1, 8);
            img.writeInt(slot + 8, 77, 8);
            break;
        }
    }
    EXPECT_FALSE(hm.checkImage(img, nullptr));
}

// --- Graph --------------------------------------------------------------------

TEST(WorkloadGH, MatchesReferenceModel)
{
    WorkloadParams p = smallParams(0, 0, 17);
    GraphWorkload gh(p, 64, 8);
    gh.setup();
    gh.runFunctional(500);

    // Independent reference.
    Rng rng(17);
    std::map<uint64_t, uint64_t> ref; // src*64+dst -> weight
    for (int i = 0; i < 500; ++i) {
        uint64_t src = rng.nextBounded(64);
        uint64_t dst = (src + 1 + rng.nextBounded(8)) % 64;
        uint64_t code = src * 64 + dst;
        auto it = ref.find(code);
        if (it != ref.end())
            ref.erase(it);
        else
            ref.emplace(code, dst * 5 + 3);
    }
    EXPECT_EQ(gh.contents(gh.image()), toVector(ref));
    std::string why;
    EXPECT_TRUE(gh.checkImage(gh.image(), &why)) << why;
}

TEST(WorkloadGH, CheckerCatchesBadDegree)
{
    WorkloadParams p = smallParams(100, 0, 19);
    GraphWorkload gh(p, 64, 8);
    gh.setup();
    MemImage img = gh.image();
    Addr table = img.readInt(kWorkloadMetaBase + 0, 8);
    img.writeInt(table + 8, 42, 8); // vertex 0 degree
    EXPECT_FALSE(gh.checkImage(img, nullptr));
}

// --- String swap ---------------------------------------------------------------

TEST(WorkloadSS, SwapsPreserveMultiset)
{
    WorkloadParams p = smallParams(0, 0, 23);
    StringSwapWorkload ss(p, 64);
    ss.setup();
    std::string why;
    EXPECT_TRUE(ss.checkImage(ss.image(), &why)) << why;
    ss.runFunctional(300);
    EXPECT_TRUE(ss.checkImage(ss.image(), &why)) << why;
}

TEST(WorkloadSS, SwapsActuallyMoveStrings)
{
    WorkloadParams p = smallParams(0, 0, 29);
    StringSwapWorkload ss(p, 64);
    ss.setup();
    auto before = ss.contents(ss.image());
    ss.runFunctional(50);
    auto after = ss.contents(ss.image());
    EXPECT_NE(before, after);
}

TEST(WorkloadSS, CheckerCatchesTornString)
{
    WorkloadParams p = smallParams(10, 0, 31);
    StringSwapWorkload ss(p, 64);
    ss.setup();
    MemImage img = ss.image();
    Addr array = img.readInt(kWorkloadMetaBase + 0, 8);
    img.writeInt(array + 8, 0xdead, 8); // corrupt one word of string 0
    EXPECT_FALSE(ss.checkImage(img, nullptr));
}

TEST(WorkloadSS, CheckerRejectsDuplicateAndForeignStrings)
{
    // The checker compares the multiset of string hashes, so a string
    // that appears twice (its slot-mate lost) and a string that was
    // never one of the initial ones must each be rejected.
    WorkloadParams p = smallParams(10, 0, 37);
    StringSwapWorkload ss(p, 64);
    ss.setup();
    ss.runFunctional(20);
    const unsigned bytes = StringSwapWorkload::kStringBytes;
    Addr array = ss.image().readInt(kWorkloadMetaBase + 0, 8);
    std::string why;
    ASSERT_TRUE(ss.checkImage(ss.image(), &why)) << why;

    MemImage dup = ss.image();
    for (unsigned off = 0; off < bytes; off += 8)
        dup.writeInt(array + bytes + off, dup.readInt(array + off, 8), 8);
    EXPECT_FALSE(ss.checkImage(dup, &why));
    EXPECT_EQ(why, "SS: string contents are not a permutation of the "
                   "initial strings");

    MemImage foreign = ss.image();
    for (unsigned off = 0; off < bytes; off += 8)
        foreign.writeInt(array + 3 * bytes + off, 0x5a5a5a5a00 + off, 8);
    why.clear();
    EXPECT_FALSE(ss.checkImage(foreign, &why));
    EXPECT_EQ(why, "SS: string contents are not a permutation of the "
                   "initial strings");
}

// --- Trees (shared shape) -------------------------------------------------------

namespace
{

template <typename T>
void
treeMatchesReference(uint64_t mul, uint64_t add)
{
    WorkloadParams p = smallParams(0, 0, 37);
    T tree(p, /*keyRange=*/512);
    tree.setup();
    tree.runFunctional(1000);
    auto ref = keyedReference(37, 1000, 512, mul, add);
    EXPECT_EQ(tree.contents(tree.image()), toVector(ref));
    std::string why;
    EXPECT_TRUE(tree.checkImage(tree.image(), &why)) << why;
}

template <typename T>
void
treeInvariantsHoldThroughout(uint64_t seed)
{
    WorkloadParams p = smallParams(0, 0, seed);
    T tree(p, 256);
    tree.setup();
    std::string why;
    for (int round = 0; round < 40; ++round) {
        tree.runFunctional(25);
        ASSERT_TRUE(tree.checkImage(tree.image(), &why))
            << "round " << round << ": " << why;
    }
}

template <typename T>
void
treeDrainsToEmpty(uint64_t seed)
{
    // With a tiny key range, keys toggle in/out; eventually hitting all
    // delete paths (root collapse, merges, rotations).
    WorkloadParams p = smallParams(0, 0, seed);
    T tree(p, 8);
    tree.setup();
    std::string why;
    for (int round = 0; round < 100; ++round) {
        tree.runFunctional(7);
        ASSERT_TRUE(tree.checkImage(tree.image(), &why))
            << "round " << round << ": " << why;
    }
}

} // namespace

TEST(WorkloadAT, MatchesReferenceModel)
{
    treeMatchesReference<AvlTreeWorkload>(7, 5);
}

TEST(WorkloadAT, InvariantsHoldThroughout)
{
    treeInvariantsHoldThroughout<AvlTreeWorkload>(101);
}

TEST(WorkloadAT, SmallKeyRangeChurn)
{
    treeDrainsToEmpty<AvlTreeWorkload>(103);
}

TEST(WorkloadBT, MatchesReferenceModel)
{
    treeMatchesReference<BTreeWorkload>(11, 3);
}

TEST(WorkloadBT, InvariantsHoldThroughout)
{
    treeInvariantsHoldThroughout<BTreeWorkload>(107);
}

TEST(WorkloadBT, SmallKeyRangeChurn)
{
    treeDrainsToEmpty<BTreeWorkload>(109);
}

TEST(WorkloadRT, MatchesReferenceModel)
{
    treeMatchesReference<RbTreeWorkload>(13, 9);
}

TEST(WorkloadRT, InvariantsHoldThroughout)
{
    treeInvariantsHoldThroughout<RbTreeWorkload>(113);
}

TEST(WorkloadRT, SmallKeyRangeChurn)
{
    treeDrainsToEmpty<RbTreeWorkload>(127);
}

// --- Cross-cutting (all seven kinds) ---------------------------------------------

class AllWorkloads : public ::testing::TestWithParam<WorkloadKind>
{
};

TEST_P(AllWorkloads, SetupProducesValidStructure)
{
    WorkloadParams p = smallParams(300, 0);
    auto w = makeWorkload(GetParam(), p);
    w->setup();
    std::string why;
    EXPECT_TRUE(w->checkImage(w->image(), &why)) << why;
}

TEST_P(AllWorkloads, FunctionalRunsAreDeterministic)
{
    WorkloadParams p = smallParams(100, 0, 555);
    auto a = makeWorkload(GetParam(), p);
    auto b = makeWorkload(GetParam(), p);
    a->setup();
    b->setup();
    a->runFunctional(200);
    b->runFunctional(200);
    EXPECT_EQ(a->contents(a->image()), b->contents(b->image()));
    EXPECT_EQ(Workload::generation(a->image()),
              Workload::generation(b->image()));
}

TEST_P(AllWorkloads, GenerationCountsTransactions)
{
    WorkloadParams p = smallParams(0, 0);
    auto w = makeWorkload(GetParam(), p);
    w->setup();
    EXPECT_EQ(Workload::generation(w->image()), 0u);
    w->runFunctional(50);
    uint64_t gen = Workload::generation(w->image());
    EXPECT_GT(gen, 0u);
    EXPECT_LE(gen, 51u); // an op may resize (extra gen-free tx) or no-op
}

TEST_P(AllWorkloads, ReplayToGenerationLandsExactly)
{
    WorkloadParams p = smallParams(100, 0, 777);
    auto a = makeWorkload(GetParam(), p);
    a->setup();
    a->runFunctional(137);
    uint64_t gen = Workload::generation(a->image());

    auto b = makeWorkload(GetParam(), p);
    b->setup();
    b->runFunctionalToGeneration(gen);
    EXPECT_EQ(a->contents(a->image()), b->contents(b->image()));
}

TEST_P(AllWorkloads, PaperScaleParamsArePaperScale)
{
    WorkloadParams p = paperScaleParams(GetParam());
    // Table 1 values.
    switch (GetParam()) {
      case WorkloadKind::kLinkedList:
        EXPECT_EQ(p.initOps, 500u);
        EXPECT_EQ(p.simOps, 50000u);
        break;
      case WorkloadKind::kStringSwap:
        EXPECT_EQ(p.initOps, 120000u);
        EXPECT_EQ(p.simOps, 500000u);
        break;
      case WorkloadKind::kGraph:
        EXPECT_EQ(p.initOps, 2600000u);
        EXPECT_EQ(p.simOps, 100000u);
        break;
      case WorkloadKind::kHashMap:
        EXPECT_EQ(p.initOps, 1500000u);
        EXPECT_EQ(p.simOps, 100000u);
        break;
      default:
        EXPECT_GE(p.initOps, 1000000u);
        EXPECT_EQ(p.simOps, 50000u);
        break;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Table1, AllWorkloads, ::testing::ValuesIn(allWorkloadKinds()),
    [](const ::testing::TestParamInfo<WorkloadKind> &info) {
        return workloadKindName(info.param);
    });
