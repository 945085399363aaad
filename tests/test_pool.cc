/**
 * @file
 * Unit tests for the steady-state allocation machinery (sim/pool.hh):
 * RingDeque FIFO semantics across wrap-around and growth, FixedPool
 * generation-checked handles and O(1) reset, VecPool / ByteArena
 * capacity recycling, BinaryHeap ordering, and -- under ASan builds --
 * the reuse-poisoning contract that catches raw-pointer use after free
 * even when the handle discipline is bypassed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/pool.hh"

namespace
{

using namespace sp;

// --------------------------------------------------------------------------
// RingDeque
// --------------------------------------------------------------------------

TEST(RingDeque, FifoOrderAcrossWrapAround)
{
    RingDeque<int> q;
    q.reserve(16);
    // Slide a FIFO window far past the capacity so head wraps many times.
    int next = 0, expect = 0;
    for (int i = 0; i < 12; ++i)
        q.push_back(next++);
    for (int round = 0; round < 100; ++round) {
        for (int i = 0; i < 7; ++i) {
            ASSERT_EQ(q.front(), expect++);
            q.pop_front();
        }
        for (int i = 0; i < 7; ++i)
            q.push_back(next++);
        ASSERT_EQ(q.size(), 12u);
    }
    EXPECT_EQ(q.capacity(), 16u) << "window of 12 must never grow a "
                                    "16-slot ring";
}

TEST(RingDeque, GrowthPreservesOrderAndContents)
{
    RingDeque<int> q; // default capacity, forced to grow repeatedly
    for (int i = 0; i < 10; ++i)
        q.push_back(i);
    for (int i = 0; i < 5; ++i)
        q.pop_front(); // displace head so growth must un-wrap
    for (int i = 10; i < 300; ++i)
        q.push_back(i);
    ASSERT_EQ(q.size(), 295u);
    for (size_t i = 0; i < q.size(); ++i)
        ASSERT_EQ(q[i], static_cast<int>(i) + 5);
    EXPECT_EQ(q.front(), 5);
    EXPECT_EQ(q.back(), 299);
}

TEST(RingDeque, IterationAndPopFrontN)
{
    RingDeque<int> q;
    for (int i = 0; i < 20; ++i)
        q.push_back(i);
    q.popFront(8);
    int expect = 8;
    for (int v : q)
        ASSERT_EQ(v, expect++);
    EXPECT_EQ(expect, 20);
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_GE(q.capacity(), 20u) << "clear() must keep the slab";
}

TEST(RingDeque, PoppedSlotsRecycleElementCapacity)
{
    // The property the simulator's queues depend on: a popped slot stays
    // constructed, so when the FIFO window wraps back around to it,
    // copy-assigning the new element reuses the old element's heap
    // buffer instead of freeing it.
    RingDeque<std::vector<int>> q;
    q.reserve(4); // rounds up to the 16-slot minimum
    std::vector<int> big(100, 7);
    q.push_back(big);
    q.pop_front();
    std::vector<int> small(3, 1);
    for (size_t i = 0; i + 1 < q.capacity(); ++i) {
        q.push_back(small);
        q.pop_front();
    }
    q.push_back(small); // ring wraps: lands on the slot `big` vacated
    EXPECT_GE(q[0].capacity(), 100u)
        << "slot assignment must reuse the previous element's buffer";
}

TEST(RingDeque, HighWaterAndStat)
{
    RingDeque<int> q;
    for (int i = 0; i < 33; ++i)
        q.push_back(i);
    while (!q.empty())
        q.pop_front();
    PoolStat s = q.stat("test.q");
    EXPECT_EQ(s.name, "test.q");
    EXPECT_EQ(s.highWater, 33u);
    EXPECT_GE(s.capacity, 33u);
}

TEST(RingDeque, EmplaceBackFillsTheSlotAndPopBackRetractsIt)
{
    RingDeque<int> q;
    for (int i = 0; i < 5; ++i)
        q.push_back(i);
    q.pop_front(); // 4 left, high water 5
    q.emplace_back() = 10;
    ASSERT_EQ(q.size(), 5u);
    EXPECT_EQ(q.back(), 10);
    EXPECT_EQ(q[0], 1);

    // A retracted slot was never an element: it does not count toward
    // the high-water mark, and the next append reuses it.
    q.emplace_back() = 11;
    q.pop_back();
    EXPECT_EQ(q.size(), 5u);
    EXPECT_EQ(q.back(), 10);
    EXPECT_EQ(q.highWater(), 5u);
    q.push_back(12);
    EXPECT_EQ(q.back(), 12);
    EXPECT_EQ(q.highWater(), 6u);
}

// --------------------------------------------------------------------------
// FixedPool
// --------------------------------------------------------------------------

struct Payload
{
    uint64_t a;
    uint64_t b;
};

TEST(FixedPool, AllocGetFreeRoundTrip)
{
    FixedPool<Payload> pool(4); // tiny slabs to force slab growth
    std::vector<FixedPool<Payload>::Handle> handles;
    for (uint64_t i = 0; i < 10; ++i) {
        auto h = pool.alloc();
        pool.get(h) = {i, i * 2};
        handles.push_back(h);
    }
    EXPECT_EQ(pool.liveCount(), 10u);
    EXPECT_GE(pool.capacity(), 10u);
    for (uint64_t i = 0; i < 10; ++i) {
        EXPECT_EQ(pool.get(handles[i]).a, i);
        EXPECT_EQ(pool.get(handles[i]).b, i * 2);
    }
    for (auto h : handles)
        pool.free(h);
    EXPECT_EQ(pool.liveCount(), 0u);
    EXPECT_EQ(pool.highWater(), 10u);
}

TEST(FixedPool, FreeInvalidatesHandleGenerationally)
{
    FixedPool<Payload> pool;
    auto h = pool.alloc();
    pool.free(h);
    EXPECT_FALSE(pool.valid(h));
    // The freed slot is recycled, but under a new generation: the old
    // handle stays dead even though the storage is live again.
    auto h2 = pool.alloc();
    EXPECT_EQ(h2.idx, h.idx);
    EXPECT_NE(h2.gen, h.gen);
    EXPECT_FALSE(pool.valid(h));
    EXPECT_TRUE(pool.valid(h2));
}

TEST(FixedPool, ResetInvalidatesAllHandlesInO1)
{
    FixedPool<Payload> pool(8);
    std::vector<FixedPool<Payload>::Handle> handles;
    for (int i = 0; i < 20; ++i)
        handles.push_back(pool.alloc());
    size_t capBefore = pool.capacity();
    pool.reset();
    EXPECT_EQ(pool.liveCount(), 0u);
    EXPECT_EQ(pool.capacity(), capBefore) << "reset must keep slabs";
    for (auto h : handles)
        EXPECT_FALSE(pool.valid(h));
    // Slots come back under the new epoch and only new handles work.
    auto h = pool.alloc();
    EXPECT_TRUE(pool.valid(h));
    EXPECT_EQ(pool.liveCount(), 1u);
}

TEST(FixedPool, StaleHandleGetDiesLoudly)
{
    FixedPool<Payload> pool;
    auto h = pool.alloc();
    pool.free(h);
    EXPECT_DEATH((void)pool.get(h), "stale FixedPool handle");
}

TEST(FixedPool, SteadyStateChurnAllocatesNoNewSlabs)
{
    FixedPool<Payload> pool(16);
    // Warm to the high-water mark, then churn alloc/free far past it.
    std::vector<FixedPool<Payload>::Handle> handles;
    for (int i = 0; i < 16; ++i)
        handles.push_back(pool.alloc());
    size_t capWarm = pool.capacity();
    for (int round = 0; round < 1000; ++round) {
        pool.free(handles.back());
        handles.pop_back();
        handles.push_back(pool.alloc());
    }
    EXPECT_EQ(pool.capacity(), capWarm);
    EXPECT_EQ(pool.highWater(), 16u);
}

#ifdef SP_POOL_ASAN
TEST(FixedPool, AsanCatchesRawPointerUseAfterFree)
{
    FixedPool<Payload> pool;
    auto h = pool.alloc();
    Payload *raw = &pool.get(h);
    raw->a = 1;
    pool.free(h);
    // The handle discipline is bypassed on purpose: the slot is poisoned,
    // so the physical read must trip ASan even without get()'s check.
    EXPECT_DEATH({ volatile uint64_t v = raw->a; (void)v; },
                 "use-after-poison");
}
#endif

// --------------------------------------------------------------------------
// VecPool
// --------------------------------------------------------------------------

TEST(VecPool, RecyclesCapacityAcrossTakeGive)
{
    VecPool<uint64_t> pool;
    std::vector<uint64_t> v = pool.take();
    v.reserve(128);
    v.push_back(42);
    pool.give(std::move(v));
    std::vector<uint64_t> w = pool.take();
    EXPECT_TRUE(w.empty()) << "take() must hand out a cleared vector";
    EXPECT_GE(w.capacity(), 128u) << "capacity must survive the pool";
    EXPECT_EQ(pool.pooled(), 0u);
}

TEST(VecPool, BoundedRetention)
{
    VecPool<int> pool(2);
    for (int i = 0; i < 5; ++i)
        pool.give(std::vector<int>(8));
    EXPECT_EQ(pool.pooled(), 2u) << "give past maxPooled must drop";
    EXPECT_EQ(pool.stat("p").highWater, 2u);
}

// --------------------------------------------------------------------------
// ByteArena
// --------------------------------------------------------------------------

TEST(ByteArena, AlignedAllocationAndStore)
{
    ByteArena arena(256);
    for (int i = 1; i <= 64; ++i) {
        void *p = arena.alloc(static_cast<size_t>(i));
        EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 8, 0u);
    }
    const char msg[] = "persist";
    void *copy = arena.store(msg, sizeof(msg));
    EXPECT_EQ(std::memcmp(copy, msg, sizeof(msg)), 0);
}

TEST(ByteArena, ResetRetainsChunksForSteadyState)
{
    ByteArena arena(1024);
    auto fill = [&] {
        for (int i = 0; i < 100; ++i)
            arena.alloc(64);
    };
    fill();
    size_t capWarm = arena.capacity();
    EXPECT_GT(capWarm, 0u);
    for (int round = 0; round < 50; ++round) {
        arena.reset();
        EXPECT_EQ(arena.bytesUsed(), 0u);
        fill();
    }
    EXPECT_EQ(arena.capacity(), capWarm)
        << "a warmed arena must not grow on repeat of the same load";
}

TEST(ByteArena, OversizedRequestGetsDedicatedChunk)
{
    ByteArena arena(64);
    void *big = arena.alloc(1000);
    ASSERT_NE(big, nullptr);
    std::memset(big, 0xab, 1000);
    EXPECT_GE(arena.capacity(), 1000u);
}

// --------------------------------------------------------------------------
// BinaryHeap
// --------------------------------------------------------------------------

TEST(BinaryHeap, PopsInSortedOrder)
{
    BinaryHeap<int> heap;
    const int values[] = {9, 3, 7, 1, 8, 2, 2, 6, 0, 5};
    for (int v : values)
        heap.push(v);
    std::vector<int> sorted(std::begin(values), std::end(values));
    std::sort(sorted.begin(), sorted.end());
    for (int expect : sorted) {
        ASSERT_EQ(heap.top(), expect);
        heap.pop();
    }
    EXPECT_TRUE(heap.empty());
    EXPECT_EQ(heap.stat("h").highWater, 10u);
}

TEST(BinaryHeap, ClearKeepsCapacity)
{
    BinaryHeap<uint64_t> heap;
    for (uint64_t i = 0; i < 100; ++i)
        heap.push(i ^ 0x55);
    heap.clear();
    EXPECT_TRUE(heap.empty());
    EXPECT_GE(heap.stat("h").capacity, 100u)
        << "clear() exists precisely to keep the buffer";
}

} // namespace
