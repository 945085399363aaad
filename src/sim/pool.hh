/**
 * @file
 * Steady-state allocation machinery: fixed-slab pools, ring deques,
 * recycled-vector pools, bump arenas, and a reusable binary heap.
 *
 * The simulator's hot loops used to push tens of millions of nodes
 * through `operator new` per sweep -- libstdc++ std::deque allocates and
 * frees a 512-byte node every few hundred elements as FIFO windows slide,
 * and every speculation episode built fresh vectors. The containers here
 * replace that churn with storage that is allocated O(log n) times while
 * a structure grows to its high-water mark and never again afterwards, so
 * a run performs O(1) heap allocations once warm.
 *
 * Components:
 *   - RingDeque<T>: power-of-two circular buffer with std::deque's FIFO
 *     surface (push_back / pop_front / front / operator[] / iteration).
 *     Popped slots stay constructed and are re-assigned on reuse, so
 *     element-owned capacity (e.g. a vector member) is recycled in place;
 *     emplace_back() hands out the next slot to be filled in place.
 *   - FixedPool<T>: fixed-slab object pool with generation-checked
 *     handles, O(1) whole-pool reset, and ASan reuse poisoning.
 *   - VecPool<T>: recycles std::vector buffers so repeated take/give
 *     cycles reuse capacity instead of reallocating.
 *   - ByteArena: chunked bump allocator with O(1) reset; chunks are
 *     retained across resets, so steady-state use allocates nothing.
 *   - BinaryHeap<T, Compare>: min-heap over a reusable vector; clear()
 *     keeps capacity (std::priority_queue cannot be cleared in place).
 *   - PoolStat: name/capacity/high-water triple every component reports,
 *     surfaced by the perf report and `spcli --cycle-account`.
 *
 * Everything here is single-threaded by design, like the simulator core
 * it serves; sweeps parallelize at run granularity and each run owns its
 * pools exclusively.
 */

#ifndef SP_SIM_POOL_HH
#define SP_SIM_POOL_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SP_POOL_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define SP_POOL_ASAN 1
#endif

#ifdef SP_POOL_ASAN
#include <sanitizer/asan_interface.h>
#define SP_POOL_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define SP_POOL_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define SP_POOL_POISON(p, n) ((void)0)
#define SP_POOL_UNPOISON(p, n) ((void)0)
#endif

namespace sp
{

/** Capacity and high-water mark of one pooled structure. */
struct PoolStat
{
    /** Stable identifier ("rob", "ssb_entries", "epoch_flush_pool"...). */
    std::string name;
    /** Slots currently allocated (backing storage). */
    uint64_t capacity = 0;
    /** Largest simultaneous occupancy ever observed. */
    uint64_t highWater = 0;
};

/**
 * Power-of-two circular-buffer deque.
 *
 * The FIFO subset of std::deque the simulator actually uses, backed by
 * one contiguous slab that doubles on growth. Slots outlive pops: a
 * popped element is left constructed and later overwritten by
 * assignment, so element-owned heap capacity (vector members and the
 * like) is recycled instead of freed. Requires T to be default
 * constructible and move assignable.
 *
 * The high-water mark is taken lazily -- the size before each removal,
 * and the current size -- so an element that pop_back() retracts right
 * after emplace_back() never counts toward it.
 */
template <typename T>
class RingDeque
{
  public:
    RingDeque() = default;

    explicit RingDeque(size_t initialCapacity)
    {
        reserve(initialCapacity);
    }

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    size_t capacity() const { return buf_.size(); }
    size_t highWater() const { return std::max(highWater_, size_); }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }

    T &back() { return buf_[wrap(head_ + size_ - 1)]; }
    const T &back() const { return buf_[wrap(head_ + size_ - 1)]; }

    T &operator[](size_t i) { return buf_[wrap(head_ + i)]; }
    const T &operator[](size_t i) const { return buf_[wrap(head_ + i)]; }

    void
    push_back(const T &value)
    {
        emplace_slot() = value;
    }

    void
    push_back(T &&value)
    {
        emplace_slot() = std::move(value);
    }

    /**
     * Append a slot and return it for the caller to fill in place,
     * which spares the copy of a temporary. The slot still holds its
     * previous occupant (or a default-constructed T): the caller must
     * assign every field that matters.
     */
    T &emplace_back() { return emplace_slot(); }

    /** Append `n` copies of `value`, as `n` push_back() calls would. */
    void
    append(size_t n, const T &value)
    {
        // Doubling from a power of two reaches the same capacity.
        reserve(size_ + n);
        size_t first = wrap(head_ + size_);
        size_t run = std::min(n, buf_.size() - first);
        std::fill_n(buf_.begin() + first, run, value);
        std::fill_n(buf_.begin(), n - run, value);
        size_ += n;
    }

    /** Retract the element the last emplace_back() added. */
    void
    pop_back()
    {
        SP_ASSERT(size_ > 0, "pop_back on empty RingDeque");
        --size_;
    }

    void
    pop_front()
    {
        SP_ASSERT(size_ > 0, "pop_front on empty RingDeque");
        noteHighWater();
        head_ = wrap(head_ + 1);
        --size_;
    }

    /** Drop `n` elements from the front (std::deque::erase prefix). */
    void
    popFront(size_t n)
    {
        SP_ASSERT(n <= size_, "popFront past RingDeque size");
        noteHighWater();
        head_ = wrap(head_ + n);
        size_ -= n;
    }

    void
    clear()
    {
        noteHighWater();
        head_ = 0;
        size_ = 0;
    }

    /** Grow backing storage to at least `n` slots (a power of two). */
    void
    reserve(size_t n)
    {
        if (n > buf_.size())
            grow(n);
    }

    // Forward iteration, enough for range-for over queue contents.
    template <typename Container, typename Value>
    class Iter
    {
      public:
        Iter(Container *c, size_t i) : c_(c), i_(i) {}
        Value &operator*() const { return (*c_)[i_]; }
        Value *operator->() const { return &(*c_)[i_]; }
        Iter &operator++()
        {
            ++i_;
            return *this;
        }
        bool operator!=(const Iter &o) const { return i_ != o.i_; }
        bool operator==(const Iter &o) const { return i_ == o.i_; }

      private:
        Container *c_;
        size_t i_;
    };

    using iterator = Iter<RingDeque, T>;
    using const_iterator = Iter<const RingDeque, const T>;

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, size_}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

    PoolStat
    stat(const char *name) const
    {
        return {name, buf_.size(), highWater()};
    }

  private:
    std::vector<T> buf_;
    size_t head_ = 0;
    size_t size_ = 0;
    /** Largest size seen before a removal; highWater() adds size_. */
    size_t highWater_ = 0;

    size_t wrap(size_t i) const { return i & (buf_.size() - 1); }

    void
    noteHighWater()
    {
        if (size_ > highWater_)
            highWater_ = size_;
    }

    T &
    emplace_slot()
    {
        if (size_ == buf_.size())
            grow(size_ ? size_ * 2 : 16);
        T &slot = buf_[wrap(head_ + size_)];
        ++size_;
        return slot;
    }

    void
    grow(size_t minCapacity)
    {
        size_t cap = 16;
        while (cap < minCapacity)
            cap *= 2;
        std::vector<T> fresh(cap);
        for (size_t i = 0; i < size_; ++i)
            fresh[i] = std::move(buf_[wrap(head_ + i)]);
        buf_ = std::move(fresh);
        head_ = 0;
    }
};

/**
 * Fixed-slab object pool with generation-checked handles.
 *
 * Objects live in slabs that never move; alloc() pops a free-list or
 * bump-allocates the next virgin slot (a new slab only at the high-water
 * frontier). Handles carry the slot's generation: freeing or resetting
 * invalidates every outstanding handle to that storage, and get()
 * assert-checks the generation so stale handles fail loudly instead of
 * reading recycled memory. reset() is O(1): it bumps the pool epoch,
 * which invalidates all live handles wholesale (per-slot state is lazily
 * reconciled on reuse). Freed and reset slots are ASan-poisoned under
 * sanitizer builds so physical reuse-after-free is caught even when the
 * handle discipline is bypassed.
 *
 * T must be trivially destructible: reset() never runs destructors.
 */
template <typename T>
class FixedPool
{
    static_assert(std::is_trivially_destructible_v<T>,
                  "FixedPool requires trivially destructible T "
                  "(reset() skips destructors); use VecPool for vectors");

  public:
    struct Handle
    {
        uint32_t idx = kInvalidIdx;
        uint32_t gen = 0;

        bool operator==(const Handle &o) const
        {
            return idx == o.idx && gen == o.gen;
        }
    };

    static constexpr uint32_t kInvalidIdx = 0xffffffffu;

    explicit FixedPool(size_t slabSlots = 256) : slabSlots_(slabSlots)
    {
        SP_ASSERT(slabSlots_ > 0, "FixedPool slab must hold slots");
    }

    /** Live objects right now. */
    size_t liveCount() const { return live_; }
    /** Slots backed by storage. */
    size_t capacity() const { return slabs_.size() * slabSlots_; }
    /** Largest simultaneous live count ever observed. */
    size_t highWater() const { return highWater_; }

    /** Allocate a slot; contents are unspecified (caller initializes). */
    Handle
    alloc()
    {
        uint32_t idx;
        if (freeHead_ != kInvalidIdx) {
            idx = freeHead_;
            freeHead_ = nextFree_[idx];
        } else {
            if (bump_ == capacity())
                addSlab();
            idx = static_cast<uint32_t>(bump_++);
        }
        epochAt_[idx] = epoch_;
        SP_POOL_UNPOISON(slotPtr(idx), sizeof(T));
        ++live_;
        if (live_ > highWater_)
            highWater_ = live_;
        return {idx, gen_[idx]};
    }

    /** Is this handle still the current owner of its slot? */
    bool
    valid(Handle h) const
    {
        return h.idx < bump_ && epochAt_[h.idx] == epoch_ &&
            gen_[h.idx] == h.gen;
    }

    T &
    get(Handle h)
    {
        SP_ASSERT(valid(h), "stale FixedPool handle (idx ", h.idx,
                  " gen ", h.gen, ")");
        return *slotPtr(h.idx);
    }

    const T &
    get(Handle h) const
    {
        SP_ASSERT(valid(h), "stale FixedPool handle (idx ", h.idx,
                  " gen ", h.gen, ")");
        return *slotPtr(h.idx);
    }

    /** Return one slot; invalidates `h` (generation bump). */
    void
    free(Handle h)
    {
        SP_ASSERT(valid(h), "double/stale free of FixedPool handle");
        ++gen_[h.idx];
        nextFree_[h.idx] = freeHead_;
        freeHead_ = h.idx;
        SP_POOL_POISON(slotPtr(h.idx), sizeof(T));
        --live_;
    }

    /**
     * Return every slot at once; invalidates all outstanding handles.
     * O(1) outside sanitizer builds (the epoch bump does the work).
     */
    void
    reset()
    {
        ++epoch_;
        bump_ = 0;
        freeHead_ = kInvalidIdx;
        live_ = 0;
#ifdef SP_POOL_ASAN
        for (auto &slab : slabs_)
            SP_POOL_POISON(slab.get(), slabSlots_ * sizeof(T));
#endif
    }

    PoolStat
    stat(const char *name) const
    {
        return {name, capacity(), highWater_};
    }

  private:
    size_t slabSlots_;
    std::vector<std::unique_ptr<T[]>> slabs_;
    /** Per-slot reuse generation (bumped on free). */
    std::vector<uint32_t> gen_;
    /** Pool epoch the slot was last allocated in. */
    std::vector<uint32_t> epochAt_;
    std::vector<uint32_t> nextFree_;
    uint32_t freeHead_ = kInvalidIdx;
    /** Virgin-slot frontier within the current epoch. */
    size_t bump_ = 0;
    uint32_t epoch_ = 1;
    size_t live_ = 0;
    size_t highWater_ = 0;

    T *
    slotPtr(uint32_t idx)
    {
        return slabs_[idx / slabSlots_].get() + idx % slabSlots_;
    }

    const T *
    slotPtr(uint32_t idx) const
    {
        return slabs_[idx / slabSlots_].get() + idx % slabSlots_;
    }

    void
    addSlab()
    {
        slabs_.push_back(std::make_unique<T[]>(slabSlots_));
        gen_.resize(capacity(), 0);
        epochAt_.resize(capacity(), 0);
        nextFree_.resize(capacity(), kInvalidIdx);
        SP_POOL_POISON(slabs_.back().get(), slabSlots_ * sizeof(T));
    }
};

/**
 * Recycled-vector pool: take() hands out an empty vector whose capacity
 * survives from its previous life; give() returns it. Bounded so a
 * transient burst cannot pin unbounded memory.
 */
template <typename T>
class VecPool
{
  public:
    explicit VecPool(size_t maxPooled = 8) : maxPooled_(maxPooled) {}

    std::vector<T>
    take()
    {
        if (pool_.empty())
            return {};
        std::vector<T> v = std::move(pool_.back());
        pool_.pop_back();
        v.clear();
        return v;
    }

    void
    give(std::vector<T> &&v)
    {
        if (pool_.size() < maxPooled_) {
            pool_.push_back(std::move(v));
            if (pool_.size() > highWater_)
                highWater_ = pool_.size();
        }
    }

    size_t pooled() const { return pool_.size(); }

    PoolStat
    stat(const char *name) const
    {
        return {name, pool_.size(), highWater_};
    }

  private:
    size_t maxPooled_;
    std::vector<std::vector<T>> pool_;
    uint64_t highWater_ = 0;
};

/**
 * Chunked bump allocator. Allocations are 8-byte aligned spans carved
 * from chunk storage; individual frees do not exist. reset() rewinds to
 * empty in O(1) while keeping every chunk, so a warmed arena allocates
 * nothing. Oversized requests get a dedicated chunk.
 */
class ByteArena
{
  public:
    explicit ByteArena(size_t chunkBytes = 64 * 1024)
        : chunkBytes_(chunkBytes)
    {
        SP_ASSERT(chunkBytes_ > 0, "ByteArena chunk must hold bytes");
    }

    /** Allocate `n` bytes (8-byte aligned, uninitialized). */
    void *
    alloc(size_t n)
    {
        n = (n + 7) & ~size_t{7};
        if (chunk_ == chunks_.size() || used_ + n > chunkSize(chunk_))
            nextChunk(n);
        void *p = chunks_[chunk_].data.get() + used_;
        used_ += n;
        bytes_ += n;
        if (bytes_ > highWater_)
            highWater_ = bytes_;
        return p;
    }

    /** Copy `n` bytes into the arena; returns the stable copy. */
    void *
    store(const void *src, size_t n)
    {
        void *p = alloc(n);
        std::memcpy(p, src, n);
        return p;
    }

    /** Rewind to empty; chunks are retained for reuse. */
    void
    reset()
    {
        chunk_ = 0;
        used_ = 0;
        bytes_ = 0;
    }

    /** Bytes handed out since the last reset. */
    size_t bytesUsed() const { return bytes_; }

    /** Total backing storage. */
    size_t
    capacity() const
    {
        size_t total = 0;
        for (const Chunk &c : chunks_)
            total += c.bytes;
        return total;
    }

    PoolStat
    stat(const char *name) const
    {
        return {name, capacity(), highWater_};
    }

  private:
    struct Chunk
    {
        std::unique_ptr<uint8_t[]> data;
        size_t bytes = 0;
    };

    size_t chunkBytes_;
    std::vector<Chunk> chunks_;
    /** Index of the chunk currently being bumped. */
    size_t chunk_ = 0;
    /** Bytes used within chunks_[chunk_]. */
    size_t used_ = 0;
    size_t bytes_ = 0;
    size_t highWater_ = 0;

    size_t chunkSize(size_t i) const { return chunks_[i].bytes; }

    void
    nextChunk(size_t need)
    {
        // Advance to the next retained chunk that fits, else allocate.
        while (chunk_ < chunks_.size()) {
            if (used_ != 0 || chunkSize(chunk_) < need) {
                ++chunk_;
                used_ = 0;
                continue;
            }
            return;
        }
        size_t bytes = std::max(need, chunkBytes_);
        chunks_.push_back({std::make_unique<uint8_t[]>(bytes), bytes});
        chunk_ = chunks_.size() - 1;
        used_ = 0;
    }
};

/**
 * Binary min-heap over a reusable vector. The std::priority_queue
 * surface the issue stage needs, plus clear() that keeps capacity --
 * assigning `{}` to a priority_queue frees its buffer, which put an
 * allocation on every speculation abort.
 */
template <typename T, typename Compare = std::less<T>>
class BinaryHeap
{
  public:
    bool empty() const { return heap_.empty(); }
    size_t size() const { return heap_.size(); }
    const T &top() const { return heap_.front(); }

    void
    push(const T &value)
    {
        heap_.push_back(value);
        siftUp(heap_.size() - 1);
        if (heap_.size() > highWater_)
            highWater_ = heap_.size();
    }

    void
    pop()
    {
        SP_ASSERT(!heap_.empty(), "pop on empty BinaryHeap");
        heap_.front() = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0);
    }

    void clear() { heap_.clear(); }

    void reserve(size_t n) { heap_.reserve(n); }

    /**
     * Raw heap-array access for snapshot/restore. The array layout (not
     * just the element multiset) determines future pop order when keys
     * compare equal, so restoreRaw() adopts the saved layout verbatim
     * instead of re-pushing, keeping restored pop order bit-identical.
     */
    const std::vector<T> &raw() const { return heap_; }

    void
    restoreRaw(const std::vector<T> &values)
    {
        heap_ = values;
        if (heap_.size() > highWater_)
            highWater_ = heap_.size();
    }

    PoolStat
    stat(const char *name) const
    {
        return {name, heap_.capacity(), highWater_};
    }

  private:
    std::vector<T> heap_;
    Compare less_{};
    size_t highWater_ = 0;

    void
    siftUp(size_t i)
    {
        while (i > 0) {
            size_t parent = (i - 1) / 2;
            if (!less_(heap_[i], heap_[parent]))
                break;
            std::swap(heap_[i], heap_[parent]);
            i = parent;
        }
    }

    void
    siftDown(size_t i)
    {
        for (;;) {
            size_t l = 2 * i + 1, r = 2 * i + 2, best = i;
            if (l < heap_.size() && less_(heap_[l], heap_[best]))
                best = l;
            if (r < heap_.size() && less_(heap_[r], heap_[best]))
                best = r;
            if (best == i)
                return;
            std::swap(heap_[i], heap_[best]);
            i = best;
        }
    }
};

} // namespace sp

#endif // SP_SIM_POOL_HH
