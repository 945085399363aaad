#include "workloads/hash_map.hh"

#include <algorithm>
#include <unordered_set>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sp
{

HashMapWorkload::HashMapWorkload(const WorkloadParams &params,
                                 uint64_t initialCapacity,
                                 uint64_t keyRange)
    : Workload(params), initialCapacity_(initialCapacity),
      keyRange_(keyRange)
{
    SP_ASSERT((initialCapacity & (initialCapacity - 1)) == 0,
              "hash map capacity must be a power of two");
}

uint64_t
HashMapWorkload::hashKey(uint64_t key)
{
    uint64_t x = key + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

Addr
HashMapWorkload::slotAddr(Addr table, uint64_t idx)
{
    return table + idx * kBlockBytes;
}

void
HashMapWorkload::create()
{
    Addr table = alloc_.alloc(initialCapacity_ * kBlockBytes);
    em_.store(kMeta + 0, table, 8);
    em_.store(kMeta + 8, initialCapacity_, 8);
    em_.store(kMeta + 16, 0, 8); // count
    em_.store(kMeta + 24, 0, 8); // tombstones
    for (uint64_t i = 0; i < initialCapacity_; ++i)
        em_.store(slotAddr(table, i), kStateEmpty, 8);
}

void
HashMapWorkload::doOperation()
{
    uint64_t key = rng_.nextBounded(keyRange_);
    appWork(5000);

    Addr table = em_.load(kMeta + 0, 8, appDep());
    uint64_t cap = em_.load(kMeta + 8, 8, appDep());

    // Probe: stop at the key (delete) or at an empty slot (insert).
    uint64_t idx = hashKey(key) & (cap - 1);
    OpEmitter::Handle dep = appDep();
    for (uint64_t probes = 0; probes <= cap; ++probes) {
        Addr slot = slotAddr(table, idx);
        OpEmitter::Handle state_dep = OpEmitter::kNoDep;
        uint64_t state = em_.load(slot, 8, dep, &state_dep);
        em_.aluChain(4, state_dep);
        if (state == kStateEmpty) {
            insert(key);
            return;
        }
        if (state == kStateFull) {
            OpEmitter::Handle key_dep = OpEmitter::kNoDep;
            uint64_t slot_key = em_.load(slot + 8, 8, state_dep, &key_dep);
            em_.alu(2, key_dep);
            if (slot_key == key) {
                removeAt(slot, key_dep);
                return;
            }
        }
        idx = (idx + 1) & (cap - 1);
        dep = state_dep;
    }
    SP_PANIC("hash map probe loop wrapped the whole table");
}

void
HashMapWorkload::insert(uint64_t key)
{
    // Resize first if the table would get crowded (keeps probe chains
    // short, and exercises the paper's table-doubling path).
    uint64_t cap = em_.image().readInt(kMeta + 8, 8);
    uint64_t used = em_.image().readInt(kMeta + 16, 8) +
        em_.image().readInt(kMeta + 24, 8);
    if ((used + 1) * 10 >= cap * 7)
        resize();

    Addr table = em_.image().readInt(kMeta + 0, 8);
    cap = em_.image().readInt(kMeta + 8, 8);

    // Find the first reusable slot (tombstone or empty).
    uint64_t idx = hashKey(key) & (cap - 1);
    Addr target = 0;
    bool reused_tomb = false;
    OpEmitter::Handle dep = OpEmitter::kNoDep;
    for (uint64_t probes = 0; probes <= cap; ++probes) {
        Addr slot = slotAddr(table, idx);
        OpEmitter::Handle state_dep = OpEmitter::kNoDep;
        uint64_t state = em_.load(slot, 8, dep, &state_dep);
        em_.alu(2, state_dep);
        if (state != kStateFull) {
            target = slot;
            reused_tomb = state == kStateTomb;
            break;
        }
        idx = (idx + 1) & (cap - 1);
        dep = state_dep;
    }
    SP_ASSERT(target != 0, "no free slot after resize");

    uint64_t count = em_.image().readInt(kMeta + 16, 8);
    uint64_t tombs = em_.image().readInt(kMeta + 24, 8);
    em_.aluChain(80); // insert bookkeeping code

    tx_.begin();
    tx_.logRange(kMeta, 32);
    tx_.logRange(target, kBlockBytes);
    logGeneration();
    tx_.seal();

    em_.store(target + 8, key, 8);
    em_.store(target + 16, key * 3 + 7, 8);
    em_.store(target + 0, kStateFull, 8);
    em_.clwb(target);
    em_.store(kMeta + 16, count + 1, 8);
    if (reused_tomb)
        em_.store(kMeta + 24, tombs - 1, 8);
    em_.clwb(kMeta);
    bumpGeneration();
    tx_.commitUpdates();
    tx_.end();
}

void
HashMapWorkload::removeAt(Addr slot, OpEmitter::Handle dep)
{
    uint64_t count = em_.image().readInt(kMeta + 16, 8);
    uint64_t tombs = em_.image().readInt(kMeta + 24, 8);
    em_.aluChain(60); // delete bookkeeping code

    tx_.begin();
    tx_.logRange(kMeta, 32);
    tx_.logRange(slot, kBlockBytes);
    logGeneration();
    tx_.seal();

    em_.store(slot + 0, kStateTomb, 8, dep);
    em_.clwb(slot);
    em_.store(kMeta + 16, count - 1, 8);
    em_.store(kMeta + 24, tombs + 1, 8);
    em_.clwb(kMeta);
    bumpGeneration();
    tx_.commitUpdates();
    tx_.end();
}

void
HashMapWorkload::resize()
{
    Addr old_table = em_.image().readInt(kMeta + 0, 8);
    uint64_t old_cap = em_.image().readInt(kMeta + 8, 8);
    uint64_t new_cap = old_cap * 2;
    Addr new_table = alloc_.alloc(new_cap * kBlockBytes);
    ++resizes_;

    // The new table is fresh memory: build it, then swing the metadata in
    // a transaction. A crash mid-copy leaves the old table untouched.
    for (uint64_t i = 0; i < new_cap; ++i)
        em_.store(slotAddr(new_table, i), kStateEmpty, 8);

    uint64_t moved = 0;
    for (uint64_t i = 0; i < old_cap; ++i) {
        Addr slot = slotAddr(old_table, i);
        OpEmitter::Handle state_dep = OpEmitter::kNoDep;
        uint64_t state =
            em_.load(slot, 8, OpEmitter::kNoDep, &state_dep);
        em_.alu(2, state_dep);
        if (state != kStateFull)
            continue;
        em_.aluChain(8); // rehash computation per record
        uint64_t key = em_.load(slot + 8, 8, state_dep);
        uint64_t value = em_.load(slot + 16, 8, state_dep);
        uint64_t idx = hashKey(key) & (new_cap - 1);
        for (;;) {
            Addr dst = slotAddr(new_table, idx);
            if (em_.image().readInt(dst, 8) == kStateEmpty) {
                em_.store(dst + 8, key, 8);
                em_.store(dst + 16, value, 8);
                em_.store(dst + 0, kStateFull, 8);
                // Paper: "each insertion is followed by clwb".
                em_.clwb(dst);
                break;
            }
            em_.alu(2);
            idx = (idx + 1) & (new_cap - 1);
        }
        ++moved;
    }

    tx_.begin();
    tx_.logRange(kMeta, 32);
    // The new table was built outside the transaction in fresh memory;
    // its CRC slots are refreshed with the metadata swing.
    tx_.trackRange(new_table,
                   static_cast<unsigned>(new_cap * kBlockBytes));
    tx_.seal();
    em_.store(kMeta + 0, new_table, 8);
    em_.store(kMeta + 8, new_cap, 8);
    em_.store(kMeta + 16, moved, 8);
    em_.store(kMeta + 24, 0, 8);
    em_.clwb(kMeta);
    // Paper: "pcommit persists the completion of the resizing".
    tx_.commitUpdates();
    tx_.end();

    alloc_.free(old_table, old_cap * kBlockBytes);
}

std::vector<std::pair<uint64_t, uint64_t>>
HashMapWorkload::contents(const MemImage &img) const
{
    std::vector<std::pair<uint64_t, uint64_t>> out;
    Addr table = img.readInt(kMeta + 0, 8);
    uint64_t cap = img.readInt(kMeta + 8, 8);
    for (uint64_t i = 0; i < cap; ++i) {
        Addr slot = slotAddr(table, i);
        if (img.readInt(slot, 8) == kStateFull) {
            out.emplace_back(img.readInt(slot + 8, 8),
                             img.readInt(slot + 16, 8));
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

bool
HashMapWorkload::checkImage(const MemImage &img, std::string *why) const
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = "HM: " + msg;
        return false;
    };

    Addr table = img.readInt(kMeta + 0, 8);
    uint64_t cap = img.readInt(kMeta + 8, 8);
    uint64_t count = img.readInt(kMeta + 16, 8);
    uint64_t tombs = img.readInt(kMeta + 24, 8);

    if (cap == 0 || (cap & (cap - 1)) != 0)
        return fail("capacity is not a power of two");
    if (table < kHeapBase)
        return fail("table pointer outside the heap");

    uint64_t full = 0;
    uint64_t tomb = 0;
    std::unordered_set<uint64_t> keys;
    for (uint64_t i = 0; i < cap; ++i) {
        Addr slot = slotAddr(table, i);
        uint64_t state = img.readInt(slot, 8);
        if (state == kStateFull) {
            ++full;
            uint64_t key = img.readInt(slot + 8, 8);
            if (key >= keyRange_)
                return fail("key out of range");
            if (!keys.insert(key).second)
                return fail("duplicate key");
            // Linear-probing reachability: no empty slot between the
            // key's home and its position.
            uint64_t idx = hashKey(key) & (cap - 1);
            while (idx != i) {
                if (img.readInt(slotAddr(table, idx), 8) == kStateEmpty)
                    return fail("entry unreachable past an empty slot");
                idx = (idx + 1) & (cap - 1);
            }
        } else if (state == kStateTomb) {
            ++tomb;
        } else if (state != kStateEmpty) {
            return fail("invalid slot state");
        }
    }
    if (full != count)
        return fail("stored count disagrees with table scan");
    if (tomb != tombs)
        return fail("stored tombstone count disagrees with table scan");
    return true;
}

void
HashMapWorkload::serialize(SnapshotWriter &ar)
{
    serializeBase(ar);
    ar.pod(resizes_);
}

void
HashMapWorkload::serialize(SnapshotReader &ar)
{
    serializeBase(ar);
    ar.pod(resizes_);
}

} // namespace sp
