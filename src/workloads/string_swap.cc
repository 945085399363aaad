#include "workloads/string_swap.hh"

#include <algorithm>
#include <vector>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sp
{

StringSwapWorkload::StringSwapWorkload(const WorkloadParams &params,
                                       uint64_t numStrings)
    : Workload(params), numStrings_(numStrings)
{
}

Addr
StringSwapWorkload::stringAddr(Addr array, uint64_t idx) const
{
    return array + idx * kStringBytes;
}

uint64_t
StringSwapWorkload::initialWord(uint64_t idx, unsigned wordOffset)
{
    uint64_t x = idx * 131 + wordOffset + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

void
StringSwapWorkload::create()
{
    array_ = alloc_.alloc(numStrings_ * kStringBytes);
    em_.store(kMeta + 0, array_, 8);
    em_.store(kMeta + 8, numStrings_, 8);
    em_.store(kMeta + 16, 0, 8);
    em_.store(kMeta + 24, 0, 8);
    for (uint64_t i = 0; i < numStrings_; ++i) {
        Addr s = stringAddr(array_, i);
        for (unsigned w = 0; w < kStringBytes / 8; ++w)
            em_.store(s + w * 8, initialWord(i, w), 8);
    }
}

void
StringSwapWorkload::doOperation()
{
    uint64_t i = rng_.nextBounded(numStrings_);
    uint64_t j = rng_.nextBounded(numStrings_);
    appWork(7000);
    if (i == j)
        return;

    Addr array = em_.load(kMeta + 0, 8);
    Addr a = stringAddr(array, i);
    Addr b = stringAddr(array, j);

    tx_.begin();
    // Undo-log both strings: 2 x 4 data blocks -> 8 clwbs for entries.
    tx_.logRange(a, kStringBytes);
    tx_.logRange(b, kStringBytes);
    // "one clwb is for indexes": record which strings are being swapped.
    tx_.logRange(kMeta + 16, 16);
    logGeneration();
    tx_.seal();

    em_.store(kMeta + 16, i, 8);
    em_.store(kMeta + 24, j, 8);
    em_.clwb(kMeta + 16);

    // Exchange contents in 8-byte chunks.
    for (unsigned off = 0; off < kStringBytes; off += 8) {
        OpEmitter::Handle ha = OpEmitter::kNoDep;
        OpEmitter::Handle hb = OpEmitter::kNoDep;
        uint64_t va = em_.load(a + off, 8, OpEmitter::kNoDep, &ha);
        uint64_t vb = em_.load(b + off, 8, OpEmitter::kNoDep, &hb);
        em_.store(a + off, vb, 8, hb);
        em_.store(b + off, va, 8, ha);
    }
    // "another eight clwbs are issued along with pcommit".
    em_.clwbRange(a, kStringBytes);
    em_.clwbRange(b, kStringBytes);
    bumpGeneration();
    tx_.commitUpdates();
    tx_.end();
}

uint64_t
StringSwapWorkload::hashString(const MemImage &img, Addr addr)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned off = 0; off < kStringBytes; off += 8) {
        h ^= img.readInt(addr + off, 8);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::vector<std::pair<uint64_t, uint64_t>>
StringSwapWorkload::contents(const MemImage &img) const
{
    std::vector<std::pair<uint64_t, uint64_t>> out;
    Addr array = img.readInt(kMeta + 0, 8);
    uint64_t n = img.readInt(kMeta + 8, 8);
    out.reserve(n);
    for (uint64_t i = 0; i < n; ++i)
        out.emplace_back(i, hashString(img, stringAddr(array, i)));
    return out;
}

bool
StringSwapWorkload::checkImage(const MemImage &img, std::string *why) const
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = "SS: " + msg;
        return false;
    };

    Addr array = img.readInt(kMeta + 0, 8);
    uint64_t n = img.readInt(kMeta + 8, 8);
    if (n != numStrings_)
        return fail("string count changed");

    // Swaps permute strings, so the multiset of string hashes must equal
    // the multiset of the deterministic initial strings.
    std::vector<uint64_t> expected(n), actual(n);
    for (uint64_t i = 0; i < n; ++i) {
        uint64_t h = 0xcbf29ce484222325ULL;
        for (unsigned w = 0; w < kStringBytes / 8; ++w) {
            h ^= initialWord(i, w);
            h *= 0x100000001b3ULL;
        }
        expected[i] = h;
        actual[i] = hashString(img, stringAddr(array, i));
    }
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    if (expected != actual)
        return fail("string contents are not a permutation of the "
                    "initial strings");
    return true;
}

void
StringSwapWorkload::serialize(SnapshotWriter &ar)
{
    serializeBase(ar);
    ar.pod(array_);
}

void
StringSwapWorkload::serialize(SnapshotReader &ar)
{
    serializeBase(ar);
    ar.pod(array_);
}

} // namespace sp
