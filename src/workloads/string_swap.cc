#include "workloads/string_swap.hh"

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

namespace
{

constexpr uint64_t kWordSeed = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kMul1 = 0xbf58476d1ce4e5b9ULL;
constexpr uint64_t kMul2 = 0x94d049bb133111ebULL;
constexpr unsigned kWordsPerString = StringSwapWorkload::kStringBytes / 8;

/** Inverse of an odd multiplier mod 2^64 (Newton: each step doubles
 *  the correct low bits, from 3 for an odd number). */
constexpr uint64_t
inverseMul(uint64_t a)
{
    uint64_t inv = a;
    for (int i = 0; i < 5; ++i)
        inv *= 2 - a * inv;
    return inv;
}

constexpr uint64_t kInv1 = inverseMul(kMul1);
constexpr uint64_t kInv2 = inverseMul(kMul2);
static_assert(kMul1 * kInv1 == 1 && kMul2 * kInv2 == 1);

/** Undo `x ^= x >> s` for s >= 22 (three terms cover 64 bits). */
constexpr uint64_t
unXorShift(uint64_t y, unsigned s)
{
    return y ^ (y >> s) ^ (y >> (2 * s));
}

} // namespace

uint64_t
StringSwapWorkload::initialWord(uint64_t idx, unsigned wordOffset)
{
    uint64_t x = idx * 131 + wordOffset + kWordSeed;
    x = (x ^ (x >> 30)) * kMul1;
    x = (x ^ (x >> 27)) * kMul2;
    return x ^ (x >> 31);
}

uint64_t
StringSwapWorkload::initialIndex(uint64_t word0)
{
    uint64_t x = unXorShift(word0, 31) * kInv2;
    x = unXorShift(x, 27) * kInv1;
    uint64_t scaled = unXorShift(x, 30) - kWordSeed;
    return scaled % 131 == 0 ? scaled / 131 : ~0ULL;
}

void
StringSwapWorkload::create()
{
    array_ = alloc_.alloc(numStrings_ * kStringBytes);
    em_.store(kMeta + 0, array_, 8);
    em_.store(kMeta + 8, numStrings_, 8);
    em_.store(kMeta + 16, 0, 8);
    em_.store(kMeta + 24, 0, 8);
    // Setup runs muted outside shadow and journal passes, so each
    // string is one image write.
    uint64_t words[kWordsPerString] = {};
    for (uint64_t i = 0; i < numStrings_; ++i) {
        for (unsigned w = 0; w < kWordsPerString; ++w)
            words[w] = initialWord(i, w);
        em_.storeBytes(stringAddr(array_, i), words, kStringBytes);
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
    uint64_t words[kWordsPerString] = {};
    img.read(addr, words, kStringBytes);
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint64_t word : words) {
        h ^= word;
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

    // Swaps permute strings, so every slot must hold a distinct initial
    // string. A slot's word 0 names the one initial string it can hold
    // (initialIndex), and n slots holding n distinct initial strings
    // word for word are exactly a permutation of them.
    const auto notPermutation = [&] {
        return fail("string contents are not a permutation of the "
                    "initial strings");
    };
    std::vector<bool> seen(n);
    uint64_t words[kWordsPerString] = {};
    for (uint64_t i = 0; i < n; ++i) {
        img.read(stringAddr(array, i), words, kStringBytes);
        uint64_t idx = initialIndex(words[0]);
        if (idx >= n || seen[idx])
            return notPermutation();
        seen[idx] = true;
        for (unsigned w = 1; w < kWordsPerString; ++w) {
            if (words[w] != initialWord(idx, w))
                return notPermutation();
        }
    }
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
