#include "core/bloom_filter.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

// Configure-time probe-path selection: SP_BLOOM_FORCE_SCALAR (CMake
// option SP_BLOOM_SCALAR) pins the scalar path; otherwise the widest
// instruction set the target guarantees is used. All paths compute the
// same hash chain, lane for lane.
#if !defined(SP_BLOOM_FORCE_SCALAR)
#if defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define SP_BLOOM_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define SP_BLOOM_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace sp
{

namespace
{

constexpr uint64_t kSalt = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kMix1 = 0xbf58476d1ce4e5b9ULL;
constexpr uint64_t kMix2 = 0x94d049bb133111ebULL;

#if defined(SP_BLOOM_SSE2)

// 64x64 -> low-64 multiply per lane. SSE2 only has a 32x32 -> 64
// multiply (_mm_mul_epu32), so compose the low half from the three
// partial products that can reach it.
inline __m128i
mul64(__m128i a, __m128i b)
{
    __m128i lo = _mm_mul_epu32(a, b);
    __m128i cross = _mm_add_epi64(
        _mm_mul_epu32(a, _mm_srli_epi64(b, 32)),
        _mm_mul_epu32(_mm_srli_epi64(a, 32), b));
    return _mm_add_epi64(lo, _mm_slli_epi64(cross, 32));
}

// Two lanes of the scalar hash()'s splitmix finisher.
inline __m128i
mix2(__m128i x)
{
    x = mul64(_mm_xor_si128(x, _mm_srli_epi64(x, 30)),
              _mm_set1_epi64x(static_cast<long long>(kMix1)));
    x = mul64(_mm_xor_si128(x, _mm_srli_epi64(x, 27)),
              _mm_set1_epi64x(static_cast<long long>(kMix2)));
    return _mm_xor_si128(x, _mm_srli_epi64(x, 31));
}

// Hash lanes i and i+1 of `blockNum` into idx[0], idx[1].
inline void
hashPair(uint64_t blockNum, unsigned i, uint64_t idx[2])
{
    __m128i x = _mm_add_epi64(
        _mm_set1_epi64x(static_cast<long long>(blockNum)),
        _mm_set_epi64x(static_cast<long long>(uint64_t(i + 2) * kSalt),
                       static_cast<long long>(uint64_t(i + 1) * kSalt)));
    alignas(16) uint64_t out[2];
    _mm_store_si128(reinterpret_cast<__m128i *>(out), mix2(x));
    idx[0] = out[0];
    idx[1] = out[1];
}

#elif defined(SP_BLOOM_NEON)

inline uint64x2_t
mul64(uint64x2_t a, uint64x2_t b)
{
    uint32x2_t a_lo = vmovn_u64(a);
    uint32x2_t b_lo = vmovn_u64(b);
    uint32x2_t a_hi = vshrn_n_u64(a, 32);
    uint32x2_t b_hi = vshrn_n_u64(b, 32);
    uint64x2_t cross = vmlal_u32(vmull_u32(a_lo, b_hi), a_hi, b_lo);
    return vaddq_u64(vmull_u32(a_lo, b_lo), vshlq_n_u64(cross, 32));
}

inline uint64x2_t
mix2(uint64x2_t x)
{
    x = mul64(veorq_u64(x, vshrq_n_u64(x, 30)), vdupq_n_u64(kMix1));
    x = mul64(veorq_u64(x, vshrq_n_u64(x, 27)), vdupq_n_u64(kMix2));
    return veorq_u64(x, vshrq_n_u64(x, 31));
}

inline void
hashPair(uint64_t blockNum, unsigned i, uint64_t idx[2])
{
    uint64_t salts[2] = {uint64_t(i + 1) * kSalt, uint64_t(i + 2) * kSalt};
    uint64x2_t x = vaddq_u64(vdupq_n_u64(blockNum), vld1q_u64(salts));
    vst1q_u64(idx, mix2(x));
}

#endif

inline uint64_t
mixScalar(uint64_t x)
{
    x = (x ^ (x >> 30)) * kMix1;
    x = (x ^ (x >> 27)) * kMix2;
    return x ^ (x >> 31);
}

} // namespace

BloomFilter::BloomFilter(unsigned bytes, unsigned hashes)
    : words_((static_cast<size_t>(bytes) * 8 + 63) / 64, 0),
      sizeBits_(bytes * 8),
      mask_((sizeBits_ & (sizeBits_ - 1)) == 0 ? sizeBits_ - 1 : 0),
      hashes_(hashes)
{
    SP_ASSERT(bytes > 0, "bloom filter must have at least one byte");
    SP_ASSERT(hashes > 0, "bloom filter needs at least one hash");
}

const char *
BloomFilter::probeImpl()
{
#if defined(SP_BLOOM_SSE2)
    return "sse2";
#elif defined(SP_BLOOM_NEON)
    return "neon";
#else
    return "scalar";
#endif
}

uint64_t
BloomFilter::hash(Addr blockAddr, unsigned i) const
{
    // Two rounds of a 64-bit mixer, salted per hash function. Quality
    // matters only in that hashes must be independent enough to keep the
    // false-positive rate near the analytic optimum.
    uint64_t x = mixScalar(blockAddr / kBlockBytes +
                           uint64_t(i + 1) * kSalt);
    return mask_ ? (x & mask_) : (x % sizeBits_);
}

void
BloomFilter::insert(Addr addr)
{
    uint64_t block_num = blockAlign(addr) / kBlockBytes;
    unsigned i = 0;
#if defined(SP_BLOOM_SSE2) || defined(SP_BLOOM_NEON)
    for (; i + 2 <= hashes_; i += 2) {
        uint64_t idx[2];
        hashPair(block_num, i, idx);
        if (mask_) {
            setBit(idx[0] & mask_);
            setBit(idx[1] & mask_);
        } else {
            setBit(idx[0] % sizeBits_);
            setBit(idx[1] % sizeBits_);
        }
    }
#endif
    for (; i < hashes_; ++i) {
        uint64_t x = mixScalar(block_num + uint64_t(i + 1) * kSalt);
        setBit(mask_ ? (x & mask_) : (x % sizeBits_));
    }
}

bool
BloomFilter::maybeContains(Addr addr) const
{
    uint64_t block_num = blockAlign(addr) / kBlockBytes;
    unsigned i = 0;
#if defined(SP_BLOOM_SSE2) || defined(SP_BLOOM_NEON)
    for (; i + 2 <= hashes_; i += 2) {
        uint64_t idx[2];
        hashPair(block_num, i, idx);
        if (mask_) {
            if (!testBit(idx[0] & mask_) || !testBit(idx[1] & mask_))
                return false;
        } else {
            if (!testBit(idx[0] % sizeBits_) ||
                !testBit(idx[1] % sizeBits_))
                return false;
        }
    }
#endif
    for (; i < hashes_; ++i) {
        uint64_t x = mixScalar(block_num + uint64_t(i + 1) * kSalt);
        if (!testBit(mask_ ? (x & mask_) : (x % sizeBits_)))
            return false;
    }
    return true;
}

void
BloomFilter::reset()
{
    std::fill(words_.begin(), words_.end(), 0);
}

unsigned
BloomFilter::popcount() const
{
    unsigned n = 0;
    for (uint64_t w : words_)
        n += static_cast<unsigned>(std::popcount(w));
    return n;
}

template <class Ar>
void
BloomFilter::serialize(Ar &ar)
{
    ar.tag("BLOM");
    size_t nWords = words_.size();
    ar.podVec(words_);
    SP_ASSERT(words_.size() == nWords, "snapshot bloom geometry mismatch");
}

template void BloomFilter::serialize(SnapshotWriter &);
template void BloomFilter::serialize(SnapshotReader &);

} // namespace sp
