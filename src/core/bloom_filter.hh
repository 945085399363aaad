/**
 * @file
 * Bloom filter summarizing the Speculative Store Buffer contents.
 *
 * Loads executed during speculation consult the filter before paying the
 * SSB CAM latency (paper Section 4.2.2, Figure 14). The filter can produce
 * false positives but never false negatives, and it is reset wholesale when
 * the core exits speculation, which keeps the false-positive rate low. As
 * the paper observes, false positives mostly come from stores that have
 * already drained out of the SSB while the filter has not yet been reset.
 *
 * The filter is probed on every speculative load, so its implementation
 * is a hot path: bits live in packed 64-bit words (vector<bool> paid a
 * word load + shift through a proxy object per access and a full rewrite
 * on reset), the power-of-two common case replaces the modulo with a
 * mask, and the k hash lanes are evaluated two at a time with SSE2/NEON
 * when available. The hash *function* is fixed -- SIMD only evaluates
 * the same splitmix chain in parallel lanes -- so bit indices, and
 * therefore simulated behaviour, are identical across scalar and SIMD
 * builds (the FastForward suites check this bit-for-bit). Build with
 * -DSP_BLOOM_FORCE_SCALAR (CMake option SP_BLOOM_SCALAR) to select the
 * scalar path at configure time.
 */

#ifndef SP_CORE_BLOOM_FILTER_HH
#define SP_CORE_BLOOM_FILTER_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace sp
{


/** Block-address Bloom filter with k independent hash functions. */
class BloomFilter
{
  public:
    /**
     * @param bytes Filter size in bytes (paper: 512).
     * @param hashes Number of hash functions (k).
     */
    explicit BloomFilter(unsigned bytes = 512, unsigned hashes = 2);

    /** Record the block containing `addr`. */
    void insert(Addr addr);

    /** May the block containing `addr` be present? (no false negatives) */
    bool maybeContains(Addr addr) const;

    /** Clear every bit (speculation exit). */
    void reset();

    /** Number of bits set (diagnostics / tests). */
    unsigned popcount() const;

    unsigned sizeBits() const { return sizeBits_; }

    /** "sse2", "neon", or "scalar": which probe path this build uses. */
    static const char *probeImpl();

    /** Snapshot serializer: bit array only (geometry is config-derived). */
    template <class Ar> void serialize(Ar &ar);

  private:
    /** Packed bit storage, sizeBits_ bits rounded up to whole words. */
    std::vector<uint64_t> words_;
    unsigned sizeBits_;
    /** sizeBits_ - 1 when sizeBits_ is a power of two, else 0. */
    uint64_t mask_;
    unsigned hashes_;

    uint64_t hash(Addr blockAddr, unsigned i) const;

    bool testBit(uint64_t idx) const
    {
        return (words_[idx >> 6] >> (idx & 63)) & 1;
    }

    void setBit(uint64_t idx)
    {
        words_[idx >> 6] |= uint64_t{1} << (idx & 63);
    }
};

} // namespace sp

#endif // SP_CORE_BLOOM_FILTER_HH
