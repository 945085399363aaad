/**
 * @file
 * Block Lookup Table (BLT).
 *
 * Records the cache-block addresses touched by speculative loads and
 * stores. External coherence operations are checked against it; any match
 * is treated as an atomicity violation and aborts speculation to the oldest
 * checkpoint (paper Section 4.2.2, following SC++). The table deliberately
 * does not distinguish epochs: a hit rolls everything back.
 */

#ifndef SP_CORE_BLT_HH
#define SP_CORE_BLT_HH

#include <cstddef>

#include "core/addr_map.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace sp
{

/**
 * Set of speculatively accessed block addresses. Backed by an
 * open-addressing AddrSet: record() runs on every speculative load and
 * store retirement, probe() on every external coherence operation, and
 * clear() on every abort/commit, so all three must be allocation-free
 * and O(1).
 */
class BlockLookupTable
{
  public:
    /** Record a speculative access to the block containing `addr`. */
    void record(Addr addr) { blocks_.insert(blockAlign(addr)); }

    /** Does an external access to this block conflict with speculation? */
    bool probe(Addr addr) const
    {
        return blocks_.contains(blockAlign(addr));
    }

    /** Forget everything (commit or abort). */
    void clear() { blocks_.clear(); }

    size_t size() const { return blocks_.size(); }

    /**
     * Snapshot serializer: the membership set. Save order is slot order;
     * restore re-inserts, which is equivalent because the table only
     * answers contains() and grows at deterministic occupancy points.
     */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar.tag("BLT ");
        uint64_t n = blocks_.size();
        ar.pod(n);
        if constexpr (Ar::kLoading) {
            blocks_.clear();
            for (uint64_t i = 0; i < n; ++i) {
                Addr key = 0;
                ar.pod(key);
                blocks_.insert(key);
            }
        } else {
            blocks_.forEach([&ar](Addr key) { ar.pod(key); });
        }
    }

  private:
    AddrSet blocks_;
};

} // namespace sp

#endif // SP_CORE_BLT_HH
