/**
 * @file
 * SS: swap two strings in a string array (Table 1).
 *
 * The string array holds numStrings strings of 256 bytes each (4 cache
 * blocks). An operation picks two random indices, undo-logs both strings
 * (8 clwbs for the log entries, one clwb for the swap indices -- paper
 * Section 3.2), exchanges their contents in 8-byte chunks, then issues
 * another 8 clwbs and the persist barrier.
 *
 * Metadata: array(+0) numStrings(+8) lastI(+16) lastJ(+24).
 */

#ifndef SP_WORKLOADS_STRING_SWAP_HH
#define SP_WORKLOADS_STRING_SWAP_HH

#include "workloads/workload.hh"

namespace sp
{

/** Persistent string-array swap benchmark. */
class StringSwapWorkload : public Workload
{
  public:
    static constexpr unsigned kStringBytes = 256;

    explicit StringSwapWorkload(const WorkloadParams &params,
                                uint64_t numStrings = 16384);

    const char *name() const override { return "SS"; }

    bool checkImage(const MemImage &img, std::string *why) const override;
    /** Contents are (index, 64-bit FNV-1a hash of the string) pairs. */
    std::vector<std::pair<uint64_t, uint64_t>>
    contents(const MemImage &img) const override;

    void serialize(SnapshotWriter &ar) override;
    void serialize(SnapshotReader &ar) override;

  protected:
    void create() override;
    void doOperation() override;

  private:
    static constexpr Addr kMeta = kWorkloadMetaBase;

    uint64_t numStrings_;
    Addr array_ = 0;

    Addr stringAddr(Addr array, uint64_t idx) const;
    /** Deterministic initial contents of string `idx`. */
    static uint64_t initialWord(uint64_t idx, unsigned wordOffset);
    static uint64_t hashString(const MemImage &img, Addr addr);
};

} // namespace sp

#endif // SP_WORKLOADS_STRING_SWAP_HH
