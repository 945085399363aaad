/**
 * @file
 * Checkpoint buffer.
 *
 * Each speculative epoch owns one checkpoint: a snapshot of the
 * architectural state needed to restart execution at the epoch's first
 * instruction. In this deterministic trace-driven model the architectural
 * state reduces to a program-stream cursor (see ReplayableProgram); a real
 * implementation would copy the register file and PC (paper Section 4.1,
 * footnote 3). Table 2 provisions 4 entries, justified by Figure 11.
 */

#ifndef SP_CORE_CHECKPOINT_HH
#define SP_CORE_CHECKPOINT_HH

#include <cstdint>
#include <vector>

namespace sp
{


/** Fixed pool of architectural checkpoints. */
class CheckpointBuffer
{
  public:
    /** Sentinel returned when no checkpoint is free. */
    static constexpr unsigned kInvalid = ~0u;

    explicit CheckpointBuffer(unsigned entries);

    /** Is at least one checkpoint free? */
    bool available() const { return inUse_ < entries_.size(); }

    /** Checkpoints currently allocated. */
    unsigned inUse() const { return inUse_; }

    /** Total capacity. */
    unsigned capacity() const { return static_cast<unsigned>(entries_.size()); }

    /**
     * Allocate a checkpoint capturing `cursor`.
     *
     * @return Index of the checkpoint, or kInvalid if none is free.
     */
    unsigned allocate(uint64_t cursor);

    /** Release a checkpoint (epoch committed). */
    void free(unsigned idx);

    /** Cursor captured by checkpoint `idx`. */
    uint64_t cursor(unsigned idx) const;

    /** Release every checkpoint (abort handling / speculation exit). */
    void reset();

    /** Snapshot serializer: entry array (slot order matters) + count. */
    template <class Ar> void serialize(Ar &ar);

  private:
    struct Entry
    {
        bool valid = false;
        /** Always zero: named padding (see SnapshotWriter::determinedBytes). */
        uint8_t reserved[7] = {};
        uint64_t cursor = 0;
    };

    std::vector<Entry> entries_;
    unsigned inUse_ = 0;
};

} // namespace sp

#endif // SP_CORE_CHECKPOINT_HH
