/**
 * @file
 * Program-stream abstractions feeding the core's fetch stage.
 *
 * A Program is a pull interface: fetch asks for the next dynamic micro-op.
 * ReplayableProgram wraps any Program with a rollback window so the SP
 * hardware can checkpoint a stream position and rewind to it on an abort,
 * which stands in for a hardware register checkpoint in this deterministic
 * single-threaded setting.
 */

#ifndef SP_ISA_PROGRAM_HH
#define SP_ISA_PROGRAM_HH

#include <cstddef>
#include <vector>

#include "isa/microop.hh"
#include "sim/pool.hh"

namespace sp
{


/** Pull-based source of dynamic micro-ops. */
class Program
{
  public:
    virtual ~Program() = default;

    /**
     * Produce the next micro-op.
     *
     * @param op Filled in on success.
     * @retval true an op was produced; false the program has ended.
     */
    virtual bool next(MicroOp &op) = 0;

    /**
     * Length of the serial-chain run next() is in the middle of: how many
     * of the coming next() calls would each deliver the same single-cycle
     * `kAluChain` element with `dep = 1`, without producing more ops.
     * A source that keeps no such runs says 0.
     */
    virtual uint64_t chainRunAhead() const { return 0; }

    /**
     * Deliver `n` elements of that run at once, leaving the source as `n`
     * next() calls would. Requires n <= chainRunAhead().
     *
     * @return The element every one of the `n` calls would have given.
     */
    virtual MicroOp takeChainRun(uint64_t n);

    /** Append capacity/high-water stats of any internal pools. */
    virtual void collectPoolStats(std::vector<PoolStat> &) const {}
};

/** Plays back a fixed vector of micro-ops; used by tests and examples. */
class TraceProgram : public Program
{
  public:
    explicit TraceProgram(std::vector<MicroOp> ops);

    bool next(MicroOp &op) override;

    /** Ops remaining to be fetched. */
    size_t remaining() const { return ops_.size() - pos_; }

  private:
    std::vector<MicroOp> ops_;
    size_t pos_ = 0;
};

/**
 * Rollback window over an inner Program.
 *
 * Fetched ops are retained until released; a checkpoint captures the
 * current cursor and rewind() moves the cursor back to a checkpointed
 * position so the same ops are re-delivered after a speculation abort.
 */
class ReplayableProgram : public Program
{
  public:
    /** Opaque stream position. */
    using Cursor = uint64_t;

    explicit ReplayableProgram(Program &inner);

    bool next(MicroOp &op) override;

    /** The inner program's run, while no replay is pending; else 0. */
    uint64_t
    chainRunAhead() const override
    {
        return offset_ == window_.size() ? inner_.chainRunAhead() : 0;
    }

    /**
     * Take `n` run elements from the inner program and append them to
     * the window in one go. A caller that retires ops meanwhile splits
     * the take at its release() points, so the window grows and shrinks
     * in the same order as under one next() per element.
     */
    MicroOp takeChainRun(uint64_t n) override;

    /** Stream position of the next op next() will deliver. */
    Cursor cursor() const { return base_ + offset_; }

    /** Rewind so the op at `c` is delivered next; `c` must be retained. */
    void rewind(Cursor c);

    /** Drop retained ops older than `c`; they can no longer be replayed. */
    void release(Cursor c);

    /** Number of ops currently retained for potential replay. */
    size_t retained() const { return window_.size(); }

    void
    collectPoolStats(std::vector<PoolStat> &out) const override
    {
        out.push_back(window_.stat("program.window"));
        inner_.collectPoolStats(out);
    }

    /**
     * Snapshot serializer: retained window + cursor bookkeeping. The
     * inner Program is restored separately (it is the OpEmitter).
     */
    template <class Ar> void serialize(Ar &ar);

  private:
    Program &inner_;
    RingDeque<MicroOp> window_;
    /** Stream index of window_[0]. */
    Cursor base_ = 0;
    /** Read offset into window_; window_.size() means "at the frontier". */
    size_t offset_ = 0;
};

} // namespace sp

#endif // SP_ISA_PROGRAM_HH
