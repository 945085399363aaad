/**
 * @file
 * The dynamic micro-op stream consumed by the out-of-order core.
 *
 * Workloads execute functionally while emitting this stream; the timing
 * model replays it through the pipeline. The op set mirrors the subset of
 * x86 the paper's benchmarks exercise: plain compute, loads/stores, the
 * PMEM persistence instructions (clwb, clflushopt, clflush, pcommit), and
 * the ordering instructions (sfence, mfence, xchg/LOCK).
 */

#ifndef SP_ISA_MICROOP_HH
#define SP_ISA_MICROOP_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace sp
{

/** Dynamic micro-op kinds. */
enum class OpType : uint8_t
{
    /** Generic single-cycle compute op; `repeat` run-length encodes runs. */
    kAlu,
    /**
     * A serial dependence chain of `repeat` single-cycle compute ops
     * (address generation, hashing, call frames): occupies one ROB slot,
     * takes `repeat` cycles to execute, counts as `repeat` instructions.
     */
    kAluChain,
    /** Memory load of `size` bytes at `addr`. */
    kLoad,
    /** Memory store of `size` bytes of `value` at `addr`. */
    kStore,
    /** Write back (keep) the dirty block containing `addr`. */
    kClwb,
    /** Write back and evict the block containing `addr`. */
    kClflushOpt,
    /** Legacy serializing flush (modeled like clflushopt, stricter order). */
    kClflush,
    /** Persist barrier: flush memory-controller write-pending queues. */
    kPcommit,
    /** Store fence: orders stores and pending PMEM operations. */
    kSfence,
    /** Full fence: modeled with sfence persist semantics plus load order. */
    kMfence,
    /** Atomic exchange; carries an implicit full fence (LOCK semantics). */
    kXchg,
};

/** True for clwb/clflushopt/clflush/pcommit (the PMEM persist ops). */
bool isPersistOp(OpType t);

/** True for ops the paper treats as speculation-epoch boundaries. */
bool isOrderingOp(OpType t);

/** True for ops that reference memory (load/store/xchg/flush family). */
bool isMemOp(OpType t);

/** Short mnemonic for tracing. */
const char *opName(OpType t);

/**
 * One dynamic micro-op.
 *
 * `dep` is a backward distance (in dynamic micro-ops) to a producer this op
 * must wait for before issuing; 0 means no register dependence. Workload
 * generators use it to express pointer-chasing chains, which is what makes
 * tree search latency visible to the timing model.
 */
struct MicroOp
{
    OpType type = OpType::kAlu;
    /** Access size in bytes for loads/stores (1..64). */
    uint8_t size = 0;
    /** Backward dependence distance in micro-ops (0 = none). */
    uint16_t dep = 0;
    /** Run length for kAlu (>=1); always 1 for other types. */
    uint16_t repeat = 1;
    /**
     * Always zero. Names the bytes that would otherwise be padding, so
     * the raw bytes snapshots serialize are fully determined.
     */
    uint16_t reserved = 0;
    /** Effective address for memory ops. */
    Addr addr = 0;
    /** Store payload (low `size` bytes are meaningful). */
    uint64_t value = 0;

    /** Number of architectural instructions this op represents. */
    uint64_t instructionCount() const { return repeat; }

    /** Compact single-line rendering for debug traces. */
    std::string toString() const;

    // Convenience constructors -----------------------------------------
    static MicroOp alu(uint16_t count, uint16_t dep = 0);
    static MicroOp aluChain(uint16_t count, uint16_t dep = 0);
    static MicroOp load(Addr a, uint8_t size, uint16_t dep = 0);
    static MicroOp store(Addr a, uint64_t value, uint8_t size,
                         uint16_t dep = 0);
    static MicroOp clwb(Addr a);
    static MicroOp clflushOpt(Addr a);
    static MicroOp clflush(Addr a);
    static MicroOp pcommit();
    static MicroOp sfence();
    static MicroOp mfence();
    static MicroOp xchg(Addr a, uint64_t value);
};

} // namespace sp

#endif // SP_ISA_MICROOP_HH
