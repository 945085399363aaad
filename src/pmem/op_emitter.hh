/**
 * @file
 * OpEmitter: the bridge between functional workload code and the timing
 * simulator.
 *
 * Workload code performs every memory access through this object. Each
 * access mutates/reads the volatile functional image immediately (the
 * workload "runs ahead" of timing) and, unless muted, appends a micro-op
 * the core will later fetch and execute. Persistence instructions are
 * filtered by PersistMode so one workload implementation yields all four
 * variants of Figure 8 (baseline, Log, Log+P, Log+P+Sf).
 *
 * Loads return a handle that later ops can name as their dependence,
 * which is how pointer-chasing (tree/list search) serializes in the
 * pipeline model.
 */

#ifndef SP_PMEM_OP_EMITTER_HH
#define SP_PMEM_OP_EMITTER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/addr_map.hh"
#include "isa/microop.hh"
#include "isa/program.hh"
#include "mem/mem_image.hh"
#include "sim/logging.hh"
#include "sim/pool.hh"

namespace sp
{


/** Which persistence machinery a workload variant includes (Figure 8). */
enum class PersistMode : uint8_t
{
    /** Baseline: no logging, no persistence instructions. */
    kNone,
    /** Write-ahead-logging code only. */
    kLog,
    /** Logging + clwb/clflushopt/pcommit, but no ordering fences. */
    kLogP,
    /** Logging + PMEM instructions + sfences: the fail-safe variant. */
    kLogPSf,
};

const char *persistModeName(PersistMode mode);

/**
 * A single-site barrier mutation for the durability-audit validation
 * loop: drop, duplicate, or delay the k-th emitted persistence op of a
 * chosen kind. Mutations never touch the functional image -- a mutant
 * run computes exactly the same final state -- so any observable
 * difference is confined to what a crash can expose, which is precisely
 * what the DurabilityAuditor claims to predict.
 */
struct BarrierMutation
{
    enum class Kind : uint8_t
    {
        kNone,
        /** Swallow the op. */
        kDrop,
        /** Emit the op twice back to back. */
        kDuplicate,
        /**
         * Hold the op back and re-emit it after `delayBarriers` further
         * pcommits have gone by (right after the next sfence). Delaying
         * past a single barrier is FIFO-benign on one controller; two
         * barriers puts the flush a full epoch late. If the run ends
         * while the op is still held, the delay degenerates to a drop.
         */
        kDelay,
    };

    /** Which op kind to mutate: kClwb matches the whole flush family
     *  (clwb/clflushopt/clflush); kSfence matches sfence/mfence. */
    enum class Target : uint8_t
    {
        kClwb,
        kSfence,
        kPcommit,
    };

    Kind kind = Kind::kNone;
    Target target = Target::kClwb;
    /** 0-based index among matching emissions in the measured phase. */
    uint64_t occurrence = 0;
    /** kDelay: pcommits to let pass before re-emitting. */
    unsigned delayBarriers = 2;

    bool active() const { return kind != Kind::kNone; }

    bool operator==(const BarrierMutation &) const = default;
};

/** Short human-readable rendering ("drop:clwb@17"), "" when inactive. */
std::string describeMutation(const BarrierMutation &m);

/** Functional execution + micro-op emission. */
class OpEmitter : public Program
{
  public:
    /** Handle to a previously emitted op, for dependence chaining. */
    using Handle = uint64_t;
    static constexpr Handle kNoDep = 0;

    /**
     * @param image Volatile functional image.
     * @param mode Persistence variant to emit.
     */
    OpEmitter(MemImage &image, PersistMode mode);

    PersistMode mode() const { return mode_; }

    /**
     * While muted, accesses update the functional image but emit nothing
     * (used to fast-forward the #InitOps of Table 1).
     */
    void setMuted(bool muted) { muted_ = muted; }
    bool muted() const { return muted_; }

    /**
     * Emit clflushopt (write back AND evict) instead of clwb for every
     * clwb()/clwbRange() call. The paper uses clwb because keeping the
     * block avoids re-fetching hot metadata; this switch quantifies that
     * choice (clflush itself is strictly worse, paper footnote 2).
     */
    void setEvictOnPersist(bool evict) { evictOnPersist_ = evict; }
    bool evictOnPersist() const { return evictOnPersist_; }

    /**
     * Install a barrier mutation (audit validation harness). Applies to
     * unmuted emission only, so occurrence indices count measured-phase
     * ops.
     */
    void setMutation(const BarrierMutation &m) { mutation_ = m; }
    const BarrierMutation &mutation() const { return mutation_; }

    /**
     * Install the generator that refills the op queue: called when the
     * queue runs dry; returns false when the workload is finished.
     */
    void setGenerator(std::function<bool()> gen) { generator_ = std::move(gen); }

    // --- Program interface (consumed by the core's fetch stage) ---------
    bool next(MicroOp &op) override;
    /** Elements left in the queue-front chain record, once they all
     *  have `dep = 1` (after the first, or for a record made that way). */
    uint64_t chainRunAhead() const override;
    MicroOp takeChainRun(uint64_t n) override;

    // --- Functional + emitting accessors ---------------------------------
    /** Load up to 8 bytes; returns the value. `handle` out: this op. */
    uint64_t load(Addr addr, unsigned size, Handle dep = kNoDep,
                  Handle *handle = nullptr);

    /** Store up to 8 bytes. */
    void store(Addr addr, uint64_t value, unsigned size,
               Handle dep = kNoDep);

    /** Generic compute: `count` independent single-cycle ops. */
    void alu(unsigned count, Handle dep = kNoDep);

    /**
     * Serial compute: a chain of `count` dependent single-cycle ops
     * (executes in ~count cycles regardless of issue width).
     *
     * Each element is still its own micro-op and takes its own ROB
     * slot, so a stalled fence can only overlap as much serial work as
     * the reorder buffer holds; compressing the chain into multi-cycle
     * entries would let fences hide under impossibly deep lookahead.
     * Only the queue stores the run compactly, as one record that
     * next() unrolls one element per call.
     *
     * @return Handle of the chain's last op, so further work -- including
     *         the next operation's chain -- can serialize behind it.
     */
    Handle aluChain(unsigned count, Handle dep = kNoDep);

    /**
     * Copy `len` bytes between NVMM locations in 8-byte chunks (loads
     * chained to `dep`, stores to each load).
     */
    void memcpy(Addr dst, Addr src, unsigned len, Handle dep = kNoDep);

    // --- Persistence instructions (filtered by mode) ---------------------
    /** clwb of the block containing addr; emitted for kLogP and up. */
    void clwb(Addr addr);

    /** clwb every block overlapping [addr, addr+len). */
    void clwbRange(Addr addr, unsigned len);

    /** clflushopt of the block containing addr. */
    void clflushOpt(Addr addr);

    /** pcommit alone; emitted for kLogP and up. */
    void pcommit();

    /** sfence; emitted only for kLogPSf. */
    void sfence();

    /**
     * Full persist barrier: sfence; pcommit; sfence (paper Section 2.2).
     * kLogP emits only the pcommit; kLog/kNone emit nothing.
     */
    void persistBarrier();

    // --- Introspection ----------------------------------------------------
    /** Ops emitted so far (handles are indices into this count). */
    uint64_t emitted() const { return emitted_; }

    /** Direct functional image access (for checkers; no emission). */
    MemImage &image() { return image_; }
    const MemImage &image() const { return image_; }

    // --- Shadow and journal execution -------------------------------------
    /**
     * Blocks touched by a shadow or journal pass. Tree workloads dry-run
     * an operation in shadow mode to learn the exact set of blocks it
     * reads and writes; that set becomes the undo log ("conservatively
     * log all nodes that may be required for rebalancing", paper Section
     * 3.2), after which the operation re-executes for real. Muted, a
     * journal pass learns the same set while executing for real.
     */
    struct ShadowResult
    {
        /** Every block read or written. */
        std::vector<Addr> touchedBlocks;
        /** The blocks written, a subset of touchedBlocks. */
        std::vector<Addr> writtenBlocks;
    };

    /**
     * Enter shadow mode: loads see an overlay over the image, stores go
     * only to the overlay, nothing is emitted, and touched blocks are
     * recorded.
     */
    void beginShadow();

    /** Leave shadow mode, discarding the overlay. */
    ShadowResult endShadow();

    /**
     * Allocation-free variant: fills the touched-block lists of `out`
     * (sorted, deduplicated). A caller that reuses the same ShadowResult
     * recycles its vector capacity across transactions.
     */
    void endShadow(ShadowResult &out);

    bool inShadow() const { return shadow_; }

    /**
     * Enter journal mode, the shadow pass inverted for muted execution:
     * loads and stores hit the image as usual, touched blocks are
     * recorded exactly as a shadow pass records them, and each block's
     * first write stashes its pre-image. A muted transaction thereby
     * runs its body once and still logs the bytes the two-pass protocol
     * logs (exchangeJournal). Requires a muted emitter.
     */
    void beginJournal();

    /**
     * Leave journal mode: fills the touched-block lists of `out`
     * (sorted, deduplicated, as endShadow does). The stashed pre-images
     * stay until the next beginShadow/beginJournal.
     */
    void endJournal(ShadowResult &out);

    /**
     * Swap every stashed pre-image with the image's current block. The
     * first call rolls the written blocks back to their state before
     * the journal pass; the second restores the post-pass image.
     */
    void exchangeJournal();

    /**
     * Stores executed so far, emitted or not: a caller compares two
     * readings to learn whether code in between wrote anything.
     */
    uint64_t stores() const { return stores_; }

    /**
     * Muted and outside shadow and journal passes: a store only writes
     * the image, so a run of them may be made as one write.
     */
    bool mutedDirect() const { return muted_ && !shadow_ && !journal_; }

    /**
     * Write `len` bytes at `addr` in one image write, standing for the
     * 8-byte stores (the last one short) that storing them word by word
     * makes; stores() counts those. Requires mutedDirect().
     */
    void storeBytes(Addr addr, const void *bytes, unsigned len);

    /** `emitter.queue` counts queue records: a chain run is one. */
    void
    collectPoolStats(std::vector<PoolStat> &out) const override
    {
        out.push_back(queue_.stat("emitter.queue"));
        out.push_back({"emitter.overlayBlocks", overlayBlocks_.capacity(),
                       overlayBlocks_.size()});
    }

    /**
     * Snapshot serializer: pending op queue (one entry per element,
     * chain runs unrolled), stream position, and the barrier-mutation
     * interception state. The generator callback and the image
     * reference are rebuilt by the restoring workload; shadow passes
     * never span a snapshot point (asserted).
     */
    template <class Ar> void serialize(Ar &ar);

  private:
    MemImage &image_;
    PersistMode mode_;
    bool muted_ = false;
    /**
     * Ops not yet fetched. A chain run is one kAluChain record whose
     * `value` holds the elements left to deliver; snapshots save it
     * unrolled.
     */
    RingDeque<MicroOp> queue_;
    std::function<bool()> generator_;
    uint64_t emitted_ = 0;
    bool finished_ = false;

    bool evictOnPersist_ = false;
    bool shadow_ = false;
    bool journal_ = false;
    /** The pre-images of the last journal pass are still stashed. */
    bool journalStashed_ = false;
    uint64_t stores_ = 0;
    /**
     * Pooled block storage; grows to high-water, then reused. A shadow
     * pass keeps its overlay here, a journal pass its pre-images.
     */
    std::vector<std::array<uint8_t, kBlockBytes>> overlayBlocks_;
    /** Blocks of overlayBlocks_ in use this pass. */
    uint32_t overlayCount_ = 0;
    /** shadowWrites_[i] is the block whose contents overlayBlocks_[i]
     *  holds, in first-write order. */
    std::vector<Addr> shadowWrites_;

    /** A block touched this pass, and its overlay block once written. */
    struct Touch
    {
        Addr blk;
        uint32_t overlay;
    };
    static constexpr uint32_t kNoOverlay = ~0u;
    /** Blocks touched this pass, each once, in first-touch order. */
    std::vector<Touch> touched_;
    /** blockAddr -> index into touched_; cleared per pass. */
    AddrIndexMap touchIndex_;
    /**
     * Direct-mapped filter of recently touched blocks in front of
     * touchIndex_. Tree code alternates between a node and its child,
     * which a one-entry filter misses on every access; 64 slots keep a
     * whole root-to-leaf path.
     */
    struct RecentTouch
    {
        Addr blk;
        uint32_t idx;
    };
    static constexpr unsigned kRecentSlots = 64;
    static constexpr Addr kNoBlock = ~Addr{0};
    std::array<RecentTouch, kRecentSlots> recent_{};

    void beginPass();
    /** Sort touched_ once and fill both lists of `out`. */
    void collectTouched(ShadowResult &out);
    /** The record of `blockAddr` this pass, made on its first touch. */
    Touch &touch(Addr blockAddr)
    {
        RecentTouch &recent =
            recent_[(blockAddr / kBlockBytes) % kRecentSlots];
        if (recent.blk != blockAddr)
            recent = {blockAddr, lookupTouch(blockAddr)};
        return touched_[recent.idx];
    }
    /** touch() past the filter: the index of the block's record. */
    uint32_t lookupTouch(Addr blockAddr);
    /** touch() for a read of [addr, addr+size). */
    Touch &recordRead(Addr addr, unsigned size)
    {
        Addr blk_addr = blockAlign(addr);
        SP_ASSERT(blockAlign(addr + size - 1) == blk_addr,
                  "shadow read crosses a block boundary");
        return touch(blk_addr);
    }
    uint64_t shadowRead(Addr addr, unsigned size);
    void shadowWrite(Addr addr, uint64_t value, unsigned size);
    std::array<uint8_t, kBlockBytes> &overlayBlock(Addr blockAddr);

    /** Convert a handle into a backward distance for the op being built. */
    uint16_t depDistance(Handle dep) const;

    void emit(const MicroOp &op);
    /** Append without mutation interception. */
    void emitRaw(const MicroOp &op);
    /** Mutation path of emit(); true when it consumed the op. */
    bool mutateEmit(const MicroOp &op);

    BarrierMutation mutation_;
    /** Matching ops seen so far (occurrence counter). */
    uint64_t mutationMatches_ = 0;
    /** The target occurrence has been intercepted. */
    bool mutationDone_ = false;
    /** kDelay: an op is being held back. */
    bool mutationHolding_ = false;
    MicroOp mutationHeld_{};
    unsigned mutationPcommitsPassed_ = 0;
};

} // namespace sp

#endif // SP_PMEM_OP_EMITTER_HH
