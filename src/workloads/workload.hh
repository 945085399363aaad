/**
 * @file
 * Workload framework: the seven persistent-data-structure benchmarks of
 * Table 1 share this base.
 *
 * A workload owns the volatile functional image, the NVMM heap allocator,
 * the OpEmitter, and a reusable Tx context. setup() fast-forwards the
 * #InitOps of Table 1 with emission muted; afterwards the timing run pulls
 * #SimOps operations lazily through the emitter's generator hook.
 *
 * Every transactional operation bumps a durable generation counter inside
 * the transaction. After a crash, recovery rolls the image to a
 * transaction boundary, the counter names that boundary, and tests replay
 * a fresh instance functionally to the same generation and require exact
 * content equality -- a mechanical proof of the WAL protocol's failure
 * safety.
 */

#ifndef SP_WORKLOADS_WORKLOAD_HH
#define SP_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mem/mem_image.hh"
#include "pmem/allocator.hh"
#include "pmem/layout.hh"
#include "pmem/op_emitter.hh"
#include "pmem/tx.hh"
#include "sim/rng.hh"

namespace sp
{

class SnapshotWriter;
class SnapshotReader;

/** The seven benchmarks of Table 1. */
enum class WorkloadKind
{
    kGraph,      // GH
    kHashMap,    // HM
    kLinkedList, // LL
    kStringSwap, // SS
    kAvlTree,    // AT
    kBTree,      // BT
    kRbTree,     // RT
    /**
     * AT-inc: the AVL tree under incremental (per-rebalance-step)
     * logging. Not part of Table 1, so allWorkloadKinds() excludes it;
     * fault campaigns add it explicitly because its many small
     * transactions stress crash recovery differently than AT's full
     * path logging.
     */
    kAvlTreeIncremental,
};

/** Parameters of one workload run. */
struct WorkloadParams
{
    uint64_t seed = 42;
    /** Operations executed muted to populate the structure (Table 1). */
    uint64_t initOps = 0;
    /** Operations measured by the timing run (Table 1). */
    uint64_t simOps = 0;
    PersistMode mode = PersistMode::kLogPSf;
    /** Use clflushopt (write back + evict) instead of clwb. */
    bool evictOnPersist = false;
    /**
     * Arm the checksummed image format (log_format.hh): per-entry and
     * header CRCs on the undo log plus per-line CRC slots on covered
     * data, maintained inside the transaction protocol so hardened
     * recovery can detect media corruption. Off (the default) emits the
     * exact legacy op stream -- bit-identical to seed fingerprints.
     */
    bool checksums = false;
    /**
     * Single-site barrier mutation (audit validation harness); inactive
     * by default. Never changes functional state -- see BarrierMutation.
     */
    BarrierMutation mutation;

    bool operator==(const WorkloadParams &) const = default;
};

/** Base class of all benchmarks. */
class Workload
{
  public:
    explicit Workload(const WorkloadParams &params);
    virtual ~Workload() = default;

    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Table 1 abbreviation ("LL", "BT", ...). */
    virtual const char *name() const = 0;

    /** Populate the structure: run initOps with emission muted. */
    void setup();

    /**
     * The micro-op source to feed a core; ops are generated lazily, one
     * data-structure operation at a time.
     */
    Program &program() { return em_; }

    /** Volatile functional image (ground truth for checks). */
    MemImage &image() { return em_.image(); }
    const MemImage &image() const { return em_.image(); }

    const WorkloadParams &params() const { return params_; }

    /** Operations generated so far in the measured phase. */
    uint64_t opsGenerated() const { return opsDone_; }

    /** Run `ops` operations functionally only (crash-replay comparison). */
    void runFunctional(uint64_t ops);

    /**
     * Run operations functionally until the volatile generation counter
     * reaches `gen` (crash-replay comparison: recovery rolls the durable
     * image back to a transaction boundary named by its generation).
     */
    void runFunctionalToGeneration(uint64_t gen);

    /**
     * Structural invariants of the data structure in `img` (volatile or
     * post-recovery durable).
     *
     * @param why Filled with a diagnostic when the check fails.
     */
    virtual bool checkImage(const MemImage &img, std::string *why) const = 0;

    /** Full logical contents, sorted, for exact image comparison. */
    virtual std::vector<std::pair<uint64_t, uint64_t>>
    contents(const MemImage &img) const = 0;

    /** Durable generation counter stored in `img`. */
    static uint64_t generation(const MemImage &img);

    /**
     * Snapshot serializer: volatile image, allocator, emitter, tx, rng,
     * and op progress. Restoring into a freshly constructed (setup()
     * never called) instance is supported and is how replay machines
     * skip the functional fast-forward: the generator hook is installed
     * by the constructor, and everything else is value state. The pair
     * exists because a template cannot be virtual: both forward to
     * serializeBase(), and a subclass with fields of its own overrides
     * both to append them.
     */
    virtual void serialize(SnapshotWriter &ar);
    virtual void serialize(SnapshotReader &ar);

  protected:
    /** The base fields, in one body for both directions. */
    template <class Ar> void serializeBase(Ar &ar);

    /** Build the structure's initial state (called once before any op). */
    virtual void create() = 0;

    /** Perform one insert/delete/swap operation through the emitter. */
    virtual void doOperation() = 0;

    /**
     * Serial application work around the data-structure operation (rng,
     * hashing, call frames). Chains behind the previous operation's work,
     * as real code does through program state, so operations do not
     * artificially overlap in the out-of-order window.
     */
    void appWork(unsigned cycles);

    /** Dependence handle of the most recent appWork (for search roots). */
    OpEmitter::Handle appDep() const { return serialHandle_; }

    /**
     * During runFunctionalToGeneration(), true once the target generation
     * has been reached. Multi-transaction operations (incremental logging)
     * must stop between their transactions when this becomes true so
     * replay can land on any transaction boundary, not just operation
     * boundaries.
     */
    bool replayStopRequested() const;

    /** Log the generation counter; call during the tx logging phase. */
    void logGeneration();

    /** Bump the generation counter; call during the tx update phase. */
    void bumpGeneration();

    WorkloadParams params_;
    std::unique_ptr<MemImage> imageStorage_;
    NvmAllocator alloc_;
    OpEmitter em_;
    Tx tx_;
    Rng rng_;
    uint64_t opsDone_ = 0;
    bool created_ = false;
    OpEmitter::Handle serialHandle_ = OpEmitter::kNoDep;

  private:
    uint64_t stopAtGen_ = 0;

    bool generateNext();
    void seedChecksums();
};

/** Address of the durable generation counter. */
constexpr Addr kGenerationAddr = kMetaBase;

/** First metadata address available to concrete workloads. */
constexpr Addr kWorkloadMetaBase = kMetaBase + kBlockBytes;

} // namespace sp

#endif // SP_WORKLOADS_WORKLOAD_HH
