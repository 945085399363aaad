/**
 * @file
 * Exhaustive per-cycle attribution (CPI stack) plus a speculation ledger.
 *
 * The paper's headline claim is that speculative execution *hides*
 * persist-barrier latency; aggregate fence-stall counters cannot show how
 * much of a barrier's latency was overlapped with useful work and how much
 * remained exposed. The CycleAccountant answers both questions with two
 * parallel decompositions maintained from the core's per-cycle flags:
 *
 *  1. An *exclusive* cycle taxonomy: every simulated cycle lands in
 *     exactly one CycleCat, classified by a strict priority order over
 *     the core's CycleFlags (see OooCore::classifyCycle). The hard
 *     invariant, asserted by CycleAccountant::finalize(), is
 *
 *         sum over categories == Stats::cycles
 *
 *     including under event-driven cycle skipping: a skipped idle span
 *     is attributed in bulk to the classification of its first cycle,
 *     exactly mirroring how the Stats stall counters handle skips.
 *
 *  2. A *speculation ledger* over persist-barrier windows. A cycle is
 *     "barrier-pending" when a fence is blocked at the head of the ROB
 *     or the core is speculating past an incomplete pcommit gate. Each
 *     pending cycle is either hidden (the core retired/issued useful
 *     work that cycle) or exposed (it stalled or idled); by construction
 *
 *         hiddenCycles + exposedCycles == barrierCycles.
 *
 *     Contiguous pending windows are recorded as barrier episodes with
 *     latency/hidden histograms, feeding p50/p99/p999 tail reporting.
 *
 * Accounting is a pure observer: with no accountant attached the core
 * runs the exact seed path (all hooks are guarded), and attaching one
 * never changes timing, Stats, or the durable image.
 */

#ifndef SP_SIM_CYCLE_ACCOUNT_HH
#define SP_SIM_CYCLE_ACCOUNT_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>

#include "sim/histogram.hh"
#include "sim/types.hh"

namespace sp
{

/**
 * Exclusive cycle categories, in classification priority order (the
 * first matching condition wins; see OooCore::classifyCycle).
 */
enum class CycleCat : uint8_t
{
    /** Retirement blocked by a fence/xchg ordering wait. Telescopes
     *  exactly to Stats::fenceStallCycles (same condition, same skip
     *  attribution). */
    kFenceExposed = 0,
    /** Retirement blocked because the SSB is full. */
    kSsbFull,
    /** Retirement blocked waiting for a free checkpoint. */
    kCheckpoint,
    /** Retirement blocked on the post-retirement store buffer. */
    kStoreBuffer,
    /** Forward progress re-executing work discarded by an abort. */
    kAbortReplay,
    /** Forward progress on first-time work (retire/issue/drain). */
    kCompute,
    /** Fetch queue full and nothing else moved: the backend is
     *  latency-bound with the frontend backed up behind it. */
    kFetchStall,
    /** Idle while the watchdog holds speculation off (degraded mode or
     *  backoff window). */
    kWatchdogDegraded,
    /** Idle while the memory system still has WPQ occupancy or pcommit
     *  flushes in flight (the machine is waiting on the drain). */
    kWpqDrain,
    /** Idle on execution latency with a quiet memory system; exactly
     *  the spans event skipping fast-forwards. */
    kIdle,

    kNumCats,
};

constexpr unsigned kNumCycleCats = static_cast<unsigned>(CycleCat::kNumCats);

/** Short stable name ("fence_exposed", "compute", ...). */
const char *cycleCatName(CycleCat cat);

/** Accounting knobs on a RunConfig. */
struct AccountOptions
{
    /** Master switch; off (the default) is the bit-identical seed path. */
    bool enabled = false;
};

/**
 * Persist-barrier window ledger: how much barrier latency speculation
 * hid versus left exposed.
 */
struct SpeculationLedger
{
    /** Cycles with a barrier pending (== hidden + exposed). */
    uint64_t barrierCycles = 0;
    /** Pending cycles overlapped with useful forward progress. */
    uint64_t hiddenCycles = 0;
    /** Pending cycles the core stalled, idled, or replayed through. */
    uint64_t exposedCycles = 0;
    /** Contiguous barrier-pending windows observed. */
    uint64_t barrierEpisodes = 0;
    /** Successful speculation entries (SPECULATE triggers). */
    uint64_t specEpisodes = 0;
    /** Per-episode total latency (cycles from window open to close). */
    Histogram episodeLatency;
    /** Per-episode hidden cycles. */
    Histogram episodeHidden;

    void merge(const SpeculationLedger &other);
};

/**
 * The mergeable result of an accounted run (or of many, once merged by a
 * sweep). Plain data: no behavior beyond merge/report.
 */
struct CycleAccount
{
    /** False when accounting was off (all fields zero). */
    bool enabled = false;
    /** Always zero: named padding (see SnapshotWriter::determinedBytes). */
    uint8_t reserved[7] = {};
    /** Cycles attributed, by category; sums to `cycles`. */
    std::array<uint64_t, kNumCycleCats> categories{};
    /** Total cycles accounted; equals Stats::cycles per run. */
    uint64_t cycles = 0;
    SpeculationLedger ledger;

    uint64_t cat(CycleCat c) const
    {
        return categories[static_cast<unsigned>(c)];
    }

    /** Sum over categories (the identity check against simCycles). */
    uint64_t total() const;

    /** Internal consistency: total()==cycles, ledger arms telescope. */
    bool selfConsistent() const;

    /** Fold another run's account into this one (sweep aggregation). */
    void merge(const CycleAccount &other);

    /** Human-readable table: category cycles, shares, ledger. */
    void print(std::ostream &os, const std::string &prefix = "") const;

    /** One-line JSON object (validated by jsonIsValid in tests/spcli). */
    std::string toJson() const;
};

/**
 * The active per-run observer the core drives. One call per classified
 * cycle (or per skipped span), plus edge notifications.
 */
class CycleAccountant
{
  public:
    /**
     * Attribute `n` consecutive cycles to `cat`. `barrierPending` is the
     * ledger condition for those cycles; window edges are detected here.
     */
    void account(CycleCat cat, bool barrierPending, uint64_t n);

    /** A speculation trigger succeeded (SPECULATE). */
    void noteSpeculationEntered() { ++account_.ledger.specEpisodes; }

    /**
     * Close any open barrier episode, stamp and validate the account.
     * Asserts the exhaustiveness identity sum(categories) == simCycles.
     */
    CycleAccount finalize(uint64_t simCycles);

  private:
    void closeEpisode();

    CycleAccount account_;
    bool inEpisode_ = false;
    /** Always zero: named padding (see SnapshotWriter::determinedBytes). */
    uint8_t reserved[7] = {};
    uint64_t episodeLen_ = 0;
    uint64_t episodeHidden_ = 0;
};

} // namespace sp

#endif // SP_SIM_CYCLE_ACCOUNT_HH
