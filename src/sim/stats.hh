/**
 * @file
 * Simulation statistics.
 *
 * One flat struct of counters filled in by the core, caches, memory
 * controller, and SP components during a run. Everything needed to
 * regenerate the paper's Figures 8-14 is collected here.
 */

#ifndef SP_SIM_STATS_HH
#define SP_SIM_STATS_HH

#include <cstdint>
#include <ostream>
#include <string>

#include "sim/histogram.hh"
#include "sim/types.hh"

namespace sp
{

/** All counters produced by one simulation run. */
struct Stats
{
    // --- Core progress -----------------------------------------------
    /** Total simulated cycles. */
    Tick cycles = 0;
    /** Committed (retired) micro-ops, counting RLE ALU repeats. */
    uint64_t instructions = 0;
    /** Retired loads. */
    uint64_t loads = 0;
    /** Retired stores. */
    uint64_t stores = 0;
    /** Retired clwb/clflushopt/clflush micro-ops. */
    uint64_t cacheWritebackOps = 0;
    /** Retired pcommit micro-ops. */
    uint64_t pcommits = 0;
    /** Retired sfence/mfence micro-ops. */
    uint64_t fences = 0;

    // --- Pipeline stalls (Figure 10) ---------------------------------
    /** Cycles the fetch stage could not insert because fetchQ was full. */
    Tick fetchQueueStallCycles = 0;
    /** Cycles retirement was blocked by a non-speculated fence. */
    Tick fenceStallCycles = 0;
    /** Cycles retirement was blocked waiting for a free SSB entry. */
    Tick ssbFullStallCycles = 0;
    /** Cycles retirement was blocked waiting for a free checkpoint. */
    Tick checkpointStallCycles = 0;
    /** Cycles retirement was blocked by a full post-retire store buffer. */
    Tick storeBufferStallCycles = 0;

    // --- Memory system ------------------------------------------------
    uint64_t l1dHits = 0;
    uint64_t l1dMisses = 0;
    uint64_t l2Hits = 0;
    uint64_t l2Misses = 0;
    uint64_t l3Hits = 0;
    uint64_t l3Misses = 0;
    /** Dirty blocks written back into the memory controller WPQ. */
    uint64_t wpqInserts = 0;
    /** Writes merged into an already-queued WPQ entry (same block). */
    uint64_t wpqCoalesced = 0;
    /** WPQ entries drained to the NVMM device. */
    uint64_t nvmmWrites = 0;
    /** NVMM device reads (LLC miss fills). */
    uint64_t nvmmReads = 0;

    // --- pcommit behaviour (Figures 11-12) ----------------------------
    /** Maximum pcommit flushes simultaneously outstanding at the MC. */
    uint64_t maxInflightPcommits = 0;
    /**
     * Stores (including clwb/clflush ops) retired while at least one
     * pcommit was outstanding; Figure 12 divides this by pcommits.
     */
    uint64_t storesDuringPcommit = 0;

    // --- Speculative persistence (Figures 13-14) ----------------------
    /** Speculative epochs started (checkpoint allocations). */
    uint64_t epochsStarted = 0;
    /** Epochs committed successfully. */
    uint64_t epochsCommitted = 0;
    /** Speculation aborts (coherence conflicts / injected probes). */
    uint64_t aborts = 0;
    /** Entries ever enqueued into the SSB. */
    uint64_t ssbEnqueues = 0;
    /** High-water mark of SSB occupancy. */
    uint64_t ssbMaxOccupancy = 0;
    /** Loads executed while the core was in speculative mode. */
    uint64_t specLoads = 0;
    /** Bloom filter lookups (speculative loads). */
    uint64_t bloomLookups = 0;
    /** Bloom filter hits (positive answers). */
    uint64_t bloomHits = 0;
    /** Bloom hits for which the SSB search found no matching store. */
    uint64_t bloomFalsePositives = 0;
    /** Loads whose value was forwarded from the SSB. */
    uint64_t ssbForwards = 0;
    /** sfence-pcommit-sfence triples folded into one checkpoint. */
    uint64_t spsTriples = 0;

    // --- Fault injection & forward progress ---------------------------
    /** External coherence probes delivered by the probe source. */
    uint64_t conflictProbes = 0;
    /** Watchdog backoff windows armed (one per abort while enabled). */
    uint64_t watchdogBackoffs = 0;
    /** Times the watchdog fell back to non-speculative execution. */
    uint64_t watchdogDegradations = 0;
    /** Times the watchdog re-armed speculation after a fallback window. */
    uint64_t watchdogRearms = 0;
    /** Fences retired while the speculation fallback was active. */
    uint64_t degradedFences = 0;

    /** Distribution of pcommit flush latencies (issue to completion). */
    Histogram flushLatency;

    /** Ratio of committed instructions to a baseline run's. */
    double instructionRatio(const Stats &base) const;
    /** Fetch-queue stall cycles over a baseline run's total cycles. */
    double fetchStallRatio(const Stats &base) const;
    /** Execution-time overhead versus a baseline run (1.0 == +100%). */
    double overheadVs(const Stats &base) const;
    /** Average stores in flight per pcommit (Figure 12 metric). */
    double storesPerPcommit() const;
    /** Bloom filter false-positive rate over all lookups (Figure 14). */
    double bloomFalsePositiveRate() const;

    /** Human-readable dump of every counter. */
    void print(std::ostream &os, const std::string &prefix = "") const;
};

} // namespace sp

#endif // SP_SIM_STATS_HH
