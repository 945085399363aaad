/**
 * @file
 * Structured tracing and time-series instrumentation for the SP pipeline.
 *
 * The paper's whole argument is about *when* things happen -- retirement
 * stalling at an sfence, pcommit latency overlapping with speculative
 * epochs, SSB occupancy climbing until it backpressures. The Stats struct
 * answers "how much"; this event bus answers "when". Components publish
 * TraceEvents (instants, duration spans, async spans, counter samples)
 * to a per-run Tracer; exporters turn the stream into Chrome trace-event
 * JSON (loadable in ui.perfetto.dev) or a CSV time series, and a
 * TraceSummary condenses it into stall/epoch/pcommit latency histograms
 * that flow through the sweep engine.
 *
 * Overhead contract: a null Tracer pointer (the default everywhere) is
 * tracing *off* -- publishers guard with `tracer && tracer->enabled(cat)`,
 * and no simulation state ever depends on the tracer, so a tracing-off
 * run is bit-identical to a run with tracing on (guarded by
 * tests/test_trace.cc). With tracing on, publishing is a copy of a
 * fixed-size POD record: arguments are typed fields, and their text is
 * rendered only by the exporters (text sink, writeChromeJson,
 * writeCounterCsv). A summary-only tracer (retainEvents = false, what
 * Machine and sweeps use) therefore costs about what its histograms
 * cost and never allocates per event (guarded by
 * tests/test_steady_alloc.cc). Each run owns its Tracer exclusively;
 * nothing here is shared between sweep workers.
 *
 * Event schema (see docs/ARCHITECTURE.md "Observability"):
 *   - instants: SPECULATE, COMMIT, ABORT, retire, retire_spec,
 *     checkpoint_take, checkpoint_restore, ssb_forward, bloom_fp,
 *     watchdog_backoff, watchdog_degrade, watchdog_rearm
 *   - duration spans: fence_stall, writeback
 *   - async spans (id-matched begin/end): epoch, pcommit
 *   - counters: ssb_occupancy, rob, fetchq, lsq, storebuf,
 *     inflight_pcommits, wpq, epochs
 */

#ifndef SP_SIM_TRACE_HH
#define SP_SIM_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "isa/microop.hh"
#include "sim/histogram.hh"
#include "sim/types.hh"

namespace sp
{

class SnapshotReader;
class SnapshotWriter;

/**
 * Event categories, a bitmask so a run can record only what it needs.
 * kTraceRetire is by far the most voluminous (one event per retired
 * non-ALU op) and is therefore excluded from kTraceDefault.
 */
enum TraceCategoryBits : uint32_t
{
    /** Per-retired-op instants (verbose; the old text-trace content). */
    kTraceRetire = 1u << 0,
    /** Speculation lifecycle (SPECULATE/COMMIT/ABORT) + fence stalls. */
    kTraceSpec = 1u << 1,
    /** Epoch async spans and checkpoint take/restore. */
    kTraceEpoch = 1u << 2,
    /** SSB occupancy counter + Bloom hit/false-positive instants. */
    kTraceSsb = 1u << 3,
    /** Cache writeback (clwb/clflush) spans. */
    kTraceCache = 1u << 4,
    /** Memory controller: pcommit issue->complete async spans. */
    kTraceMem = 1u << 5,
    /** Interval sampler counter tracks (ROB/fetchQ/LSQ/...). */
    kTraceCounters = 1u << 6,

    kTraceAll = (1u << 7) - 1,
    kTraceDefault = kTraceAll & ~kTraceRetire,
};

/**
 * Parse a comma-separated category list ("spec,epoch,counters", "all",
 * "default"). Unknown names are fatal (user input).
 */
uint32_t parseTraceCategories(const std::string &list);

/** Name of a single category bit (diagnostics / exporters). */
const char *traceCategoryName(uint32_t bit);

/** What kind of record a TraceEvent is. */
enum class TraceKind : uint8_t
{
    kInstant,
    kSpan,
    kAsyncBegin,
    kAsyncEnd,
    kCounter,
};

/** Every event name the simulator publishes (see traceName()). */
enum class TraceName : uint8_t
{
    // Instants.
    kSpeculate, kCommit, kAbort, kRetire, kRetireSpec, kCheckpointTake,
    kCheckpointRestore, kSsbForward, kBloomFp, kWatchdogBackoff,
    kWatchdogDegrade, kWatchdogRearm,
    // Duration spans.
    kFenceStall, kWriteback,
    // Async spans.
    kEpoch, kPcommit,
    // Counter tracks.
    kSsbOccupancy, kRob, kFetchq, kLsq, kStorebuf, kInflightPcommits, kWpq,
    kEpochs,

    kCount,
};

/** The exported name of an event ("SPECULATE", "retire_spec", ...). */
const char *traceName(TraceName name);

/** Flag bits of TraceArgs::flags. */
enum TraceFlagBits : uint8_t
{
    /** epoch begin: first epoch of an episode (else arg1 is the parent). */
    kTraceFirst = 1u << 0,
    /** writeback: the block was invalidated (clflush/clflushopt). */
    kTraceInvalidate = 1u << 1,
    /** writeback: the block was dirty. */
    kTraceDirty = 1u << 2,
    /** epoch end: the epoch aborted (else it committed). */
    kTraceAborted = 1u << 3,
};

/**
 * Typed event arguments. Which fields an event carries, and the JSON
 * keys they export under, depend on its name and kind:
 *   - retire, retire_spec: `op`
 *   - SPECULATE, ABORT, checkpoint_restore: arg0 = cursor
 *   - ssb_forward, bloom_fp: arg0 = addr
 *   - checkpoint_take: arg0 = slot, arg1 = cursor
 *   - writeback: arg0 = addr, flags kTraceInvalidate / kTraceDirty
 *   - epoch begin: arg0 = cursor, then kTraceFirst or arg1 = parent
 *   - epoch end: flags kTraceAborted (the outcome)
 *   - pcommit begin: arg0 = marker
 *   - watchdog_backoff: arg0 = streak, arg1 = until
 *   - watchdog_degrade: arg0 = streak, arg1 = fallbackFences
 * Everything else carries none. The text is rendered in one place
 * (trace.cc), called only by the exporters.
 */
struct TraceArgs
{
    uint64_t arg0 = 0;
    uint64_t arg1 = 0;
    uint8_t flags = 0;
    MicroOp op;

    TraceArgs() = default;
    TraceArgs(uint64_t a0, uint64_t a1 = 0, uint8_t f = 0)
        : arg0(a0), arg1(a1), flags(f)
    {
    }
    explicit TraceArgs(const MicroOp &retired) : op(retired) {}
};

/** One published event: a plain fixed-size record. For kCounter the
 *  sampled value is in `id`; for async events `id` matches begin to
 *  end. */
struct TraceEvent
{
    Tick tick = 0;
    /** Span length; kSpan only. */
    Tick dur = 0;
    /** Async match id / counter value. */
    uint64_t id = 0;
    uint32_t cat = 0;
    TraceKind kind = TraceKind::kInstant;
    TraceName name = TraceName::kCount;
    TraceArgs args;
};

/** Tracing knobs, embeddable in a RunConfig (plain data, sweepable). */
struct TraceOptions
{
    /** Categories to record; 0 disables tracing entirely. */
    uint32_t categories = 0;
    /** Interval-sampler period in cycles (counter tracks). */
    unsigned sampleEvery = 64;
    /**
     * Keep the full event vector for export. When false only the
     * incremental TraceSummary is maintained (O(1) memory -- what
     * sweeps use); exporters then have nothing to write.
     */
    bool retainEvents = true;
    /** Retained-event cap; beyond it events are dropped and counted. */
    uint64_t maxEvents = 1u << 22;
};

/**
 * Per-run condensed view of the event stream: stall-interval and
 * latency histograms plus headline counts. Maintained incrementally by
 * the Tracer, so it is exact even when events are not retained.
 */
struct TraceSummary
{
    /** True once any event was published (tracing was on). */
    bool enabled = false;
    /** Always zero: named padding (see SnapshotWriter::determinedBytes). */
    uint8_t reserved[7] = {};
    /** Events published (including any beyond the retention cap). */
    uint64_t events = 0;
    /** Events dropped from the retained vector by the cap. */
    uint64_t dropped = 0;
    /** Counter samples across all tracks. */
    uint64_t counterSamples = 0;
    /** ABORT instants observed. */
    uint64_t aborts = 0;
    /** SSB store-to-load forwards / Bloom false positives observed. */
    uint64_t ssbForwards = 0;
    uint64_t bloomFalsePositives = 0;
    /** Epoch async spans opened / closed. */
    uint64_t epochsBegun = 0;
    uint64_t epochsEnded = 0;

    /** Durations of completed fence_stall spans. */
    Histogram fenceStall;
    /** Durations of epoch async spans (committed and aborted). */
    Histogram epochDuration;
    /** Durations of pcommit issue->complete async spans. */
    Histogram pcommitLatency;

    /** One-line JSON object (histograms as n/mean/p50/p90/p99/max). */
    std::string toJson() const;

    /**
     * Fold another summary into this one: counts add, histograms merge,
     * enabled ORs. Exact for slice-parallel replay because every span is
     * opened and closed within its slice (slices cut at quiescent
     * boundaries), so per-slice summaries partition the serial stream.
     */
    void merge(const TraceSummary &other);
};

/**
 * The event bus: a per-run, single-threaded event recorder.
 *
 * Publishing methods are no-ops for disabled categories; callers still
 * guard with enabled() so the tracing-off path does no work at all.
 */
class Tracer
{
  public:
    explicit Tracer(TraceOptions opts = {});

    /** Is any of the categories in `cat` being recorded? */
    bool enabled(uint32_t cat) const { return (opts_.categories & cat) != 0; }

    /** Interval-sampler period (cycles) the core should use. */
    unsigned sampleEvery() const { return opts_.sampleEvery; }

    /**
     * Stream every published event as a human-readable text line to
     * `os` (the old OooCore::setTraceSink format); null disables.
     */
    void setTextSink(std::ostream *os) { textSink_ = os; }

    // --- Publishing -----------------------------------------------------
    void instant(uint32_t cat, TraceName name, Tick tick,
                 const TraceArgs &args = {});
    /** A completed duration span [begin, end]. */
    void span(uint32_t cat, TraceName name, Tick begin, Tick end,
              const TraceArgs &args = {});
    /** Open an async span; `id` must be unique per (name, open span). */
    void asyncBegin(uint32_t cat, TraceName name, uint64_t id, Tick tick,
                    const TraceArgs &args = {});
    void asyncEnd(uint32_t cat, TraceName name, uint64_t id, Tick tick,
                  const TraceArgs &args = {});
    /** One sample on the counter track `name`. */
    void counter(uint32_t cat, TraceName name, Tick tick, uint64_t value);

    // --- Results --------------------------------------------------------
    /** Retained events, publish order (empty when !retainEvents). */
    const std::vector<TraceEvent> &events() const { return events_; }

    /** Condensed per-run summary (always exact). */
    const TraceSummary &summary() const { return summary_; }

    /**
     * Chrome trace-event JSON (the "JSON Array Format" with metadata),
     * loadable in ui.perfetto.dev or chrome://tracing. Ticks are
     * exported as microseconds 1:1, so "1 us" in the UI is one cycle.
     */
    void writeChromeJson(std::ostream &os) const;

    /**
     * Counter tracks as a wide CSV time series: one column per track
     * (first-seen order), one row per sample tick.
     */
    void writeCounterCsv(std::ostream &os) const;

    /**
     * Snapshot visitors: the incremental summary plus any open async
     * spans (stored by name text, mapped back to the TraceName on
     * restore). Options are rebuilt from config; retained events are not
     * serialized (a resumed run re-records from the restore point).
     */
    void saveState(SnapshotWriter &w) const;
    void restoreState(SnapshotReader &r);

  private:
    TraceOptions opts_;
    std::ostream *textSink_ = nullptr;
    std::vector<TraceEvent> events_;
    TraceSummary summary_;
    /**
     * Open async spans, matched on (name, id). Spans in flight are few
     * (epochs bounded by checkpoints, pcommits by the WPQ) but open and
     * close millions of times per sweep, so a flat vector does.
     */
    struct OpenAsync
    {
        TraceName name;
        uint64_t id;
        Tick begin;
    };
    std::vector<OpenAsync> openAsync_;

    void publish(const TraceEvent &event);
    void noteForSummary(const TraceEvent &event);
    void emitText(const TraceEvent &event);
};

/**
 * Minimal JSON well-formedness check (objects, arrays, strings, numbers,
 * literals; no external dependencies). Used by tests to round-trip the
 * Chrome exporter's output and by spcli to self-check written files.
 *
 * @param text Candidate document.
 * @param error Optional: filled with a byte offset + reason on failure.
 */
bool jsonIsValid(const std::string &text, std::string *error = nullptr);

} // namespace sp

#endif // SP_SIM_TRACE_HH
