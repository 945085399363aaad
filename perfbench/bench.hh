/**
 * @file
 * Shared declarations of the host-time benchmark (see README.md):
 * allocation counting, in-memory spans, and the four named workloads.
 *
 * Every timing is taken here, around public calls into the simulator's
 * layers; nothing inside src/ is instrumented.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/campaign.hh"
#include "harness/runner.hh"

namespace perfbench
{

/** Heap allocations made by the whole process so far (operator new). */
uint64_t allocationCount();

/** Seconds on the steady clock since an arbitrary fixed origin. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One recorded span: a timed call into a layer. */
struct SpanRecord
{
    std::string name;
    double start = 0;
    double end = 0;
    /** Index of the enclosing span, or -1 for a root. */
    int parent = -1;
    /** Which simulator run (or campaign) the span belongs to. */
    unsigned runId = 0;
};

/**
 * In-memory span recorder of the traced run. Spans nest strictly: a span
 * opened while another is open is its child. Nothing is written until
 * writeJson() at the end of the run.
 */
class SpanLog
{
  public:
    int open(const char *name);
    void close(int index);

    /** Start a new run id for the spans opened from now on. */
    void beginRun() { ++runId_; }

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** Self time (duration minus child coverage) summed per span name. */
    std::map<std::string, double> selfSeconds() const;

    /**
     * Every span closed, every child inside its parent's interval, and
     * below the root spans (passes, probes) every child on its parent's
     * run id.
     */
    bool nests(std::string *why) const;

    void writeJson(const std::string &path) const;

  private:
    std::vector<SpanRecord> spans_;
    std::vector<int> stack_;
    unsigned runId_ = 0;
};

/**
 * Times one call into a layer. With a SpanLog it also records a span, so
 * the traced and untraced runs share one code path; the difference
 * between them is only the span bookkeeping.
 */
class Phase
{
  public:
    Phase(SpanLog *log, const char *name)
        : log_(log), index_(log ? log->open(name) : -1),
          start_(nowSeconds())
    {
    }
    ~Phase() { stop(); }

    Phase(const Phase &) = delete;
    Phase &operator=(const Phase &) = delete;

    /** End the phase (idempotent); returns its duration in seconds. */
    double stop()
    {
        if (!stopped_) {
            seconds_ = nowSeconds() - start_;
            if (log_)
                log_->close(index_);
            stopped_ = true;
        }
        return seconds_;
    }

  private:
    SpanLog *log_;
    int index_;
    double start_;
    double seconds_ = 0;
    bool stopped_ = false;
};

/** The five Figure 8 variants, plus the checksummed SP run the fault
 *  campaign's media cells use. */
enum class Variant
{
    kBase,
    kLog,
    kLogP,
    kLogPSf,
    kSP,
    kSPChecksums,
    /** SP256 under the campaign's trail-writer conflict adversary. */
    kSPConflict,
};

const char *variantName(Variant v);

/** One simulator run of a pass. */
struct Cell
{
    sp::RunConfig cfg;
    Variant variant = Variant::kBase;
    /** "AT/Log+P+Sf": the golden-table key. */
    std::string label;
};

/** Input size of a workload: the measured one, the self-test's, or the
 *  full bench scale the Figure 8 golden is pinned at. */
enum class Size
{
    kMeasured,
    kTiny,
    kFull,
};

/** One named workload, fully described before anything runs. */
struct WorkloadSpec
{
    std::string name;
    uint64_t seed = 0;
    /** Structures the workload covers (probe and speedup grouping). */
    std::vector<sp::WorkloadKind> kinds;
    /** Simulator runs of one pass, timed phase by phase. */
    std::vector<Cell> cells;
    /** Untimed runs made once per process, only for sp_speedup. */
    std::vector<Cell> referenceCells;
    /** Run a fault campaign in every pass after the cells. */
    bool campaign = false;
    sp::CampaignOptions campaignOpts;
    /** Outputs are compared with the pinned goldens: the default seed
     *  at the measured size. */
    bool pinned = false;
    /** A pinned run also checks the Figure 8 grid at full scale for
     *  these structures against the pinned cycle total. */
    bool fig08Golden = false;
};

/** Workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** Build a named workload; throws std::invalid_argument on a bad name. */
WorkloadSpec makeWorkloadSpec(const std::string &name, uint64_t seed,
                              Size size);

/** The seed the goldens are pinned for (WorkloadParams' default). */
constexpr uint64_t kDefaultSeed = 42;

/** What one simulator run produced, as the benchmark uses it. */
struct RunRecord
{
    std::string label;
    Variant variant = Variant::kBase;
    sp::WorkloadKind kind = sp::WorkloadKind::kLinkedList;
    sp::RunOutcome outcome = sp::RunOutcome::kOk;
    sp::Stats stats;
    uint64_t durableHash = 0;
    double setupS = 0;
    double simS = 0;
    double finishS = 0;
    /** Construct + run + finish, in milliseconds. */
    double cellMs = 0;
    uint64_t setupAllocs = 0;
    uint64_t simAllocs = 0;
    uint64_t volTransHits = 0;
    uint64_t volTransMisses = 0;
    uint64_t durTransHits = 0;
    uint64_t durTransMisses = 0;
    /** Durations of the runUntil chunks (chunked runs only). */
    std::vector<double> heartbeatMs;
    /** Empty when every output check passed. */
    std::string failure;
};

/**
 * Run one cell through Machine: construct, runUntil (in `chunk`-cycle
 * heartbeats when chunk != 0, else one call), finish, then check the
 * outputs (outcome, checkImage on the final durable image, and the
 * observer invariants when observers are attached).
 */
RunRecord runCell(const Cell &cell, SpanLog *log, sp::Tick chunk);

/** Structural check of a durable image (Workload::checkImage). */
bool checkDurable(const sp::RunConfig &cfg, const sp::MemImage &img,
                  std::string *why);

/**
 * Compare a default-seed run with its pinned simulated cycles and
 * durable-image hash; returns an empty string on a match.
 */
std::string checkGolden(const std::string &workload, const RunRecord &r);

/** Pinned CampaignReport::signature() of the default-seed campaign (a
 *  digest over every cell's outcome and recovered/final image hash). */
uint64_t campaignSignatureGolden();

/** Pinned default-seed Figure 8 cycle total of a structure subset at full
 *  scale (tree_setup's and fence_sim's sum to 154,819,131). */
uint64_t fig08SubsetGolden(const std::string &workload);

/** True when a campaign cell failed its verdict (CampaignReport::passed
 *  applied to one cell). */
bool campaignCellFailed(const sp::CampaignCellResult &c);

/** What the benchmark keeps of one campaign cell. */
struct CampaignCell
{
    sp::CampaignCellKind kind = sp::CampaignCellKind::kCrash;
    double wallMs = 0;
    bool failed = false;
};

/** A campaign's results, as the benchmark uses them. */
struct CampaignOutcome
{
    std::vector<CampaignCell> cells;
    bool passed = false;
    uint64_t totalAborts = 0;
    uint64_t signature = 0;
    /** Descriptions of the first few failed cells. */
    std::vector<std::string> failures;
    /** Why the campaign gave no result (a panic or a timeout); empty when
     *  it gave one. */
    std::string crash;
};

/**
 * Run a fault campaign in a forked child process, so that a simulator
 * panic or a hang fails the campaign instead of ending the benchmark. The
 * child is killed after `timeoutS` seconds.
 */
CampaignOutcome runCampaignIsolated(const sp::CampaignOptions &opts,
                                    double timeoutS);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
