#include "sim/fault.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "mem/mem_image.hh"
#include "pmem/layout.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace sp
{

namespace
{

/** Stateless splitmix64 step (same mixer the conflict adversary uses). */
uint64_t
mix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

const char *
conflictPolicyName(ConflictPolicy policy)
{
    switch (policy) {
      case ConflictPolicy::kUniform:
        return "uniform";
      case ConflictPolicy::kHotSet:
        return "hotset";
      case ConflictPolicy::kTrailWriter:
        return "trail";
    }
    return "?";
}

const char *
conflictTimingName(ConflictTiming timing)
{
    return timing == ConflictTiming::kFixed ? "fixed" : "poisson";
}

ConflictPolicy
parseConflictPolicy(const std::string &name)
{
    if (name == "uniform")
        return ConflictPolicy::kUniform;
    if (name == "hotset")
        return ConflictPolicy::kHotSet;
    if (name == "trail" || name == "trailing")
        return ConflictPolicy::kTrailWriter;
    SP_FATAL("unknown conflict policy '", name,
             "' (expected uniform|hotset|trail)");
}

// --------------------------------------------------------------------------
// Media faults
// --------------------------------------------------------------------------

const char *
mediaFaultKindName(MediaFaultKind kind)
{
    switch (kind) {
      case MediaFaultKind::kBitFlip:
        return "bitflip";
      case MediaFaultKind::kMultiBitFlip:
        return "multibit";
      case MediaFaultKind::kStuckWord:
        return "stuck";
      case MediaFaultKind::kTornResidue:
        return "residue";
    }
    return "?";
}

const char *
mediaFaultClassName(MediaFaultClass cls)
{
    return cls == MediaFaultClass::kEccDetectable ? "ecc" : "silent";
}

unsigned
MediaFaultPlan::scrubbed() const
{
    unsigned n = 0;
    for (const MediaFault &f : faults)
        n += f.scrubbed ? 1 : 0;
    return n;
}

unsigned
MediaFaultPlan::applied() const
{
    return static_cast<unsigned>(faults.size()) - scrubbed();
}

MediaFaultPlan
planMediaFaults(const MediaFaultConfig &cfg, const MemImage &durable,
                Tick crashTick)
{
    MediaFaultPlan plan;
    if (!cfg.enabled || cfg.faults == 0)
        return plan;

    // Candidate lines: every line of a resident page inside the fault
    // target window (metadata + log + covered heap). Zero lines of
    // resident pages are legitimate targets -- worn cells do not care
    // what the line holds. The CRC slot table is out of scope here.
    constexpr Addr kTargetEnd = kHeapBase + kCrcHeapBytes;
    std::vector<Addr> pages;
    for (uint64_t num : durable.residentPageNumbers()) {
        Addr base = num * MemImage::kPageBytes;
        if (base + MemImage::kPageBytes > kNvmmBase && base < kTargetEnd)
            pages.push_back(base);
    }
    if (pages.empty())
        return plan;
    constexpr unsigned kLinesPerPage = MemImage::kPageBytes / kBlockBytes;
    uint64_t lineCount = pages.size() * uint64_t{kLinesPerPage};

    uint64_t state = cfg.seed ^ (0x6d65646961ULL * (crashTick + 1));
    for (unsigned i = 0; i < cfg.faults; ++i) {
        MediaFault f;
        uint64_t pick = mix64(state) % lineCount;
        f.line = pages[pick / kLinesPerPage] +
                 (pick % kLinesPerPage) * kBlockBytes;
        f.kind = static_cast<MediaFaultKind>(mix64(state) % 4);
        double u = static_cast<double>(mix64(state) >> 11) /
                   9007199254740992.0;
        f.cls = u < cfg.silentFraction ? MediaFaultClass::kSilent
                                       : MediaFaultClass::kEccDetectable;
        f.payload = mix64(state);
        f.arrivalTick = crashTick > 0 ? mix64(state) % crashTick : 0;
        // Scrub clock: the last scrubber pass before the crash corrects
        // every ECC-detectable fault that had already arrived. Silent
        // faults are invisible to the scrubber by definition.
        if (cfg.scrubInterval > 0 &&
            f.cls == MediaFaultClass::kEccDetectable) {
            Tick lastScrub = crashTick / cfg.scrubInterval *
                             cfg.scrubInterval;
            if (lastScrub > f.arrivalTick)
                f.scrubbed = true;
        }
        plan.faults.push_back(f);
    }
    return plan;
}

void
applyMediaFaults(MemImage &image, const MediaFaultPlan &plan)
{
    for (const MediaFault &f : plan.faults) {
        if (f.scrubbed)
            continue;
        uint8_t buf[kBlockBytes];
        image.read(f.line, buf, kBlockBytes);
        uint64_t material = f.payload;
        switch (f.kind) {
          case MediaFaultKind::kBitFlip: {
            unsigned bit = material % (kBlockBytes * 8);
            buf[bit / 8] ^= uint8_t(1u << (bit % 8));
            break;
          }
          case MediaFaultKind::kMultiBitFlip:
            for (unsigned k = 0; k < 3; ++k) {
                unsigned bit = material % (kBlockBytes * 8);
                buf[bit / 8] ^= uint8_t(1u << (bit % 8));
                material = material * 0x9e3779b97f4a7c15ULL + k + 1;
            }
            break;
          case MediaFaultKind::kStuckWord: {
            unsigned word = material % (kBlockBytes / 8);
            uint64_t stuck = (material >> 8) & 1 ? ~uint64_t{0} : 0;
            std::memcpy(buf + word * 8, &stuck, 8);
            break;
          }
          case MediaFaultKind::kTornResidue: {
            unsigned word = material % (kBlockBytes / 8);
            uint64_t residue = material * 0xbf58476d1ce4e5b9ULL;
            std::memcpy(buf + word * 8, &residue, 8);
            break;
          }
        }
        image.write(f.line, buf, kBlockBytes);
        if (f.cls == MediaFaultClass::kEccDetectable)
            image.markPoison(f.line);
    }
}

// --------------------------------------------------------------------------
// ConflictInjector
// --------------------------------------------------------------------------

ConflictInjector::ConflictInjector(const ConflictInjectConfig &cfg,
                                   Addr footprintBase,
                                   uint64_t footprintBytes)
    : cfg_(cfg), base_(blockAlign(footprintBase)),
      range_(footprintBytes ? footprintBytes : kBlockBytes),
      state_(cfg.seed ^ 0x5fa7bfa7bfa7bfa7ULL)
{
    SP_ASSERT(cfg_.period > 0, "conflict injection needs a period");
    nextAt_ = interval();
}

uint64_t
ConflictInjector::draw()
{
    // splitmix64: one multiply-xor chain per draw, no retained stream
    // state beyond the counter, so the schedule depends only on the seed
    // and the number of prior draws.
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Tick
ConflictInjector::interval()
{
    if (cfg_.timing == ConflictTiming::kFixed)
        return cfg_.period;
    // Poisson arrivals: exponential inter-arrival with the configured
    // mean, floored at one cycle so the schedule always advances.
    double u = (static_cast<double>(draw() >> 11) + 1.0) / 9007199254740993.0;
    double gap = -static_cast<double>(cfg_.period) * std::log(u);
    if (gap < 1.0)
        return 1;
    if (gap > 1e15)
        return static_cast<Tick>(1e15);
    return static_cast<Tick>(gap);
}

Addr
ConflictInjector::drawProbe(Tick now)
{
    SP_ASSERT(due(now), "drawProbe called before a probe was due");
    ++injected_;
    nextAt_ += interval();

    Addr target;
    switch (cfg_.policy) {
      case ConflictPolicy::kUniform:
        target = base_ + blockAlign(draw() % range_);
        break;
      case ConflictPolicy::kHotSet: {
        double u = static_cast<double>(draw() >> 11) / 9007199254740992.0;
        uint64_t window =
            u < cfg_.hotFraction ? std::min(cfg_.hotBytes, range_) : range_;
        target = base_ + blockAlign(draw() % window);
        break;
      }
      case ConflictPolicy::kTrailWriter:
        // Until the first speculative store exists, behave as uniform so
        // the schedule (and draw count) never depends on probe timing.
        target = haveWriter_ ? lastWriterBlock_
                             : base_ + blockAlign(draw() % range_);
        break;
      default:
        SP_PANIC("unhandled conflict policy");
    }
    return blockAlign(target);
}

// --------------------------------------------------------------------------
// SpecGovernor
// --------------------------------------------------------------------------

void
SpecGovernor::noteAbort(Tick now)
{
    if (!cfg_.enabled)
        return;
    ++streak_;
    // Bounded exponential backoff: base << (streak-1), capped. The shift
    // is clamped so a long streak cannot overflow the Tick.
    unsigned shift = std::min(streak_ - 1, 20u);
    Tick backoff = std::min(cfg_.backoffCap, cfg_.backoffBase << shift);
    backoffUntil_ = now + backoff;
    if (stats_)
        ++stats_->watchdogBackoffs;
    if (tracer_ && tracer_->enabled(kTraceSpec)) {
        tracer_->instant(kTraceSpec, TraceName::kWatchdogBackoff, now,
                         {streak_, backoffUntil_});
    }
    if (streak_ >= cfg_.abortThreshold && degradedRemaining_ == 0) {
        degradedRemaining_ = std::max(1u, cfg_.fallbackFences);
        if (stats_)
            ++stats_->watchdogDegradations;
        if (tracer_ && tracer_->enabled(kTraceSpec)) {
            tracer_->instant(kTraceSpec, TraceName::kWatchdogDegrade, now,
                             {streak_, degradedRemaining_});
        }
    }
}

void
SpecGovernor::noteCommit(Tick now)
{
    (void)now;
    if (!cfg_.enabled)
        return;
    streak_ = 0;
    backoffUntil_ = 0;
}

void
SpecGovernor::noteFenceRetired(Tick now)
{
    if (!cfg_.enabled || degradedRemaining_ == 0)
        return;
    if (stats_)
        ++stats_->degradedFences;
    if (--degradedRemaining_ == 0) {
        // K fences ran non-speculatively: re-arm with a clean slate.
        streak_ = 0;
        backoffUntil_ = 0;
        if (stats_)
            ++stats_->watchdogRearms;
        if (tracer_ && tracer_->enabled(kTraceSpec))
            tracer_->instant(kTraceSpec, TraceName::kWatchdogRearm, now);
    }
}

template <class Ar>
void
ConflictInjector::serialize(Ar &ar)
{
    // The object holds padding and a double, so it cannot go through
    // pod whole; it goes field by field in its own layout instead.
    static_assert(offsetof(ConflictInjectConfig, period) == 8 &&
                      sizeof(ConflictInjectConfig) == 56 &&
                      offsetof(ConflictInjector, haveWriter_) == 96 &&
                      offsetof(ConflictInjector, injected_) == 104 &&
                      sizeof(ConflictInjector) == 112,
                  "ConflictInjector layout changed: update its serializer");
    ar.pod(cfg_.enabled);
    ar.pod(cfg_.policy);
    ar.pod(cfg_.timing);
    ar.zeros(5);
    ar.pod(cfg_.period);
    ar.pod(cfg_.seed);
    ar.pod(cfg_.hotFraction);
    ar.pod(cfg_.hotBytes);
    ar.pod(cfg_.footprintBase);
    ar.pod(cfg_.footprintBytes);
    ar.pod(base_);
    ar.pod(range_);
    ar.pod(state_);
    ar.pod(nextAt_);
    ar.pod(lastWriterBlock_);
    ar.pod(haveWriter_);
    ar.zeros(7);
    ar.pod(injected_);
}

template void ConflictInjector::serialize(SnapshotWriter &);
template void ConflictInjector::serialize(SnapshotReader &);

template <class Ar>
void
SpecGovernor::serialize(Ar &ar)
{
    ar.tag("GOVR");
    ar.pod(streak_);
    ar.pod(backoffUntil_);
    ar.pod(degradedRemaining_);
}

template void SpecGovernor::serialize(SnapshotWriter &);
template void SpecGovernor::serialize(SnapshotReader &);

} // namespace sp
