#include "sim/trace.hh"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <iomanip>
#include <iterator>
#include <map>
#include <sstream>
#include <type_traits>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sp
{

namespace
{

struct CategoryInfo
{
    uint32_t bit;
    const char *name;
    /** Chrome trace tid this category's events render on. */
    int tid;
};

constexpr CategoryInfo kCategories[] = {
    {kTraceRetire, "retire", 1},   {kTraceSpec, "spec", 2},
    {kTraceEpoch, "epoch", 3},     {kTraceSsb, "ssb", 4},
    {kTraceCache, "cache", 5},     {kTraceMem, "mem", 6},
    {kTraceCounters, "counters", 7},
};

int
tidOf(uint32_t cat)
{
    for (const CategoryInfo &info : kCategories) {
        if (info.bit & cat)
            return info.tid;
    }
    return 0;
}

/** Exported event names, indexed by TraceName. */
constexpr const char *kNames[] = {
    // Instants.
    "SPECULATE", "COMMIT", "ABORT", "retire", "retire_spec",
    "checkpoint_take", "checkpoint_restore", "ssb_forward", "bloom_fp",
    "watchdog_backoff", "watchdog_degrade", "watchdog_rearm",
    // Duration spans.
    "fence_stall", "writeback",
    // Async spans.
    "epoch", "pcommit",
    // Counter tracks.
    "ssb_occupancy", "rob", "fetchq", "lsq", "storebuf",
    "inflight_pcommits", "wpq", "epochs",
};
static_assert(std::size(kNames) == static_cast<size_t>(TraceName::kCount),
              "one exported name per TraceName");
static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "publishing an event must be a plain copy");

const char *
boolText(bool value)
{
    return value ? "true" : "false";
}

/**
 * Render an event's arguments as a JSON-object body fragment (e.g.
 * `"cursor":42,"first":true`), or nothing when it carries none. The one
 * place argument text is built; only the exporters call it.
 */
void
writeArgs(std::ostream &os, const TraceEvent &event)
{
    const TraceArgs &a = event.args;
    switch (event.name) {
      case TraceName::kRetire:
      case TraceName::kRetireSpec:
        os << "\"op\":\"" << a.op.toString() << "\"";
        break;
      case TraceName::kSpeculate:
      case TraceName::kAbort:
      case TraceName::kCheckpointRestore:
        os << "\"cursor\":" << a.arg0;
        break;
      case TraceName::kSsbForward:
      case TraceName::kBloomFp:
        os << "\"addr\":" << a.arg0;
        break;
      case TraceName::kCheckpointTake:
        os << "\"slot\":" << a.arg0 << ",\"cursor\":" << a.arg1;
        break;
      case TraceName::kWriteback:
        os << "\"addr\":" << a.arg0 << ",\"invalidate\":"
           << boolText(a.flags & kTraceInvalidate)
           << ",\"dirty\":" << boolText(a.flags & kTraceDirty);
        break;
      case TraceName::kEpoch:
        if (event.kind == TraceKind::kAsyncBegin) {
            os << "\"cursor\":" << a.arg0;
            if (a.flags & kTraceFirst)
                os << ",\"first\":true";
            else
                os << ",\"parent\":" << a.arg1;
        } else {
            os << "\"outcome\":\""
               << (a.flags & kTraceAborted ? "abort" : "commit") << "\"";
        }
        break;
      case TraceName::kPcommit:
        if (event.kind == TraceKind::kAsyncBegin)
            os << "\"marker\":" << a.arg0;
        break;
      case TraceName::kWatchdogBackoff:
        os << "\"streak\":" << a.arg0 << ",\"until\":" << a.arg1;
        break;
      case TraceName::kWatchdogDegrade:
        os << "\"streak\":" << a.arg0 << ",\"fallbackFences\":" << a.arg1;
        break;
      default:
        break;
    }
}

} // namespace

const char *
traceName(TraceName name)
{
    size_t index = static_cast<size_t>(name);
    return index < std::size(kNames) ? kNames[index] : "?";
}

const char *
traceCategoryName(uint32_t bit)
{
    for (const CategoryInfo &info : kCategories) {
        if (info.bit == bit)
            return info.name;
    }
    return "?";
}

uint32_t
parseTraceCategories(const std::string &list)
{
    uint32_t mask = 0;
    std::istringstream in(list);
    std::string token;
    while (std::getline(in, token, ',')) {
        if (token.empty())
            continue;
        if (token == "all") {
            mask |= kTraceAll;
            continue;
        }
        if (token == "default") {
            mask |= kTraceDefault;
            continue;
        }
        if (token == "none")
            continue;
        bool matched = false;
        for (const CategoryInfo &info : kCategories) {
            if (token == info.name) {
                mask |= info.bit;
                matched = true;
            }
        }
        if (!matched)
            SP_FATAL("unknown trace category '", token,
                     "' (try retire,spec,epoch,ssb,cache,mem,counters,"
                     "all,default)");
    }
    return mask;
}

// --------------------------------------------------------------------------
// Tracer
// --------------------------------------------------------------------------

Tracer::Tracer(TraceOptions opts) : opts_(opts)
{
    if (opts_.retainEvents && opts_.categories != 0)
        events_.reserve(4096);
}

void
Tracer::emitText(const TraceEvent &event)
{
    // The classic OooCore::setTraceSink line format, kept so the
    // pipeline_trace example and its tests read the same story.
    const char *name = traceName(event.name);
    if (event.name == TraceName::kRetireSpec)
        name = "retire*";
    else if (event.name == TraceName::kRetire)
        name = "retire ";
    *textSink_ << "[" << std::setw(8) << event.tick << "] " << name;
    if (event.kind == TraceKind::kSpan)
        *textSink_ << " dur=" << event.dur;
    if (event.kind == TraceKind::kCounter)
        *textSink_ << " = " << event.id;
    std::ostringstream args;
    writeArgs(args, event);
    if (args.tellp() > 0)
        *textSink_ << " {" << args.str() << "}";
    *textSink_ << "\n";
}

void
Tracer::noteForSummary(const TraceEvent &event)
{
    summary_.enabled = true;
    ++summary_.events;
    switch (event.kind) {
      case TraceKind::kInstant:
        if (event.name == TraceName::kAbort)
            ++summary_.aborts;
        else if (event.name == TraceName::kSsbForward)
            ++summary_.ssbForwards;
        else if (event.name == TraceName::kBloomFp)
            ++summary_.bloomFalsePositives;
        break;
      case TraceKind::kSpan:
        if (event.name == TraceName::kFenceStall)
            summary_.fenceStall.record(event.dur);
        break;
      case TraceKind::kAsyncBegin:
        if (event.name == TraceName::kEpoch)
            ++summary_.epochsBegun;
        break;
      case TraceKind::kAsyncEnd: {
        if (event.name == TraceName::kEpoch)
            ++summary_.epochsEnded;
        auto open = std::find_if(
            openAsync_.begin(), openAsync_.end(), [&](const OpenAsync &s) {
                return s.id == event.id && s.name == event.name;
            });
        if (open == openAsync_.end())
            break;
        Tick begin = open->begin;
        Tick dur = event.tick >= begin ? event.tick - begin : 0;
        *open = openAsync_.back();
        openAsync_.pop_back();
        if (event.name == TraceName::kEpoch)
            summary_.epochDuration.record(dur);
        else if (event.name == TraceName::kPcommit)
            summary_.pcommitLatency.record(dur);
        break;
      }
      case TraceKind::kCounter:
        ++summary_.counterSamples;
        break;
    }
}

void
Tracer::publish(const TraceEvent &event)
{
    if (event.kind == TraceKind::kAsyncBegin)
        openAsync_.push_back({event.name, event.id, event.tick});
    noteForSummary(event);
    if (textSink_)
        emitText(event);
    if (!opts_.retainEvents)
        return;
    if (events_.size() >= opts_.maxEvents) {
        ++summary_.dropped;
        SP_WARN_ONCE("trace event cap (", opts_.maxEvents,
                     ") reached; further events summarized but not "
                     "retained for export");
        return;
    }
    events_.push_back(event);
}

void
Tracer::instant(uint32_t cat, TraceName name, Tick tick,
                const TraceArgs &args)
{
    if (enabled(cat))
        publish({tick, 0, 0, cat, TraceKind::kInstant, name, args});
}

void
Tracer::span(uint32_t cat, TraceName name, Tick begin, Tick end,
             const TraceArgs &args)
{
    Tick dur = end >= begin ? end - begin : 0;
    if (enabled(cat))
        publish({begin, dur, 0, cat, TraceKind::kSpan, name, args});
}

void
Tracer::asyncBegin(uint32_t cat, TraceName name, uint64_t id, Tick tick,
                   const TraceArgs &args)
{
    if (enabled(cat))
        publish({tick, 0, id, cat, TraceKind::kAsyncBegin, name, args});
}

void
Tracer::asyncEnd(uint32_t cat, TraceName name, uint64_t id, Tick tick,
                 const TraceArgs &args)
{
    if (enabled(cat))
        publish({tick, 0, id, cat, TraceKind::kAsyncEnd, name, args});
}

void
Tracer::counter(uint32_t cat, TraceName name, Tick tick, uint64_t value)
{
    if (enabled(cat))
        publish({tick, 0, value, cat, TraceKind::kCounter, name, {}});
}

// --------------------------------------------------------------------------
// Exporters
// --------------------------------------------------------------------------

void
Tracer::writeChromeJson(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    os << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
          "\"args\":{\"name\":\"specpersist\"}}";
    uint32_t used = 0;
    for (const TraceEvent &event : events_)
        used |= event.cat;
    for (const CategoryInfo &info : kCategories) {
        if (!(used & info.bit))
            continue;
        os << ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":" << info.tid
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
           << info.name << "\"}}";
    }
    for (const TraceEvent &event : events_) {
        os << ",\n{\"name\":\"" << traceName(event.name) << "\",\"cat\":\""
           << traceCategoryName(event.cat) << "\",\"pid\":0,\"tid\":"
           << tidOf(event.cat) << ",\"ts\":" << event.tick;
        switch (event.kind) {
          case TraceKind::kInstant:
            os << ",\"ph\":\"i\",\"s\":\"t\"";
            break;
          case TraceKind::kSpan:
            os << ",\"ph\":\"X\",\"dur\":" << event.dur;
            break;
          case TraceKind::kAsyncBegin:
            os << ",\"ph\":\"b\",\"id\":" << event.id;
            break;
          case TraceKind::kAsyncEnd:
            os << ",\"ph\":\"e\",\"id\":" << event.id;
            break;
          case TraceKind::kCounter:
            os << ",\"ph\":\"C\"";
            break;
        }
        os << ",\"args\":{";
        if (event.kind == TraceKind::kCounter) {
            os << "\"value\":" << event.id;
        } else {
            writeArgs(os, event);
        }
        os << "}}";
    }
    os << "\n]}\n";
}

void
Tracer::writeCounterCsv(std::ostream &os) const
{
    // Column order = first-seen track order; rows = distinct sample
    // ticks, forward-filled so every row is a complete snapshot.
    std::vector<TraceName> columns;
    auto columnOf = [&](TraceName name) {
        auto it = std::find(columns.begin(), columns.end(), name);
        if (it != columns.end())
            return static_cast<size_t>(it - columns.begin());
        columns.push_back(name);
        return columns.size() - 1;
    };
    // tick -> (column -> value); std::map keeps ticks sorted even if
    // publishers interleave out of order.
    std::map<Tick, std::vector<std::pair<size_t, uint64_t>>> rows;
    for (const TraceEvent &event : events_) {
        if (event.kind != TraceKind::kCounter)
            continue;
        rows[event.tick].emplace_back(columnOf(event.name), event.id);
    }
    os << "tick";
    for (TraceName name : columns)
        os << "," << traceName(name);
    os << "\n";
    std::vector<std::string> last(columns.size());
    for (const auto &[tick, samples] : rows) {
        for (const auto &[col, value] : samples)
            last[col] = std::to_string(value);
        os << tick;
        for (const std::string &value : last)
            os << "," << value;
        os << "\n";
    }
}

// --------------------------------------------------------------------------
// Summary
// --------------------------------------------------------------------------

std::string
TraceSummary::toJson() const
{
    // Single-pass append into one reserved buffer; the ostringstream
    // version reallocated its internal buffer several times per call
    // and sweeps render one of these per cell.
    std::string out;
    out.reserve(768);
    out += "{\"events\":";
    out += std::to_string(events);
    out += ",\"dropped\":";
    out += std::to_string(dropped);
    out += ",\"counterSamples\":";
    out += std::to_string(counterSamples);
    out += ",\"aborts\":";
    out += std::to_string(aborts);
    out += ",\"ssbForwards\":";
    out += std::to_string(ssbForwards);
    out += ",\"bloomFalsePositives\":";
    out += std::to_string(bloomFalsePositives);
    out += ",\"epochsBegun\":";
    out += std::to_string(epochsBegun);
    out += ",\"epochsEnded\":";
    out += std::to_string(epochsEnded);
    out += ',';
    histogramJson(out, "fenceStall", fenceStall);
    out += ',';
    histogramJson(out, "epochDuration", epochDuration);
    out += ',';
    histogramJson(out, "pcommitLatency", pcommitLatency);
    out += '}';
    return out;
}

// --------------------------------------------------------------------------
// JSON validity check (no external dependencies)
// --------------------------------------------------------------------------

namespace
{

/** Tiny recursive-descent JSON parser; validates, never builds a tree. */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : text_(text) {}

    bool
    run(std::string *error)
    {
        ok_ = true;
        pos_ = 0;
        skipWs();
        value();
        skipWs();
        if (ok_ && pos_ != text_.size())
            fail("trailing content");
        if (!ok_ && error)
            *error = reason_ + " at byte " + std::to_string(errPos_);
        return ok_;
    }

  private:
    const std::string &text_;
    size_t pos_ = 0;
    bool ok_ = true;
    std::string reason_;
    size_t errPos_ = 0;

    void
    fail(const std::string &why)
    {
        if (ok_) {
            ok_ = false;
            reason_ = why;
            errPos_ = pos_;
        }
    }

    bool atEnd() const { return pos_ >= text_.size(); }
    char peek() const { return atEnd() ? '\0' : text_[pos_]; }

    void
    skipWs()
    {
        while (!atEnd() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                            text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    void
    literal(const char *word)
    {
        size_t len = std::strlen(word);
        if (text_.compare(pos_, len, word) != 0) {
            fail("bad literal");
            return;
        }
        pos_ += len;
    }

    void
    string()
    {
        if (!consume('"')) {
            fail("expected string");
            return;
        }
        while (!atEnd()) {
            char c = text_[pos_++];
            if (c == '"')
                return;
            if (c == '\\') {
                if (atEnd()) {
                    fail("bad escape");
                    return;
                }
                char esc = text_[pos_++];
                if (esc == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        if (atEnd() || !std::isxdigit(
                                           static_cast<unsigned char>(
                                               text_[pos_]))) {
                            fail("bad \\u escape");
                            return;
                        }
                        ++pos_;
                    }
                } else if (!std::strchr("\"\\/bfnrt", esc)) {
                    fail("bad escape char");
                    return;
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                fail("control char in string");
                return;
            }
        }
        fail("unterminated string");
    }

    void
    number()
    {
        consume('-');
        if (!std::isdigit(static_cast<unsigned char>(peek()))) {
            fail("expected digit");
            return;
        }
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (consume('.')) {
            if (!std::isdigit(static_cast<unsigned char>(peek()))) {
                fail("expected fraction digit");
                return;
            }
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (!std::isdigit(static_cast<unsigned char>(peek()))) {
                fail("expected exponent digit");
                return;
            }
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
    }

    void
    value()
    {
        if (!ok_)
            return;
        skipWs();
        char c = peek();
        if (c == '{') {
            ++pos_;
            skipWs();
            if (consume('}'))
                return;
            for (;;) {
                skipWs();
                string();
                skipWs();
                if (!consume(':')) {
                    fail("expected ':'");
                    return;
                }
                value();
                if (!ok_)
                    return;
                skipWs();
                if (consume(','))
                    continue;
                if (consume('}'))
                    return;
                fail("expected ',' or '}'");
                return;
            }
        } else if (c == '[') {
            ++pos_;
            skipWs();
            if (consume(']'))
                return;
            for (;;) {
                value();
                if (!ok_)
                    return;
                skipWs();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return;
                fail("expected ',' or ']'");
                return;
            }
        } else if (c == '"') {
            string();
        } else if (c == 't') {
            literal("true");
        } else if (c == 'f') {
            literal("false");
        } else if (c == 'n') {
            literal("null");
        } else {
            number();
        }
    }
};

} // namespace

bool
jsonIsValid(const std::string &text, std::string *error)
{
    return JsonChecker(text).run(error);
}

template <class Ar>
void
Tracer::serialize(Ar &ar)
{
    static_assert(std::is_trivially_copyable<TraceSummary>::value,
                  "TraceSummary must stay trivially copyable");
    ar.tag("TRAC");
    ar.pod(summary_);
    ar.seq(openAsync_, [&ar](OpenAsync &span) {
        // Spans travel by name text, mapped back to the enum on restore.
        std::string name = Ar::kLoading ? std::string() : traceName(span.name);
        ar.string(name);
        if constexpr (Ar::kLoading) {
            auto known =
                std::find(std::begin(kNames), std::end(kNames), name);
            if (known == std::end(kNames))
                throw SnapshotError("unknown trace span name '" + name + "'");
            span.name = static_cast<TraceName>(known - std::begin(kNames));
        }
        ar.pod(span.id);
        ar.pod(span.begin);
    });
    if constexpr (Ar::kLoading)
        events_.clear();
}

template void Tracer::serialize(SnapshotWriter &);
template void Tracer::serialize(SnapshotReader &);

} // namespace sp
