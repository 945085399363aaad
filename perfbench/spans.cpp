/**
 * @file
 * SpanLog: the traced run's in-memory span recorder.
 */

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.hh"

namespace perfbench
{

int
SpanLog::open(const char *name)
{
    SpanRecord s;
    s.name = name;
    s.start = nowSeconds();
    s.end = -1;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.runId = runId_;
    spans_.push_back(std::move(s));
    int index = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(index);
    return index;
}

void
SpanLog::close(int index)
{
    if (stack_.empty() || stack_.back() != index)
        throw std::logic_error("span closed out of order: " +
                               spans_.at(index).name);
    spans_[index].end = nowSeconds();
    stack_.pop_back();
}

std::map<std::string, double>
SpanLog::selfSeconds() const
{
    // Children of one parent never overlap (spans nest strictly on one
    // thread), so a parent's covered time is the sum of its children's.
    std::vector<double> childTime(spans_.size(), 0.0);
    for (const SpanRecord &s : spans_) {
        if (s.parent >= 0)
            childTime[s.parent] += s.end - s.start;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        out[s.name] += (s.end - s.start) - childTime[i];
    }
    return out;
}

bool
SpanLog::nests(std::string *why) const
{
    auto fail = [why](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };
    if (!stack_.empty())
        return fail("span still open: " + spans_[stack_.back()].name);
    for (const SpanRecord &s : spans_) {
        if (s.end < s.start)
            return fail("span ends before it starts: " + s.name);
        if (s.parent < 0)
            continue;
        const SpanRecord &p = spans_[s.parent];
        if (s.start < p.start || s.end > p.end)
            return fail("span " + s.name + " escapes its parent " + p.name);
        if (p.parent >= 0 && s.runId != p.runId)
            return fail("span " + s.name + " changes run id inside " +
                        p.name);
    }
    return true;
}

void
SpanLog::writeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write spans to " + path);
    double origin = spans_.empty() ? 0.0 : spans_.front().start;
    os << "[\n";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                      "\"end_us\":%.3f,\"parent\":%d,\"run\":%u}%s\n",
                      i, s.name.c_str(), (s.start - origin) * 1e6,
                      (s.end - origin) * 1e6, s.parent, s.runId,
                      i + 1 < spans_.size() ? "," : "");
        os << buf;
    }
    os << "]\n";
}

} // namespace perfbench
