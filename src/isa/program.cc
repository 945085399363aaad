#include "isa/program.hh"

#include <utility>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sp
{

TraceProgram::TraceProgram(std::vector<MicroOp> ops) : ops_(std::move(ops))
{
}

bool
TraceProgram::next(MicroOp &op)
{
    if (pos_ >= ops_.size())
        return false;
    op = ops_[pos_++];
    return true;
}

ReplayableProgram::ReplayableProgram(Program &inner) : inner_(inner)
{
}

bool
ReplayableProgram::next(MicroOp &op)
{
    if (offset_ < window_.size()) {
        // Replaying previously fetched ops after a rewind.
        op = window_[offset_++];
        return true;
    }
    if (!inner_.next(op))
        return false;
    window_.push_back(op);
    ++offset_;
    return true;
}

void
ReplayableProgram::rewind(Cursor c)
{
    SP_ASSERT(c >= base_ && c <= base_ + window_.size(),
              "rewind target not retained: c=", c, " base=", base_,
              " size=", window_.size());
    offset_ = static_cast<size_t>(c - base_);
}

void
ReplayableProgram::release(Cursor c)
{
    SP_ASSERT(c >= base_, "release cursor moved backwards");
    size_t drop = static_cast<size_t>(c - base_);
    SP_ASSERT(drop <= offset_, "releasing ops that were not yet delivered");
    window_.popFront(drop);
    base_ = c;
    offset_ -= drop;
}

template <class Ar>
void
ReplayableProgram::serialize(Ar &ar)
{
    ar.tag("PROG");
    ar.ring(window_);
    ar.pod(base_);
    uint64_t offset = offset_;
    ar.pod(offset);
    offset_ = static_cast<size_t>(offset);
    SP_ASSERT(offset_ <= window_.size(), "restored cursor outside window");
}

template void ReplayableProgram::serialize(SnapshotWriter &);
template void ReplayableProgram::serialize(SnapshotReader &);

} // namespace sp
