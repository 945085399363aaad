#include "sim/audit.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "sim/snapshot.hh"

namespace sp
{

namespace
{

/** Unsealed flushes tracked for rule B; beyond this the oldest (which
 *  the FIFO would drain first anyway) are forgotten. Only reachable in
 *  fence-free modes that never seal anything. */
constexpr size_t kMaxPendingFlushes = 1u << 16;

} // namespace

const char *
auditFindingKindName(AuditFindingKind kind)
{
    switch (kind) {
      case AuditFindingKind::kUnorderedStore:
        return "unordered_store";
      case AuditFindingKind::kUnorderedFlush:
        return "unordered_flush";
    }
    return "?";
}

std::string
AuditFinding::toString() const
{
    std::ostringstream os;
    os << auditFindingKindName(kind) << " line=0x" << std::hex << line
       << std::dec
       << (kind == AuditFindingKind::kUnorderedStore ? " store@op "
                                                     : " flush@op ")
       << storeOp << " (epoch " << storeEpoch << ") overtaken by flush@op "
       << flushOp << " of 0x" << std::hex << witnessLine << std::dec
       << " store@op " << witnessOp << " (epoch " << witnessEpoch
       << ") tick " << firstTick;
    if (resolvedOp != 0)
        os << ", late flush@op " << resolvedOp << " tick " << resolvedTick;
    else
        os << ", never flushed";
    if (edges > 1)
        os << " [" << edges << " edges]";
    return os.str();
}

std::string
AuditReport::toJson() const
{
    std::ostringstream os;
    os << "{\"enabled\":" << (enabled ? "true" : "false")
       << ",\"clean\":" << (clean() ? "true" : "false")
       << ",\"ops\":" << ops << ",\"loads\":" << loads
       << ",\"stores\":" << stores << ",\"flushes\":" << flushes
       << ",\"pcommits\":" << pcommits << ",\"fences\":" << fences
       << ",\"epochs\":" << epochs
       << ",\"redundantFlushes\":" << redundantFlushes
       << ",\"redundantFences\":" << redundantFences
       << ",\"redundantPcommits\":" << redundantPcommits
       << ",\"violationEdges\":" << violationEdges
       << ",\"findingsTruncated\":" << (findingsTruncated ? "true" : "false")
       << ",\"findings\":[";
    for (size_t i = 0; i < findings.size(); ++i) {
        const AuditFinding &f = findings[i];
        if (i)
            os << ",";
        os << "{\"kind\":\"" << auditFindingKindName(f.kind)
           << "\",\"line\":" << f.line << ",\"storeOp\":" << f.storeOp
           << ",\"storeEpoch\":" << f.storeEpoch
           << ",\"witnessLine\":" << f.witnessLine
           << ",\"witnessOp\":" << f.witnessOp
           << ",\"witnessEpoch\":" << f.witnessEpoch
           << ",\"flushOp\":" << f.flushOp
           << ",\"firstTick\":" << f.firstTick
           << ",\"resolvedTick\":" << f.resolvedTick
           << ",\"resolvedOp\":" << f.resolvedOp
           << ",\"edges\":" << f.edges << "}";
    }
    os << "]}";
    return os.str();
}

DurabilityAuditor::DurabilityAuditor(const AuditOptions &opts,
                                     unsigned numMemCtrls)
    : opts_(opts), numMemCtrls_(numMemCtrls > 0 ? numMemCtrls : 1)
{
    report_.enabled = true;
}

unsigned
DurabilityAuditor::ctrlOf(Addr line) const
{
    // Must match MemSystem::ownerOf: block-interleaved across controllers.
    return static_cast<unsigned>((line / kBlockBytes) % numMemCtrls_);
}

int
DurabilityAuditor::addFinding(const AuditFinding &f)
{
    if (report_.findings.size() >= opts_.maxFindings) {
        report_.findingsTruncated = true;
        return -1;
    }
    report_.findings.push_back(f);
    return static_cast<int>(report_.findings.size() - 1);
}

void
DurabilityAuditor::observeStore(Addr addr, uint64_t opIndex)
{
    Addr line = blockAlign(addr);
    LineState &ls = lines_[line];
    ls.lastStoreOp = opIndex;
    ls.lastStoreEpoch = epoch_;
    if (!ls.dirty) {
        ls.dirty = true;
        dirtyLines_.insert(line);
    }
    ++workSinceFence_;
}

void
DurabilityAuditor::flagUnorderedStore(Addr line, LineState &ls,
                                      Addr witnessLine, uint64_t witnessOp,
                                      uint64_t witnessEpoch,
                                      uint64_t flushOp, Tick now)
{
    ++report_.violationEdges;
    if (ls.findingIdx >= 0) {
        ++report_.findings[ls.findingIdx].edges;
        return;
    }
    AuditFinding f;
    f.kind = AuditFindingKind::kUnorderedStore;
    f.line = line;
    f.storeOp = ls.lastStoreOp;
    f.storeEpoch = ls.lastStoreEpoch;
    f.witnessLine = witnessLine;
    f.witnessOp = witnessOp;
    f.witnessEpoch = witnessEpoch;
    f.flushOp = flushOp;
    f.firstTick = now;
    ls.findingIdx = addFinding(f);
}

void
DurabilityAuditor::flagUnorderedFlush(PendingFlush &pf, Addr witnessLine,
                                      uint64_t witnessOp,
                                      uint64_t witnessEpoch,
                                      uint64_t flushOp, Tick now)
{
    ++report_.violationEdges;
    if (pf.findingIdx >= 0) {
        ++report_.findings[pf.findingIdx].edges;
        return;
    }
    AuditFinding f;
    f.kind = AuditFindingKind::kUnorderedFlush;
    f.line = pf.line;
    f.storeOp = pf.flushOp;
    f.storeEpoch = pf.storeEpoch;
    f.witnessLine = witnessLine;
    f.witnessOp = witnessOp;
    f.witnessEpoch = witnessEpoch;
    f.flushOp = flushOp;
    f.firstTick = now;
    pf.findingIdx = addFinding(f);
}

void
DurabilityAuditor::observeFlush(Addr addr, uint64_t opIndex, Tick now)
{
    Addr line = blockAlign(addr);
    LineState &ls = lines_[line];
    if (!ls.dirty) {
        // Nothing to write back: the flush inserts no WPQ entry, so it
        // creates no durability event -- only wasted cycles.
        ++report_.redundantFlushes;
        ++workSinceFence_;
        return;
    }
    uint64_t capturedEpoch = ls.lastStoreEpoch;
    uint64_t capturedStore = ls.lastStoreOp;

    // Rule A: any *other* line still dirty from an earlier epoch is now
    // overtaken -- its store was supposed to be durable one barrier ago,
    // yet this younger write will reach NVMM first. The scan order is
    // canonicalized (sorted addresses, reused scratch) so finding order
    // never depends on hash-set history -- a restored run reproduces the
    // exact report bytes of the uninterrupted one.
    scanScratch_.assign(dirtyLines_.begin(), dirtyLines_.end());
    std::sort(scanScratch_.begin(), scanScratch_.end());
    for (Addr other : scanScratch_) {
        if (other == line)
            continue;
        LineState &elder = lines_.find(other)->second;
        if (elder.lastStoreEpoch < capturedEpoch) {
            flagUnorderedStore(other, elder, line, capturedStore,
                               capturedEpoch, opIndex, now);
        }
    }

    // Rule B: flushes that missed their pcommit drain unordered with
    // respect to other controllers' queues.
    if (numMemCtrls_ > 1) {
        for (PendingFlush &pf : pending_) {
            if (pf.ctrl != ctrlOf(line) && pf.storeEpoch < capturedEpoch) {
                flagUnorderedFlush(pf, line, capturedStore, capturedEpoch,
                                   opIndex, now);
            }
        }
        if (pending_.size() >= kMaxPendingFlushes)
            pending_.pop_front();
        pending_.push_back(
            {line, opIndex, capturedEpoch, ctrlOf(line), -1});
    }

    // The line's own (possibly late) flush closes its open finding.
    if (ls.findingIdx >= 0) {
        report_.findings[ls.findingIdx].resolvedTick = now;
        report_.findings[ls.findingIdx].resolvedOp = opIndex;
        ls.findingIdx = -1;
    }
    ls.dirty = false;
    dirtyLines_.erase(line);
    ++flushesSincePcommit_;
    ++workSinceFence_;
}

void
DurabilityAuditor::observePcommit(uint64_t opIndex)
{
    if (flushesSincePcommit_ == 0)
        ++report_.redundantPcommits;
    flushesSincePcommit_ = 0;
    // A later pcommit's marker covers everything an earlier one did;
    // the sfence that eventually completes them seals up to the latest.
    openPcommitOp_ = opIndex;
    ++workSinceFence_;
}

void
DurabilityAuditor::observeFence(uint64_t opIndex, Tick now)
{
    if (workSinceFence_ == 0)
        ++report_.redundantFences;
    workSinceFence_ = 0;
    if (openPcommitOp_ == 0)
        return;
    // Completed pcommit+sfence pair: everything flushed before the
    // pcommit marker is durable, and a new durability epoch begins.
    while (!pending_.empty() && pending_.front().flushOp < openPcommitOp_) {
        PendingFlush &pf = pending_.front();
        if (pf.findingIdx >= 0) {
            report_.findings[pf.findingIdx].resolvedTick = now;
            report_.findings[pf.findingIdx].resolvedOp = opIndex;
        }
        pending_.pop_front();
    }
    openPcommitOp_ = 0;
    ++report_.epochs;
    epoch_ = report_.epochs;
}

void
DurabilityAuditor::observe(const MicroOp &op, uint64_t opIndex, Tick now)
{
    ++report_.ops;
    switch (op.type) {
      case OpType::kLoad:
        ++report_.loads;
        break;
      case OpType::kStore:
        ++report_.stores;
        observeStore(op.addr, opIndex);
        if (op.size > 1 &&
            blockAlign(op.addr + op.size - 1) != blockAlign(op.addr))
            observeStore(op.addr + op.size - 1, opIndex);
        break;
      case OpType::kClwb:
      case OpType::kClflushOpt:
      case OpType::kClflush:
        ++report_.flushes;
        observeFlush(op.addr, opIndex, now);
        break;
      case OpType::kPcommit:
        ++report_.pcommits;
        observePcommit(opIndex);
        break;
      case OpType::kSfence:
      case OpType::kMfence:
        ++report_.fences;
        observeFence(opIndex, now);
        break;
      case OpType::kXchg:
        // LOCK semantics: full fence (completes pending pcommits), then
        // the store itself dirties the line.
        ++report_.fences;
        observeFence(opIndex, now);
        ++report_.stores;
        observeStore(op.addr, opIndex);
        break;
      case OpType::kAlu:
      case OpType::kAluChain:
        break;
    }
}

const AuditReport &
DurabilityAuditor::finalize()
{
    if (finalized_)
        return report_;
    finalized_ = true;
    // Dirty lines never flushed again are not violations: a clean
    // shutdown writes every cache back, and a crash rolls the open
    // transaction back via the undo log. Only an *overtaking* younger
    // flush (rules A/B above) creates an exposable ordering hole.
    if (opts_.failOnViolation && !report_.clean()) {
        std::string msg = "durability audit: " +
            std::to_string(report_.findings.size()) + " finding(s), " +
            std::to_string(report_.violationEdges) + " edge(s)";
        if (!report_.findings.empty())
            msg += "; first: " + report_.findings.front().toString();
        throw std::runtime_error(msg);
    }
    return report_;
}

template <class Ar>
void
DurabilityAuditor::serialize(Ar &ar)
{
    static_assert(std::is_trivially_copyable<AuditFinding>::value,
                  "AuditFinding must stay trivially copyable");
    ar.tag("AUDT");
    ar.pod(report_.enabled);
    ar.pod(report_.ops);
    ar.pod(report_.loads);
    ar.pod(report_.stores);
    ar.pod(report_.flushes);
    ar.pod(report_.pcommits);
    ar.pod(report_.fences);
    ar.pod(report_.epochs);
    ar.pod(report_.redundantFlushes);
    ar.pod(report_.redundantFences);
    ar.pod(report_.redundantPcommits);
    ar.pod(report_.violationEdges);
    ar.pod(report_.findingsTruncated);
    ar.podVec(report_.findings);
    ar.pod(finalized_);

    // Canonical (sorted) line order so snapshot bytes are a pure
    // function of audit state, never of hash-map history.
    std::vector<Addr> keys;
    if constexpr (!Ar::kLoading) {
        keys.reserve(lines_.size());
        for (const auto &entry : lines_)
            keys.push_back(entry.first);
        std::sort(keys.begin(), keys.end());
    }
    uint64_t numLines = keys.size();
    ar.pod(numLines);
    if constexpr (Ar::kLoading) {
        lines_.clear();
        lines_.reserve(numLines);
        for (uint64_t i = 0; i < numLines; ++i) {
            Addr key = 0;
            ar.pod(key);
            ar.pod(lines_[key]);
        }
    } else {
        for (Addr key : keys) {
            ar.pod(key);
            ar.pod(lines_.find(key)->second);
        }
    }

    std::vector<Addr> dirty;
    if constexpr (!Ar::kLoading) {
        dirty.assign(dirtyLines_.begin(), dirtyLines_.end());
        std::sort(dirty.begin(), dirty.end());
    }
    ar.podVec(dirty);
    if constexpr (Ar::kLoading) {
        dirtyLines_.clear();
        dirtyLines_.reserve(dirty.size());
        for (Addr line : dirty)
            dirtyLines_.insert(line);
    }

    ar.seq(pending_, [&ar](PendingFlush &pf) { ar.pod(pf); });

    ar.pod(epoch_);
    ar.pod(openPcommitOp_);
    ar.pod(flushesSincePcommit_);
    ar.pod(workSinceFence_);
}

template void DurabilityAuditor::serialize(SnapshotWriter &);
template void DurabilityAuditor::serialize(SnapshotReader &);

} // namespace sp
