#include "pmem/recovery.hh"

#include <algorithm>
#include <limits>
#include <vector>

#include "pmem/layout.hh"
#include "pmem/log_format.hh"
#include "sim/logging.hh"

namespace sp
{

namespace
{

/**
 * Shared undo-replay pass.
 *
 * @param applyAtMost Upper bound on entries applied (an interrupted
 *                    recovery stops early).
 * @param clearBit Clear logged_bit after a complete pass; an
 *                 interrupted pass must leave it set so the next boot
 *                 recovers again.
 */
RecoveryResult
replayUndoLog(MemImage &image, unsigned applyAtMost, bool clearBit)
{
    RecoveryResult result;
    uint64_t logged_bit = image.readInt(kLogBase, 8);
    if (logged_bit == 0)
        return result;

    result.undone = true;
    uint64_t count = image.readInt(kLogBase + 8, 8);

    struct Entry
    {
        Addr target;
        uint64_t len;
        Addr data;
    };
    std::vector<Entry> entries;
    entries.reserve(count);

    Addr cursor = kLogBase + kBlockBytes;
    for (uint64_t i = 0; i < count; ++i) {
        Entry entry;
        entry.target = image.readInt(cursor, 8);
        entry.len = image.readInt(cursor + 8, 8);
        entry.data = cursor + 16;
        cursor = entry.data + (entry.len + 7) / 8 * 8;
        SP_ASSERT(cursor <= kLogBase + kLogBytes,
                  "corrupt undo log: entries overrun the log region");
        entries.push_back(entry);
    }

    // Apply in reverse so the oldest logged value of any byte wins.
    std::vector<uint8_t> buf;
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
        if (result.entriesApplied >= applyAtMost)
            return result;
        // A zero-length entry restores nothing but still counts as
        // applied, so interrupted schedules keep the same entry indices.
        if (it->len != 0) {
            buf.resize(it->len);
            image.read(it->data, buf.data(),
                       static_cast<unsigned>(it->len));
            image.write(it->target, buf.data(),
                        static_cast<unsigned>(it->len));
        }
        ++result.entriesApplied;
    }

    if (clearBit)
        image.writeInt(kLogBase, 0, 8);
    return result;
}

} // namespace

RecoveryResult
recoverImage(MemImage &image)
{
    return replayUndoLog(image, std::numeric_limits<unsigned>::max(),
                         true);
}

RecoveryResult
recoverImageInterrupted(MemImage &image, unsigned applyAtMost)
{
    return replayUndoLog(image, applyAtMost, false);
}

// --------------------------------------------------------------------------
// Hardened recovery
// --------------------------------------------------------------------------

const char *
recoveryVerdictName(RecoveryVerdict verdict)
{
    switch (verdict) {
      case RecoveryVerdict::kClean:
        return "clean";
      case RecoveryVerdict::kRepaired:
        return "repaired";
      case RecoveryVerdict::kDegraded:
        return "degraded";
      case RecoveryVerdict::kUnrecoverable:
        return "unrecoverable";
    }
    return "?";
}

namespace
{

constexpr Addr kLogEnd = kLogBase + kLogBytes;

/** One CRC-validated undo entry located by the hardened walk. */
struct HardEntry
{
    Addr target = 0;
    uint64_t len = 0;
    Addr data = 0;
    bool valid = false;
};

void
addLine(std::vector<Addr> &lines, Addr line)
{
    lines.push_back(blockAlign(line));
}

void
addRangeLines(std::vector<Addr> &lines, Addr addr, uint64_t len)
{
    if (len == 0)
        return;
    Addr last = blockAlign(addr + len - 1);
    for (Addr line = blockAlign(addr); line <= last; line += kBlockBytes)
        lines.push_back(line);
}

void
sortUnique(std::vector<Addr> &lines)
{
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
}

/** Read and CRC-validate the checksummed entry at `cursor`. */
bool
parseChecksummedEntry(const MemImage &image, Addr cursor, HardEntry *out,
                      Addr *next)
{
    if (cursor + kLogEntryHdrChecksummed + 8 > kLogEnd)
        return false;
    uint64_t target = image.readInt(cursor, 8);
    uint64_t len = image.readInt(cursor + 8, 8);
    uint64_t crcw = image.readInt(cursor + 16, 8);
    if (logEntryDescCrc(target, len) !=
        static_cast<uint32_t>(crcw & 0xffffffff))
        return false;
    uint64_t padded = (len + 7) / 8 * 8;
    if (len == 0 || cursor + kLogEntryHdrChecksummed + padded > kLogEnd)
        return false;
    out->target = target;
    out->len = len;
    out->data = cursor + kLogEntryHdrChecksummed;
    std::vector<uint8_t> buf(len);
    image.read(out->data, buf.data(), static_cast<unsigned>(len));
    out->valid =
        crc32(buf.data(), len) == static_cast<uint32_t>(crcw >> 32);
    *next = out->data + padded;
    return true;
}

/** Copy one entry's pre-image onto its target range. */
void
applyEntry(MemImage &image, const HardEntry &e)
{
    std::vector<uint8_t> buf(e.len);
    image.read(e.data, buf.data(), static_cast<unsigned>(e.len));
    image.write(e.target, buf.data(), static_cast<unsigned>(e.len));
}

/**
 * Re-copy the bytes of every valid entry overlapping `line` onto the
 * image (reverse order, oldest wins) and report whether the entries
 * fully cover the 64 bytes. The repair source of the bounded-retry
 * phase.
 */
bool
repairLineFromLog(MemImage &image, const std::vector<HardEntry> &entries,
                  Addr line)
{
    uint64_t coverage = 0; // bitmask, one bit per line byte
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
        if (!it->valid)
            continue;
        Addr lo = std::max(it->target, line);
        Addr hi = std::min(it->target + it->len, line + kBlockBytes);
        if (lo >= hi)
            continue;
        std::vector<uint8_t> buf(hi - lo);
        image.read(it->data + (lo - it->target), buf.data(),
                   static_cast<unsigned>(hi - lo));
        image.write(lo, buf.data(), static_cast<unsigned>(hi - lo));
        for (Addr a = lo; a < hi; ++a)
            coverage |= uint64_t{1} << (a - line);
    }
    return coverage == ~uint64_t{0};
}

} // namespace

RecoveryReport
recoverImageHardened(MemImage &image, const RecoveryOptions &opts)
{
    RecoveryReport rep;
    const bool interrupted =
        opts.applyAtMost != std::numeric_limits<unsigned>::max();
    rep.interrupted = interrupted;

    // ---- Phase 1: validate the header. ---------------------------------
    uint64_t bit = image.readInt(kLogBitAddr, 8);
    uint64_t count = image.readInt(kLogCountAddr, 8);
    uint64_t format = image.readInt(kLogFormatAddr, 8);
    uint64_t hdrCrc = image.readInt(kLogHdrCrcAddr, 8);
    bool headerPoisoned = image.poisoned(kLogBase, kBlockBytes);
    bool headerOk = true;
    if (opts.checksums) {
        headerOk = !headerPoisoned && format == kLogFormatChecksummed &&
                   hdrCrc == logHeaderCrc(bit, count, format);
    } else {
        headerOk = !headerPoisoned;
    }
    if (!headerOk) {
        rep.headerSuspect = true;
        addLine(rep.detectedLines, kLogBase);
        if (headerPoisoned)
            ++rep.faultsDetected;
    }

    // ---- Phase 2: walk the entry chain. --------------------------------
    //
    // Trusted header with logged_bit clear: the structure is consistent,
    // entries are stale, nothing to undo. Otherwise walk: up to `count`
    // entries when the header is trusted, or pessimistically until the
    // first invalid entry when it is not (paper Section 3.1 recovers
    // pessimistically; a suspect header must not make us skip an armed
    // log).
    std::vector<HardEntry> entries;
    std::vector<Addr> suspectTargets;
    bool walkLog = !headerOk || bit != 0;
    Addr cursor = kLogEntryBase;
    if (walkLog && opts.checksums) {
        uint64_t limit = headerOk ? count : ~uint64_t{0};
        while (rep.entriesWalked < limit) {
            HardEntry e;
            Addr next = 0;
            bool descOk = parseChecksummedEntry(image, cursor, &e, &next);
            if (!descOk) {
                if (!headerOk)
                    break; // pessimistic walk: clean stop at stale bytes
                // A live entry's descriptor is corrupt: its length (and
                // hence the position of every later entry) is untrusted.
                // Resync by scanning for the next CRC-valid entry.
                addLine(rep.detectedLines, cursor);
                ++rep.entriesDropped;
                ++rep.entriesWalked;
                bool resynced = false;
                for (Addr p = cursor + 8; p + kLogEntryHdrChecksummed + 8
                     <= kLogEnd; p += 8) {
                    HardEntry r;
                    Addr rnext = 0;
                    if (parseChecksummedEntry(image, p, &r, &rnext) &&
                        r.valid) {
                        cursor = p;
                        resynced = true;
                        break;
                    }
                }
                // Even resynced, the corrupt entry's target is unknown:
                // recovery cannot bound what it failed to roll back.
                rep.chainBroken = true;
                if (!resynced)
                    break;
                continue;
            }
            ++rep.entriesWalked;
            if (!e.valid) {
                // Descriptor intact, data CRC bad (or poisoned): the
                // pre-image is lost. Drop the entry; its target range
                // cannot be rolled back and degrades.
                if (image.poisoned(cursor, static_cast<unsigned>(
                                               next - cursor)))
                    ++rep.faultsDetected;
                ++rep.entriesDropped;
                addRangeLines(rep.detectedLines, cursor, next - cursor);
                addRangeLines(rep.degradedLines, e.target, e.len);
                addRangeLines(rep.detectedLines, e.target, e.len);
            } else {
                if (image.poisoned(cursor, static_cast<unsigned>(
                                               next - cursor))) {
                    // Poisoned but CRC-verified: usable, but flagged.
                    ++rep.faultsDetected;
                    addRangeLines(rep.detectedLines, cursor,
                                  next - cursor);
                }
                entries.push_back(e);
                if (!headerOk)
                    addRangeLines(suspectTargets, e.target, e.len);
            }
            cursor = next;
        }
    } else if (walkLog) {
        // Legacy format: no CRCs to validate; trust count and layout
        // exactly as recoverImage() does (poison is still honoured).
        uint64_t limit = headerOk ? count : 0;
        for (uint64_t i = 0; i < limit; ++i) {
            HardEntry e;
            e.target = image.readInt(cursor, 8);
            e.len = image.readInt(cursor + 8, 8);
            e.data = cursor + kLogEntryHdrLegacy;
            uint64_t padded = (e.len + 7) / 8 * 8;
            Addr next = e.data + padded;
            SP_ASSERT(next <= kLogEnd,
                      "corrupt undo log: entries overrun the log region");
            e.valid = !image.poisoned(cursor,
                                      static_cast<unsigned>(next - cursor));
            ++rep.entriesWalked;
            if (!e.valid) {
                ++rep.faultsDetected;
                ++rep.entriesDropped;
                addRangeLines(rep.detectedLines, cursor, next - cursor);
                addRangeLines(rep.degradedLines, e.target, e.len);
                addRangeLines(rep.detectedLines, e.target, e.len);
            } else {
                entries.push_back(e);
            }
            cursor = next;
        }
    }
    rep.logLiveEnd = (headerOk && bit == 0) ? kLogEntryBase : cursor;

    // ---- Phase 3: undo replay (detect -> repair-from-log). -------------
    rep.undone = !entries.empty();
    bool applyTruncated = false;
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
        if (rep.entriesApplied >= opts.applyAtMost) {
            applyTruncated = true; // interrupted: logged_bit stays set
            break;
        }
        applyEntry(image, *it);
        ++rep.entriesApplied;
        // A fully rewritten line is re-encoded: consume its poison and
        // credit the repair (the undo pre-image just healed it).
        Addr last = it->target + it->len;
        for (Addr line = blockAlign(it->target); line < last;
             line += kBlockBytes) {
            if (line >= it->target && line + kBlockBytes <= last &&
                image.poisoned(line, kBlockBytes)) {
                ++rep.faultsDetected;
                ++rep.linesRepaired;
                addLine(rep.detectedLines, line);
                image.clearPoison(line);
            }
        }
    }
    if (rep.headerSuspect && rep.entriesApplied > 0 && !applyTruncated) {
        // A pessimistic rollback under a suspect header may have undone
        // a committed transaction: every applied target is reported so
        // nothing it touched can diverge silently.
        for (Addr line : suspectTargets) {
            rep.detectedLines.push_back(line);
            rep.degradedLines.push_back(line);
        }
    }

    // ---- Finalize the header (full pass only). -------------------------
    if (!interrupted && !applyTruncated) {
        image.writeInt(kLogBitAddr, 0, 8);
        if (opts.checksums) {
            image.writeInt(kLogFormatAddr, kLogFormatChecksummed, 8);
            image.writeInt(kLogHdrCrcAddr,
                           logHeaderCrc(0, count, kLogFormatChecksummed),
                           8);
        }
        // Rewriting the header block re-encodes its ECC.
        image.clearPoison(kLogBase);
    }

    // ---- Phase 4: verify every covered line (full pass only). ----------
    if (!interrupted && !applyTruncated && opts.checksums) {
        for (uint64_t num : image.residentPageNumbers()) {
            Addr base = num * MemImage::kPageBytes;
            if (base + MemImage::kPageBytes <= kCrcBase ||
                base >= kCrcBase + kCrcBytes)
                continue;
            for (Addr slot = base; slot < base + MemImage::kPageBytes;
                 slot += 8) {
                uint64_t idx = (slot - kCrcBase) / 8;
                if (slot < kCrcBase || idx >= kCrcSlots)
                    continue;
                uint64_t val = image.readInt(slot, 8);
                if (!(val & kCrcSlotValid))
                    continue;
                Addr line = crcSlotLine(idx);
                bool poisoned = image.poisoned(line, kBlockBytes);
                bool crcOk = crcLine(image, line) ==
                             static_cast<uint32_t>(val & 0xffffffff);
                if (poisoned)
                    ++rep.faultsDetected;
                if (crcOk && !poisoned)
                    continue;
                if (!crcOk)
                    ++rep.crcMismatches;
                addLine(rep.detectedLines, line);
                if (crcOk && poisoned) {
                    // Contents verified good; rewrite in place to
                    // re-encode the ECC word (a scrub-on-verify).
                    uint8_t buf[kBlockBytes];
                    image.read(line, buf, kBlockBytes);
                    image.write(line, buf, kBlockBytes);
                    image.clearPoison(line);
                    ++rep.linesRepaired;
                    continue;
                }
                // Bounded retry: repair from overlapping undo entries.
                bool repaired = false;
                for (unsigned r = 0; r < opts.maxRetries && !repaired;
                     ++r) {
                    ++rep.retries;
                    bool covered =
                        repairLineFromLog(image, entries, line);
                    if (covered)
                        image.clearPoison(line);
                    repaired = !image.poisoned(line, kBlockBytes) &&
                               crcLine(image, line) ==
                                   static_cast<uint32_t>(val & 0xffffffff);
                }
                if (repaired) {
                    ++rep.linesRepaired;
                    continue;
                }
                // Degrade: drop the record. The slot is invalidated (a
                // content change vs a clean recovery, so the slot's own
                // line is reported too) and the line stands corrupt but
                // loudly reported.
                image.writeInt(slot, 0, 8);
                image.clearPoison(line);
                addLine(rep.degradedLines, line);
                addLine(rep.detectedLines, blockAlign(slot));
            }
        }
    }

    // ---- Phase 5: sweep remaining poison (full pass only). -------------
    if (!interrupted && !applyTruncated) {
        for (Addr line : image.poisonedLines()) {
            ++rep.faultsDetected;
            addLine(rep.detectedLines, line);
            if (line >= kLogBase && line < kLogEnd) {
                // Dead log space (live entries were handled in the
                // walk): report and leave it; nothing semantically
                // lives there after recovery.
                continue;
            }
            if (line >= kCrcBase && line < kCrcBase + kCrcBytes) {
                // A poisoned slot line: its slots can no longer be
                // trusted, so invalidate and rewrite them. The covered
                // data lines merely lose CRC protection; their contents
                // were independently verified or degraded above.
                uint64_t zeros[kBlockBytes / 8] = {};
                image.write(line, zeros, kBlockBytes);
                image.clearPoison(line);
                continue;
            }
            // A data line with no valid slot (fresh allocation or
            // uncovered region): no repair source and no way to verify
            // -- drop it.
            bool covered = repairLineFromLog(image, entries, line);
            ++rep.retries;
            if (covered &&
                !image.poisoned(line, kBlockBytes)) {
                ++rep.linesRepaired;
                continue;
            }
            image.clearPoison(line);
            addLine(rep.degradedLines, line);
        }
    }

    sortUnique(rep.detectedLines);
    sortUnique(rep.degradedLines);

    // ---- Verdict. ------------------------------------------------------
    if (rep.chainBroken) {
        rep.verdict = RecoveryVerdict::kUnrecoverable;
    } else if (!rep.degradedLines.empty() || rep.entriesDropped > 0) {
        rep.verdict = RecoveryVerdict::kDegraded;
    } else if (rep.faultsDetected > 0 || rep.crcMismatches > 0 ||
               rep.linesRepaired > 0 || rep.headerSuspect) {
        rep.verdict = RecoveryVerdict::kRepaired;
    } else {
        rep.verdict = RecoveryVerdict::kClean;
    }
    return rep;
}

RecoveryReport
recoverImageHardenedInterrupted(MemImage &image, unsigned applyAtMost,
                                RecoveryOptions opts)
{
    opts.applyAtMost = applyAtMost;
    return recoverImageHardened(image, opts);
}

} // namespace sp
