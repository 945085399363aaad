#include "pmem/tx.hh"

#include <algorithm>
#include <vector>

#include "pmem/log_format.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sp
{

Tx::Tx(OpEmitter &em) : em_(em)
{
}

void
Tx::begin()
{
    if (!active())
        return;
    count_ = 0;
    cursor_ = kLogEntryBase;
    tracked_.clear();
}

void
Tx::appendEntry(Addr addr, unsigned len)
{
    uint64_t padded = (len + 7) / 8 * 8;
    unsigned hdr = checks_ ? kLogEntryHdrChecksummed : kLogEntryHdrLegacy;
    SP_ASSERT(cursor_ + hdr + padded <= kLogBase + kLogBytes,
              "undo log exhausted");

    // Log-management code: entry setup, cursor arithmetic.
    em_.aluChain(12);

    // Packed entry: descriptor words, then the original data.
    em_.store(cursor_, addr, 8);
    em_.store(cursor_ + 8, len, 8);
    if (checks_) {
        // CRC the pre-image being logged (the same bytes the memcpy
        // below copies) plus the descriptor, so a corrupt length can
        // never silently derail the recovery walk. The chain models the
        // software checksum cost.
        crcBuf_.resize(len);
        em_.image().read(addr, crcBuf_.data(), len);
        uint64_t crcw = packEntryCrc(logEntryDescCrc(addr, len),
                                     crc32(crcBuf_.data(), len));
        em_.store(cursor_ + 16, crcw, 8);
        em_.aluChain(4 + len / 8);
    }
    Addr data = cursor_ + hdr;
    em_.memcpy(data, addr, len);

    // clwb every block the entry touches (Table 1: one clwb per 64B
    // logged node; packing makes trailing blocks shared across entries,
    // and re-clwb of a clean block costs no NVMM write).
    em_.clwbRange(cursor_, hdr + static_cast<unsigned>(padded));

    cursor_ = data + padded;
    ++count_;
}

void
Tx::logSlotRange(Addr addr, unsigned len)
{
    // The slot indices of each covered region are contiguous, so the
    // intersection of [addr, addr+len) with a region maps to one slot
    // range; a range straddling the coverage boundary logs only the
    // covered part (uncovered bytes simply are not CRC-protected).
    struct Region
    {
        Addr lo;
        Addr hi;
    };
    const Region regions[2] = {
        {kMetaBase, kMetaBase + kMetaBytes},
        {kHeapBase, kHeapBase + kCrcHeapBytes},
    };
    for (const Region &r : regions) {
        Addr lo = std::max(addr, r.lo);
        Addr hi = std::min(addr + len, r.hi);
        if (lo >= hi)
            continue;
        Addr first = blockAlign(lo);
        Addr last = blockAlign(hi - 1);
        unsigned slots = static_cast<unsigned>((last - first) /
                                               kBlockBytes) + 1;
        appendEntry(crcSlotAddr(first), slots * 8);
    }
}

void
Tx::logRange(Addr addr, unsigned len)
{
    if (!active() || len == 0)
        return;
    appendEntry(addr, len);
    if (checks_) {
        logSlotRange(addr, len);
        tracked_.emplace_back(addr, len);
    }
}

void
Tx::trackRange(Addr addr, unsigned len)
{
    if (!active() || !checks_ || len == 0)
        return;
    logSlotRange(addr, len);
    tracked_.emplace_back(addr, len);
}

void
Tx::storeHeaderCrc(uint64_t bit)
{
    em_.store(kLogHdrCrcAddr,
              logHeaderCrc(bit, count_, kLogFormatChecksummed), 8);
}

void
Tx::seal()
{
    if (!active())
        return;
    em_.aluChain(10);
    // Persist the entry count together with the log contents.
    em_.store(kLogCountAddr, count_, 8);
    if (checks_)
        storeHeaderCrc(0);
    em_.clwb(kLogBase);
    em_.persistBarrier(); // step 1: the undo log is durable

    em_.store(kLogBitAddr, 1, 8); // logged_bit = 1
    if (checks_)
        storeHeaderCrc(1);
    em_.clwb(kLogBase);
    em_.persistBarrier(); // step 2: the transaction has begun
}

void
Tx::commitUpdates()
{
    if (!active())
        return;
    if (checks_ && !tracked_.empty()) {
        // Refresh the CRC slot of every covered line this transaction
        // logged or tracked, inside step 3 so slot and data become
        // durable under the same barrier. Lines are deduped and sorted
        // so the emitted op stream is independent of logging order.
        lines_.clear();
        for (const auto &[addr, len] : tracked_) {
            Addr last = blockAlign(addr + len - 1);
            for (Addr line = blockAlign(addr); line <= last;
                 line += kBlockBytes) {
                if (crcCovered(line))
                    lines_.push_back(line);
            }
        }
        std::sort(lines_.begin(), lines_.end());
        lines_.erase(std::unique(lines_.begin(), lines_.end()), lines_.end());

        slotBlocks_.clear();
        for (Addr line : lines_) {
            em_.aluChain(8); // checksum the 64B line
            uint64_t slot = kCrcSlotValid | crcLine(em_.image(), line);
            em_.store(crcSlotAddr(line), slot, 8);
            slotBlocks_.push_back(blockAlign(crcSlotAddr(line)));
        }
        slotBlocks_.erase(
            std::unique(slotBlocks_.begin(), slotBlocks_.end()),
            slotBlocks_.end());
        for (Addr block : slotBlocks_)
            em_.clwb(block);
    }
    em_.persistBarrier(); // step 3: the updates are durable
}

void
Tx::end()
{
    if (!active())
        return;
    em_.store(kLogBitAddr, 0, 8); // logged_bit = 0
    if (checks_)
        storeHeaderCrc(0);
    em_.clwb(kLogBase);
    em_.persistBarrier(); // step 4: the transaction is complete
}

template <class Ar>
void
Tx::serialize(Ar &ar)
{
    ar.tag("TX  ");
    ar.pod(count_);
    ar.pod(cursor_);
    // A snapshot can land mid-transaction (generation is not cut at
    // transaction boundaries), so the open transaction's tracked ranges
    // ride along. std::pair is not trivially copyable; element-wise.
    ar.seq(tracked_, [&ar](std::pair<Addr, unsigned> &range) {
        ar.pod(range.first);
        ar.pod(range.second);
    });
}

template void Tx::serialize(SnapshotWriter &);
template void Tx::serialize(SnapshotReader &);

} // namespace sp
