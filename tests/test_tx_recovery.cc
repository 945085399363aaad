/**
 * @file
 * Unit tests: the 4-step WAL transaction and undo-log recovery
 * (paper Section 3.1).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "pmem/log_format.hh"
#include "pmem/op_emitter.hh"
#include "pmem/recovery.hh"
#include "pmem/tx.hh"
#include "sim/snapshot.hh"

using namespace sp;

namespace
{

std::vector<MicroOp>
drain(OpEmitter &em)
{
    std::vector<MicroOp> ops;
    MicroOp op;
    while (em.next(op))
        ops.push_back(op);
    return ops;
}

unsigned
countType(const std::vector<MicroOp> &ops, OpType t)
{
    return static_cast<unsigned>(
        std::count_if(ops.begin(), ops.end(),
                      [t](const MicroOp &op) { return op.type == t; }));
}

} // namespace

TEST(Tx, FourPcommitsEightSfencesPerTransaction)
{
    // Paper Section 3.1: "at least 4 pcommits and 8 sfence operations are
    // needed per transactional update".
    MemImage img;
    OpEmitter em(img, PersistMode::kLogPSf);
    Tx tx(em);
    tx.begin();
    tx.logRange(0x20000, 64);
    tx.seal();
    em.store(0x20000, 42, 8);
    em.clwb(0x20000);
    tx.commitUpdates();
    tx.end();
    auto ops = drain(em);
    EXPECT_EQ(countType(ops, OpType::kPcommit), 4u);
    EXPECT_EQ(countType(ops, OpType::kSfence), 8u);
}

TEST(Tx, StepOrderIsLogBitUpdatesClear)
{
    MemImage img;
    OpEmitter em(img, PersistMode::kLogPSf);
    Tx tx(em);
    tx.begin();
    tx.logRange(0x20000, 8);
    tx.seal();
    em.store(0x20000, 42, 8);
    em.clwb(0x20000);
    tx.commitUpdates();
    tx.end();
    auto ops = drain(em);
    // Find the stores to the log header (logged_bit).
    std::vector<size_t> bit_sets, bit_clears, update;
    for (size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].type != OpType::kStore)
            continue;
        if (ops[i].addr == kLogBase && ops[i].value == 1)
            bit_sets.push_back(i);
        if (ops[i].addr == kLogBase && ops[i].value == 0)
            bit_clears.push_back(i);
        if (ops[i].addr == 0x20000 && ops[i].value == 42)
            update.push_back(i);
    }
    ASSERT_EQ(bit_sets.size(), 1u);
    ASSERT_EQ(bit_clears.size(), 1u);
    ASSERT_EQ(update.size(), 1u);
    EXPECT_LT(bit_sets[0], update[0]);
    EXPECT_LT(update[0], bit_clears[0]);
}

TEST(Tx, InactiveBelowLogMode)
{
    MemImage img;
    OpEmitter em(img, PersistMode::kNone);
    Tx tx(em);
    tx.begin();
    tx.logRange(0x20000, 64);
    tx.seal();
    tx.commitUpdates();
    tx.end();
    EXPECT_TRUE(drain(em).empty());
    EXPECT_EQ(img.readInt(kLogBase, 8), 0u);
}

namespace
{

/** What the PackedEntryLayout transaction leaves behind. */
struct LayoutRun
{
    MemImage img;
    /** Tx::serialize bytes: entry count, cursor, tracked ranges. */
    std::vector<uint8_t> txState;
    uint64_t stores = 0;
    unsigned entries = 0;
};

/**
 * Log three ranges (8, 16 and 13 bytes, the last leaving three pad
 * bytes) and seal, on a muted or an emitting emitter. The entry region
 * starts filled with 0xab so a written pad byte would show.
 */
LayoutRun
runLayoutTx(bool muted, bool checksums)
{
    LayoutRun run;
    MemImage &img = run.img;
    for (Addr a = kLogEntryBase; a < kLogEntryBase + 512; a += 8)
        img.writeInt(a, 0xababababababababull, 8);
    img.writeInt(0x20000, 0x1111, 8);
    img.writeInt(0x30000, 0x2222, 8);
    img.writeInt(0x30008, 0x3333, 8);
    for (unsigned i = 0; i < 13; ++i)
        img.writeInt(kHeapBase + 0x80 + i, 0x40 + i, 1);
    OpEmitter em(img, PersistMode::kLogPSf);
    em.setMuted(muted);
    Tx tx(em);
    tx.setChecksums(checksums);
    tx.begin();
    tx.logRange(0x20000, 8);
    tx.logRange(0x30000, 16);
    tx.logRange(kHeapBase + 0x80, 13);
    tx.seal();
    SnapshotWriter w;
    tx.serialize(w);
    run.txState = w.take();
    run.stores = em.stores();
    run.entries = tx.entries();
    return run;
}

} // namespace

TEST(Tx, PackedEntryLayout)
{
    for (bool muted : {false, true}) {
        SCOPED_TRACE(muted ? "muted" : "emitting");
        LayoutRun run = runLayoutTx(muted, false);
        const MemImage &img = run.img;
        EXPECT_EQ(run.entries, 3u);
        // Entry 0 at kLogBase+64: {addr, len, data[8]}.
        Addr e0 = kLogBase + 64;
        EXPECT_EQ(img.readInt(e0, 8), 0x20000u);
        EXPECT_EQ(img.readInt(e0 + 8, 8), 8u);
        EXPECT_EQ(img.readInt(e0 + 16, 8), 0x1111u);
        // Entry 1 immediately after (16 + 8 bytes).
        Addr e1 = e0 + 24;
        EXPECT_EQ(img.readInt(e1, 8), 0x30000u);
        EXPECT_EQ(img.readInt(e1 + 8, 8), 16u);
        EXPECT_EQ(img.readInt(e1 + 16, 8), 0x2222u);
        EXPECT_EQ(img.readInt(e1 + 24, 8), 0x3333u);
        // Entry 2 after 16 + 16 bytes: 13 data bytes, padded to 16; the
        // pad bytes keep what was there.
        Addr e2 = e1 + 32;
        EXPECT_EQ(img.readInt(e2, 8), kHeapBase + 0x80);
        EXPECT_EQ(img.readInt(e2 + 8, 8), 13u);
        for (unsigned i = 0; i < 13; ++i)
            EXPECT_EQ(img.readInt(e2 + 16 + i, 1), 0x40u + i);
        for (unsigned i = 13; i < 16; ++i)
            EXPECT_EQ(img.readInt(e2 + 16 + i, 1), 0xabu);
        // Header: logged_bit set, count 3.
        EXPECT_EQ(img.readInt(kLogBase, 8), 1u);
        EXPECT_EQ(img.readInt(kLogBase + 8, 8), 3u);
    }
    // A muted emitter writes each entry in one image write; it must
    // leave the bytes, entry count, cursor and store count that the
    // emitted stores leave, in both log formats.
    for (bool checksums : {false, true}) {
        SCOPED_TRACE(checksums ? "checksums on" : "checksums off");
        LayoutRun loud = runLayoutTx(false, checksums);
        LayoutRun quiet = runLayoutTx(true, checksums);
        EXPECT_TRUE(sameContents(quiet.img, loud.img));
        EXPECT_EQ(quiet.entries, loud.entries);
        EXPECT_EQ(quiet.txState, loud.txState);
        EXPECT_EQ(quiet.stores, loud.stores);
    }
}

TEST(Recovery, NoopWhenBitClear)
{
    MemImage img;
    img.writeInt(0x20000, 5, 8);
    RecoveryResult res = recoverImage(img);
    EXPECT_FALSE(res.undone);
    EXPECT_EQ(img.readInt(0x20000, 8), 5u);
}

TEST(Recovery, UndoesLoggedRanges)
{
    MemImage img;
    img.writeInt(0x20000, 5, 8);
    OpEmitter em(img, PersistMode::kLog);
    Tx tx(em);
    tx.begin();
    tx.logRange(0x20000, 8);
    tx.seal();
    em.store(0x20000, 99, 8); // the update
    // Crash before end(): logged_bit is still set.
    RecoveryResult res = recoverImage(img);
    EXPECT_TRUE(res.undone);
    EXPECT_EQ(res.entriesApplied, 1u);
    EXPECT_EQ(img.readInt(0x20000, 8), 5u);
    EXPECT_EQ(img.readInt(kLogBase, 8), 0u);
}

TEST(Recovery, ReverseOrderRestoresOldest)
{
    // If the same range is (wrongly) logged twice with different values,
    // the OLDEST logged value must win -- entries apply in reverse.
    MemImage img;
    img.writeInt(0x20000, 1, 8);
    OpEmitter em(img, PersistMode::kLog);
    Tx tx(em);
    tx.begin();
    tx.logRange(0x20000, 8); // logs value 1
    em.store(0x20000, 2, 8);
    tx.logRange(0x20000, 8); // logs value 2
    em.store(0x20000, 3, 8);
    tx.seal();
    recoverImage(img);
    EXPECT_EQ(img.readInt(0x20000, 8), 1u);
}

TEST(Recovery, Idempotent)
{
    MemImage img;
    img.writeInt(0x20000, 5, 8);
    OpEmitter em(img, PersistMode::kLog);
    Tx tx(em);
    tx.begin();
    tx.logRange(0x20000, 8);
    tx.seal();
    em.store(0x20000, 99, 8);
    recoverImage(img);
    RecoveryResult second = recoverImage(img);
    EXPECT_FALSE(second.undone);
    EXPECT_EQ(img.readInt(0x20000, 8), 5u);
}

TEST(Recovery, MultiBlockRange)
{
    MemImage img;
    for (int i = 0; i < 32; ++i)
        img.writeInt(0x20000 + i * 8, i, 8);
    OpEmitter em(img, PersistMode::kLog);
    Tx tx(em);
    tx.begin();
    tx.logRange(0x20000, 256);
    tx.seal();
    for (int i = 0; i < 32; ++i)
        em.store(0x20000 + i * 8, 1000 + i, 8);
    recoverImage(img);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(img.readInt(0x20000 + i * 8, 8),
                  static_cast<uint64_t>(i));
}

TEST(Recovery, ZeroLengthEntryCountsButWritesNothing)
{
    // Hand-built log: [8-byte entry, 0-byte entry, 8-byte entry]. The
    // empty entry restores nothing but still counts as applied, so an
    // interrupted pass stops at the same entry index either way.
    MemImage img;
    img.writeInt(0x20000, 111, 8); // current (post-update) values
    img.writeInt(0x20040, 222, 8);
    img.writeInt(kLogBase, 1, 8);  // logged_bit
    img.writeInt(kLogBase + 8, 3, 8);
    Addr cursor = kLogBase + kBlockBytes;
    auto entry = [&](Addr target, uint64_t len, uint64_t value) {
        img.writeInt(cursor, target, 8);
        img.writeInt(cursor + 8, len, 8);
        if (len)
            img.writeInt(cursor + 16, value, 8);
        cursor += 16 + (len + 7) / 8 * 8;
    };
    entry(0x20000, 8, 5);
    entry(0x30000, 0, 0);
    entry(0x20040, 8, 6);
    MemImage before = img;

    // Reverse order: the 0x20040 entry, then the empty one.
    MemImage partial = img;
    RecoveryResult two = recoverImageInterrupted(partial, 2);
    EXPECT_EQ(two.entriesApplied, 2u);
    EXPECT_EQ(partial.readInt(0x20040, 8), 6u);
    EXPECT_EQ(partial.readInt(0x20000, 8), 111u);
    EXPECT_EQ(partial.readInt(0x30000, 8), 0u);

    RecoveryResult res = recoverImage(img);
    EXPECT_TRUE(res.undone);
    EXPECT_EQ(res.entriesApplied, 3u);
    EXPECT_EQ(img.readInt(0x20000, 8), 5u);
    EXPECT_EQ(img.readInt(0x20040, 8), 6u);
    EXPECT_EQ(img.readInt(kLogBase, 8), 0u);
    // Nothing besides the two targets and the log bit changed.
    MemImage expect = before;
    expect.writeInt(0x20000, 5, 8);
    expect.writeInt(0x20040, 6, 8);
    expect.writeInt(kLogBase, 0, 8);
    EXPECT_TRUE(sameContents(img, expect));
}

TEST(Recovery, FreshTxAfterRecoveryWorks)
{
    MemImage img;
    img.writeInt(0x20000, 5, 8);
    OpEmitter em(img, PersistMode::kLog);
    Tx tx(em);
    tx.begin();
    tx.logRange(0x20000, 8);
    tx.seal();
    em.store(0x20000, 99, 8);
    recoverImage(img);
    // A complete transaction afterwards commits normally.
    tx.begin();
    tx.logRange(0x20000, 8);
    tx.seal();
    em.store(0x20000, 77, 8);
    tx.commitUpdates();
    tx.end();
    RecoveryResult res = recoverImage(img);
    EXPECT_FALSE(res.undone);
    EXPECT_EQ(img.readInt(0x20000, 8), 77u);
}
