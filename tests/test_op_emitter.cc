/**
 * @file
 * Unit tests: OpEmitter -- functional execution + emission, PersistMode
 * filtering, dependence handles, muting, and the shadow pass.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "pmem/op_emitter.hh"
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

/** Deterministic contents over [0, 0xd000). */
void
fillImage(MemImage &img)
{
    for (Addr a = 0; a < 0xd000; a += 8)
        img.writeInt(a, a * 0x9e3779b97f4a7c15ull, 8);
}

} // namespace

TEST(OpEmitter, StoreUpdatesImageAndEmits)
{
    MemImage img;
    OpEmitter em(img, PersistMode::kLogPSf);
    em.store(0x1000, 0xABCD, 8);
    EXPECT_EQ(img.readInt(0x1000, 8), 0xABCDu);
    auto ops = drain(em);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].type, OpType::kStore);
    EXPECT_EQ(ops[0].value, 0xABCDu);
}

TEST(OpEmitter, LoadReadsImage)
{
    MemImage img;
    img.writeInt(0x2000, 77, 8);
    OpEmitter em(img, PersistMode::kLogPSf);
    EXPECT_EQ(em.load(0x2000, 8), 77u);
    auto ops = drain(em);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].type, OpType::kLoad);
}

TEST(OpEmitter, ModeFiltersPersistOps)
{
    MemImage img;
    auto count_emitted = [&](PersistMode mode) {
        OpEmitter em(img, mode);
        em.store(0x1000, 1, 8);
        em.clwb(0x1000);
        em.persistBarrier();
        auto ops = drain(em);
        return std::make_tuple(countType(ops, OpType::kClwb),
                               countType(ops, OpType::kPcommit),
                               countType(ops, OpType::kSfence));
    };
    EXPECT_EQ(count_emitted(PersistMode::kNone),
              std::make_tuple(0u, 0u, 0u));
    EXPECT_EQ(count_emitted(PersistMode::kLog),
              std::make_tuple(0u, 0u, 0u));
    EXPECT_EQ(count_emitted(PersistMode::kLogP),
              std::make_tuple(1u, 1u, 0u));
    EXPECT_EQ(count_emitted(PersistMode::kLogPSf),
              std::make_tuple(1u, 1u, 2u));
}

TEST(OpEmitter, DependenceDistances)
{
    MemImage img;
    OpEmitter em(img, PersistMode::kLogPSf);
    OpEmitter::Handle h = OpEmitter::kNoDep;
    em.load(0x1000, 8, OpEmitter::kNoDep, &h);
    em.alu(1);
    em.store(0x2000, 5, 8, h); // two ops after the load
    auto ops = drain(em);
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[0].dep, 0);
    EXPECT_EQ(ops[2].dep, 2);
}

TEST(OpEmitter, OverlongDependenceDropped)
{
    MemImage img;
    OpEmitter em(img, PersistMode::kLogPSf);
    OpEmitter::Handle h = OpEmitter::kNoDep;
    em.load(0x1000, 8, OpEmitter::kNoDep, &h);
    for (int i = 0; i < 5000; ++i)
        em.alu(1);
    em.store(0x2000, 5, 8, h);
    auto ops = drain(em);
    EXPECT_EQ(ops.back().dep, 0);
}

TEST(OpEmitter, AluChainLinksChunks)
{
    MemImage img;
    OpEmitter em(img, PersistMode::kLogPSf);
    em.aluChain(5);
    auto ops = drain(em);
    ASSERT_EQ(ops.size(), 5u);
    EXPECT_EQ(ops[0].dep, 0);
    for (size_t i = 1; i < ops.size(); ++i)
        EXPECT_EQ(ops[i].dep, 1);
}

TEST(OpEmitter, AluChainReturnsChainableHandle)
{
    MemImage img;
    OpEmitter em(img, PersistMode::kLogPSf);
    OpEmitter::Handle h = em.aluChain(2);
    em.aluChain(1, h);
    auto ops = drain(em);
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[2].dep, 1); // chains directly behind the previous chunk
}

namespace
{

/** Every byte of every op matches (MicroOp has no padding). */
void
expectSameStream(const std::vector<MicroOp> &got,
                 const std::vector<MicroOp> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(MicroOp)), 0)
            << "op " << i << ": got " << got[i].toString() << ", want "
            << want[i].toString();
    }
}

/** `n` chain elements as per-element emission produced them. */
void
appendChain(std::vector<MicroOp> &ops, unsigned n, uint16_t firstDep)
{
    for (unsigned i = 0; i < n; ++i)
        ops.push_back(MicroOp::aluChain(1, i ? 1 : firstDep));
}

} // namespace

// A chain run is queued as one record; what next() delivers must be the
// element stream, with handles that index single elements.
TEST(OpEmitter, ChainRunDeliversElementStream)
{
    MemImage img;
    OpEmitter em(img, PersistMode::kLogPSf);
    OpEmitter::Handle h = OpEmitter::kNoDep;
    em.load(0x1000, 8, OpEmitter::kNoDep, &h);        // op 0
    OpEmitter::Handle end = em.aluChain(6, h);         // ops 1-6
    EXPECT_EQ(end, 7u);
    em.store(0x2000, 0x1234, 8, end);                  // op 7
    em.load(0x3000, 8, /*mid-chain op 3=*/4);          // op 8
    em.aluChain(1);                                    // op 9
    em.aluChain(3, end);                               // ops 10-12
    EXPECT_EQ(em.emitted(), 13u);

    std::vector<MicroOp> want;
    want.push_back(MicroOp::load(0x1000, 8));
    appendChain(want, 6, 1);
    want.push_back(MicroOp::store(0x2000, 0x1234, 8, 1));
    want.push_back(MicroOp::load(0x3000, 8, 5));
    appendChain(want, 1, 0);
    appendChain(want, 3, 4);
    expectSameStream(drain(em), want);
}

// Snapshots keep their per-element layout: a save taken while a run is
// half delivered writes the elements left, and a restore delivers them.
TEST(OpEmitter, ChainRunSavesAsElements)
{
    MemImage img;
    OpEmitter em(img, PersistMode::kLogPSf);
    em.aluChain(10);
    em.store(0x2000, 7, 8);
    em.aluChain(2, em.emitted());
    MicroOp op;
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(em.next(op));

    std::vector<MicroOp> rest;
    appendChain(rest, 7, 1);
    rest.push_back(MicroOp::store(0x2000, 7, 8));
    appendChain(rest, 2, 1);
    SnapshotWriter want;
    want.tag("EMIT");
    want.pod(false);                   // muted
    want.pod(uint64_t{rest.size()});
    for (const MicroOp &e : rest)
        want.pod(e);
    want.pod(uint64_t{13});            // emitted
    want.pod(false);                   // finished
    want.pod(uint64_t{0});             // mutation matches
    want.pod(false);                   // mutation done
    want.pod(false);                   // mutation holding
    want.pod(MicroOp{});               // held op
    want.pod(0u);                      // pcommits passed
    SnapshotWriter got;
    em.serialize(got);
    EXPECT_TRUE(got.bytes() == want.bytes());

    MemImage img2;
    OpEmitter restored(img2, PersistMode::kLogPSf);
    SnapshotReader r(got.bytes());
    restored.serialize(r);
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(restored.emitted(), 13u);
    expectSameStream(drain(restored), rest);
    expectSameStream(drain(em), rest);
}

// A delayed barrier's held window passes chain runs through untouched:
// the stream is the one per-element emission produced.
TEST(OpEmitter, DelayedBarrierSpanningChainRun)
{
    MemImage img;
    OpEmitter em(img, PersistMode::kLogPSf);
    BarrierMutation m;
    m.kind = BarrierMutation::Kind::kDelay;
    m.target = BarrierMutation::Target::kClwb;
    m.delayBarriers = 1;
    em.setMutation(m);
    em.clwb(0x1000);                                   // held
    OpEmitter::Handle h = em.aluChain(4);
    em.sfence();
    em.aluChain(3, h);
    em.pcommit();
    em.aluChain(2);
    em.sfence();                                       // releases the clwb
    em.aluChain(2);

    std::vector<MicroOp> want;
    appendChain(want, 4, 0);
    want.push_back(MicroOp::sfence());
    appendChain(want, 3, 2);
    want.push_back(MicroOp::pcommit());
    appendChain(want, 2, 0);
    want.push_back(MicroOp::sfence());
    want.push_back(MicroOp::clwb(0x1000));
    appendChain(want, 2, 0);
    expectSameStream(drain(em), want);
    EXPECT_EQ(em.emitted(), want.size());
}

TEST(OpEmitter, MemcpyEmitsPairedOps)
{
    MemImage img;
    img.writeInt(0x1000, 0x11111111, 8);
    img.writeInt(0x1008, 0x22222222, 8);
    OpEmitter em(img, PersistMode::kLogPSf);
    em.memcpy(0x2000, 0x1000, 16);
    EXPECT_EQ(img.readInt(0x2000, 8), 0x11111111u);
    EXPECT_EQ(img.readInt(0x2008, 8), 0x22222222u);
    auto ops = drain(em);
    EXPECT_EQ(countType(ops, OpType::kLoad), 2u);
    EXPECT_EQ(countType(ops, OpType::kStore), 2u);
    // Each store depends on its load.
    EXPECT_EQ(ops[1].dep, 1);
}

TEST(OpEmitter, ClwbRangeCoversBlocks)
{
    MemImage img;
    OpEmitter em(img, PersistMode::kLogP);
    em.clwbRange(0x1020, 0x50); // spans blocks 0x1000 and 0x1040
    auto ops = drain(em);
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[0].addr, 0x1000u);
    EXPECT_EQ(ops[1].addr, 0x1040u);
}

TEST(OpEmitter, MutedEmitsNothingButExecutes)
{
    MemImage img;
    OpEmitter em(img, PersistMode::kLogPSf);
    em.setMuted(true);
    em.store(0x1000, 9, 8);
    em.persistBarrier();
    em.setMuted(false);
    EXPECT_EQ(img.readInt(0x1000, 8), 9u);
    EXPECT_TRUE(drain(em).empty());
    EXPECT_EQ(em.emitted(), 0u);
}

TEST(OpEmitter, GeneratorRefillsQueue)
{
    MemImage img;
    OpEmitter em(img, PersistMode::kLogPSf);
    int calls = 0;
    em.setGenerator([&] {
        if (calls >= 3)
            return false;
        em.store(0x1000 + calls * 8, calls, 8);
        ++calls;
        return true;
    });
    auto ops = drain(em);
    EXPECT_EQ(ops.size(), 3u);
    EXPECT_EQ(calls, 3);
}

TEST(OpEmitter, ShadowDoesNotTouchImage)
{
    MemImage img;
    img.writeInt(0x1000, 1, 8);
    OpEmitter em(img, PersistMode::kLogPSf);
    em.beginShadow();
    em.store(0x1000, 99, 8);
    EXPECT_EQ(em.load(0x1000, 8), 99u); // shadow sees its own write
    auto result = em.endShadow();
    EXPECT_EQ(img.readInt(0x1000, 8), 1u); // image untouched
    ASSERT_EQ(result.writtenBlocks.size(), 1u);
    EXPECT_EQ(result.writtenBlocks[0], 0x1000u);
}

TEST(OpEmitter, ShadowRecordsReadsAndWrites)
{
    MemImage img;
    OpEmitter em(img, PersistMode::kLogPSf);
    em.beginShadow();
    em.load(0x1000, 8);
    em.load(0x1008, 8); // same block
    em.store(0x2000, 1, 8);
    auto result = em.endShadow();
    EXPECT_EQ(result.touchedBlocks, std::vector<Addr>({0x1000, 0x2000}));
    EXPECT_EQ(result.writtenBlocks, std::vector<Addr>({0x2000}));
}

TEST(OpEmitter, ShadowEmitsNothing)
{
    MemImage img;
    OpEmitter em(img, PersistMode::kLogPSf);
    em.beginShadow();
    em.store(0x1000, 1, 8);
    em.aluChain(10);
    em.persistBarrier();
    em.endShadow();
    EXPECT_TRUE(drain(em).empty());
}

TEST(OpEmitter, ShadowReadsFallThroughToImage)
{
    MemImage img;
    img.writeInt(0x3000, 123, 8);
    OpEmitter em(img, PersistMode::kLogPSf);
    em.beginShadow();
    EXPECT_EQ(em.load(0x3000, 8), 123u);
    em.endShadow();
}

TEST(OpEmitter, ShadowListsAreSortedAndUnique)
{
    MemImage img;
    OpEmitter em(img, PersistMode::kLogPSf);
    em.beginShadow();
    // Interleaved and repeated touches, blocks visited out of order.
    for (int rep = 0; rep < 3; ++rep) {
        em.load(0x3000, 8);
        em.load(0x1008, 8);
        em.load(0x3010, 8);
        em.store(0x5000, rep, 8);
        em.store(0x4008, rep, 8);
        em.load(0x5000, 8); // read of a written block
    }
    auto result = em.endShadow();
    EXPECT_EQ(result.touchedBlocks,
              std::vector<Addr>({0x1000, 0x3000, 0x4000, 0x5000}));
    EXPECT_EQ(result.writtenBlocks, std::vector<Addr>({0x4000, 0x5000}));

    // The next pass starts empty, even for the block read last.
    em.beginShadow();
    em.load(0x5000, 8);
    result = em.endShadow();
    EXPECT_EQ(result.touchedBlocks, std::vector<Addr>({0x5000}));
    EXPECT_TRUE(result.writtenBlocks.empty());
}

TEST(OpEmitter, MutedMemcpyMatchesEmittedCopy)
{
    // Disjoint, page-crossing and overlapping (forward and backward)
    // copies: a muted memcpy must leave the image exactly as the
    // emitting one does.
    struct Copy
    {
        Addr dst;
        Addr src;
        unsigned len;
    };
    const Copy copies[] = {
        {0x8000, 0x1000, 200},       {0x2ff0, 0x6000, 96},
        {0x7000, 0x4ffc, 70},        {0x9010, 0x9000, 100},
        {0xa000, 0xa010, 100},       {0xb003, 0xc005, 13},
    };
    for (const Copy &c : copies) {
        MemImage loud, quiet;
        fillImage(loud);
        fillImage(quiet);
        OpEmitter emLoud(loud, PersistMode::kLogPSf);
        OpEmitter emQuiet(quiet, PersistMode::kLogPSf);
        emQuiet.setMuted(true);
        emLoud.memcpy(c.dst, c.src, c.len);
        emQuiet.memcpy(c.dst, c.src, c.len);
        EXPECT_TRUE(drain(emQuiet).empty());
        for (Addr a = 0; a < 0xd000; a += 8)
            ASSERT_EQ(quiet.readInt(a, 8), loud.readInt(a, 8))
                << "copy to " << c.dst << " differs at " << a;
    }
}

namespace
{

/**
 * A transaction-shaped body: repeated and out-of-order reads, a
 * read-modify-write, a block written twice, and a muted non-overlapping
 * memcpy spanning several blocks.
 */
void
journalBody(OpEmitter &em)
{
    for (int rep = 0; rep < 2; ++rep) {
        uint64_t v = em.load(0x3000, 8);
        em.load(0x1008, 8);
        em.store(0x5000, v + rep, 8);
        em.store(0x4008, em.load(0x5000, 8) ^ 0xff, 8);
    }
    em.memcpy(0x8000, 0x6040, 192);
}

} // namespace

TEST(OpEmitter, JournalRecordsWhatShadowRecords)
{
    MemImage shadowImg, journalImg;
    fillImage(shadowImg);
    fillImage(journalImg);
    OpEmitter shadowEm(shadowImg, PersistMode::kLogPSf);
    OpEmitter journalEm(journalImg, PersistMode::kLogPSf);
    shadowEm.setMuted(true);
    journalEm.setMuted(true);

    shadowEm.beginShadow();
    journalBody(shadowEm);
    OpEmitter::ShadowResult shadow = shadowEm.endShadow();

    OpEmitter::ShadowResult journal;
    journalEm.beginJournal();
    journalBody(journalEm);
    journalEm.endJournal(journal);

    EXPECT_EQ(journal.touchedBlocks, shadow.touchedBlocks);
    EXPECT_EQ(journal.writtenBlocks, shadow.writtenBlocks);
    // The memcpy's source and destination blocks are recorded too.
    EXPECT_TRUE(std::binary_search(journal.touchedBlocks.begin(),
                                   journal.touchedBlocks.end(), 0x60c0));
    EXPECT_TRUE(std::binary_search(journal.writtenBlocks.begin(),
                                   journal.writtenBlocks.end(), 0x8080));
    EXPECT_TRUE(drain(journalEm).empty());
}

TEST(OpEmitter, JournalExchangeSwapsPreImagesInAndOut)
{
    MemImage pre, post, img;
    fillImage(pre);
    fillImage(post);
    fillImage(img);
    {
        OpEmitter em(post, PersistMode::kLogPSf);
        em.setMuted(true);
        journalBody(em);
    }
    OpEmitter em(img, PersistMode::kLogPSf);
    em.setMuted(true);
    OpEmitter::ShadowResult touched;
    em.beginJournal();
    journalBody(em);
    em.endJournal(touched);
    ASSERT_EQ(img.hash(), post.hash()); // the journal pass ran for real

    em.exchangeJournal();
    EXPECT_EQ(img.hash(), pre.hash());
    em.exchangeJournal();
    EXPECT_EQ(img.hash(), post.hash());
    for (Addr a = 0; a < 0xd000; a += 8)
        ASSERT_EQ(img.readInt(a, 8), post.readInt(a, 8)) << "at " << a;
}

TEST(OpEmitter, StoresCountsMutedAndEmittedWrites)
{
    MemImage img;
    OpEmitter em(img, PersistMode::kNone);
    em.load(0x1000, 8);
    EXPECT_EQ(em.stores(), 0u);
    em.store(0x1000, 1, 8);
    em.setMuted(true);
    em.store(0x1008, 1, 8);
    em.memcpy(0x2000, 0x1000, 64);
    em.memcpy(0x2000, 0x1000, 0);
    // The block fast path counts the eight stores the chunked path makes.
    EXPECT_EQ(em.stores(), 10u);
}

TEST(OpEmitterDeathTest, JournalNeedsMutedEmitterOutsideShadow)
{
    MemImage img;
    OpEmitter loud(img, PersistMode::kLogPSf);
    EXPECT_DEATH(loud.beginJournal(), "muted");

    OpEmitter quiet(img, PersistMode::kLogPSf);
    quiet.setMuted(true);
    quiet.beginShadow();
    EXPECT_DEATH(quiet.beginJournal(), "nested");

    OpEmitter fresh(img, PersistMode::kLogPSf);
    fresh.setMuted(true);
    EXPECT_DEATH(fresh.exchangeJournal(), "without a journal pass");
}
