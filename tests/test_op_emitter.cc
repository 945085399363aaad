/**
 * @file
 * Unit tests: OpEmitter -- functional execution + emission, PersistMode
 * filtering, dependence handles, muting, and the shadow pass.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "pmem/op_emitter.hh"

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
    EXPECT_EQ(result.readBlocks, std::vector<Addr>({0x1000}));
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
    EXPECT_EQ(result.readBlocks,
              std::vector<Addr>({0x1000, 0x3000, 0x5000}));
    EXPECT_EQ(result.writtenBlocks, std::vector<Addr>({0x4000, 0x5000}));

    // The next pass starts empty, even for the block read last.
    em.beginShadow();
    em.load(0x5000, 8);
    result = em.endShadow();
    EXPECT_EQ(result.readBlocks, std::vector<Addr>({0x5000}));
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
    auto fill = [](MemImage &img) {
        for (Addr a = 0; a < 0xd000; a += 8)
            img.writeInt(a, a * 0x9e3779b97f4a7c15ull, 8);
    };
    for (const Copy &c : copies) {
        MemImage loud, quiet;
        fill(loud);
        fill(quiet);
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
