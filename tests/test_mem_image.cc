/**
 * @file
 * Unit tests: sparse memory images.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "mem/mem_image.hh"

using namespace sp;

TEST(MemImage, UnwrittenReadsZero)
{
    MemImage img;
    EXPECT_EQ(img.readInt(0x1234, 8), 0u);
    EXPECT_EQ(img.pageCount(), 0u);
}

TEST(MemImage, WriteReadRoundTrip)
{
    MemImage img;
    img.writeInt(0x1000, 0xdeadbeefcafef00dULL, 8);
    EXPECT_EQ(img.readInt(0x1000, 8), 0xdeadbeefcafef00dULL);
}

TEST(MemImage, PartialSizes)
{
    MemImage img;
    img.writeInt(0x2000, 0x1122334455667788ULL, 8);
    EXPECT_EQ(img.readInt(0x2000, 1), 0x88u);
    EXPECT_EQ(img.readInt(0x2000, 2), 0x7788u);
    EXPECT_EQ(img.readInt(0x2000, 4), 0x55667788u);
}

TEST(MemImage, CrossPageAccess)
{
    MemImage img;
    Addr addr = MemImage::kPageBytes - 4;
    img.writeInt(addr, 0xaabbccdd99887766ULL, 8);
    EXPECT_EQ(img.readInt(addr, 8), 0xaabbccdd99887766ULL);
    EXPECT_EQ(img.pageCount(), 2u);
}

TEST(MemImage, BlockRoundTrip)
{
    MemImage img;
    uint8_t in[kBlockBytes], out[kBlockBytes];
    for (unsigned i = 0; i < kBlockBytes; ++i)
        in[i] = static_cast<uint8_t>(i * 7);
    img.writeBlock(0x4000, in);
    img.readBlock(0x4000, out);
    EXPECT_EQ(std::memcmp(in, out, kBlockBytes), 0);
}

TEST(MemImage, CopyIsDeep)
{
    MemImage a;
    a.writeInt(0x100, 42, 8);
    MemImage b = a;
    b.writeInt(0x100, 99, 8);
    EXPECT_EQ(a.readInt(0x100, 8), 42u);
    EXPECT_EQ(b.readInt(0x100, 8), 99u);
}

TEST(MemImage, CopyAssignReplacesContents)
{
    MemImage a, b;
    a.writeInt(0x100, 1, 8);
    b.writeInt(0x200, 2, 8);
    b = a;
    EXPECT_EQ(b.readInt(0x100, 8), 1u);
    EXPECT_EQ(b.readInt(0x200, 8), 0u);
}

TEST(MemImage, SelfAssignIsNoop)
{
    MemImage a;
    a.writeInt(0x300, 7, 8);
    MemImage &ref = a;
    a = ref;
    EXPECT_EQ(a.readInt(0x300, 8), 7u);
}

TEST(MemImage, ClearDropsEverything)
{
    MemImage a;
    a.writeInt(0x100, 1, 8);
    a.clear();
    EXPECT_EQ(a.readInt(0x100, 8), 0u);
    EXPECT_EQ(a.pageCount(), 0u);
}

TEST(MemImage, DistinctPagesIndependent)
{
    MemImage img;
    img.writeInt(0x0, 1, 8);
    img.writeInt(0x10000, 2, 8);
    EXPECT_EQ(img.readInt(0x0, 8), 1u);
    EXPECT_EQ(img.readInt(0x10000, 8), 2u);
    EXPECT_EQ(img.pageCount(), 2u);
}

TEST(MemImage, BulkWriteRead)
{
    MemImage img;
    std::vector<uint8_t> data(10000);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i);
    img.write(0x7ff0, data.data(), static_cast<unsigned>(data.size()));
    std::vector<uint8_t> back(10000);
    img.read(0x7ff0, back.data(), static_cast<unsigned>(back.size()));
    EXPECT_EQ(data, back);
}

// hash() must be a pure function of image *contents*: page-table
// iteration order (which varies with insertion order and rehash
// history) must never leak into it.
TEST(MemImage, HashIsInsertionOrderIndependent)
{
    MemImage forward, backward;
    for (int i = 0; i < 64; ++i)
        forward.writeInt(0x10000 + i * MemImage::kPageBytes, i + 1, 8);
    for (int i = 63; i >= 0; --i)
        backward.writeInt(0x10000 + i * MemImage::kPageBytes, i + 1, 8);
    EXPECT_EQ(forward.hash(), backward.hash());

    // All-zero pages hash like absent ones.
    MemImage zeros = forward;
    zeros.writeInt(0x900000, 0, 8);
    EXPECT_EQ(zeros.hash(), forward.hash());
}

// Golden pin: the determinism suites compare hashes across schedules
// within one process, which would not notice the function itself
// silently changing (e.g. an "optimization" that hashes pages in table
// order). This constant was produced by the shipped implementation; a
// mismatch means recorded baselines are invalidated.
TEST(MemImage, HashMatchesGoldenConstant)
{
    MemImage img;
    img.writeInt(0x1000, 0x1122334455667788ULL, 8);
    img.writeInt(0x2000, 0xdeadbeefULL, 4);
    img.writeInt(0x7fff, 0xabULL, 1); // page-crossing neighborhood
    EXPECT_EQ(img.hash(), UINT64_C(0xce823710007404c2));
}

// sameContents() is the exact counterpart of comparing hash()es: same
// zero-page and poison conventions, but no collisions.
TEST(MemImage, SameContentsTreatsAbsentPagesAsZero)
{
    MemImage a, b;
    a.writeInt(0x1000, 7, 8);
    b.writeInt(0x1000, 7, 8);
    EXPECT_TRUE(sameContents(a, b));

    // A page resident in only one image, written with zeros.
    b.writeInt(0x40000, 0, 8);
    EXPECT_EQ(a.pageCount() + 1, b.pageCount());
    EXPECT_TRUE(sameContents(a, b));
    EXPECT_TRUE(sameContents(b, a));

    // An empty image equals one holding only zeroed pages.
    MemImage zeros;
    zeros.writeInt(0x3000, 0, 8);
    EXPECT_TRUE(sameContents(MemImage(), zeros));
    EXPECT_TRUE(sameContents(zeros, MemImage()));
}

TEST(MemImage, SameContentsSeesOneByteEitherWay)
{
    MemImage a;
    for (int i = 0; i < 16; ++i)
        a.writeInt(0x10000 + i * MemImage::kPageBytes, i + 1, 8);
    MemImage b = a;
    ASSERT_TRUE(sameContents(a, b));

    // One byte differs inside a page both images hold.
    b.writeInt(0x10000 + 5 * MemImage::kPageBytes + 4095, 1, 1);
    EXPECT_FALSE(sameContents(a, b));
    EXPECT_FALSE(sameContents(b, a));

    // One non-zero byte on a page only one image holds.
    MemImage c = a;
    c.writeInt(0x900000, 0x80, 1);
    EXPECT_FALSE(sameContents(a, c));
    EXPECT_FALSE(sameContents(c, a));
}

TEST(MemImage, SameContentsIgnoresPoisonLikeHash)
{
    MemImage a;
    a.writeInt(0x2000, 0xdeadbeef, 8);
    MemImage b = a;
    b.markPoison(0x2000);
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_TRUE(sameContents(a, b));
    EXPECT_TRUE(sameContents(b, a));
}
