#include "mem/mem_image.hh"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sp
{

MemImage::MemImage(const MemImage &other)
{
    resetTranslationCache();
    *this = other;
}

MemImage &
MemImage::operator=(const MemImage &other)
{
    if (this == &other)
        return *this;
    pages_.clear();
    pages_.reserve(other.pages_.size());
    for (const auto &[num, page] : other.pages_)
        pages_.emplace(num, std::make_unique<Page>(*page));
    poison_ = other.poison_;
    resetTranslationCache();
    return *this;
}

MemImage::MemImage(MemImage &&other) noexcept
    : pages_(std::move(other.pages_)), poison_(std::move(other.poison_))
{
    // The moved-from map no longer owns the pages the source's cache
    // points at; both caches restart cold.
    resetTranslationCache();
    other.resetTranslationCache();
}

MemImage &
MemImage::operator=(MemImage &&other) noexcept
{
    if (this == &other)
        return *this;
    pages_ = std::move(other.pages_);
    poison_ = std::move(other.poison_);
    resetTranslationCache();
    other.resetTranslationCache();
    return *this;
}

MemImage::Page *
MemImage::findPage(Addr addr)
{
    uint64_t num = addr / kPageBytes;
    unsigned slot = num % kTransSlots;
    if (transNum_[slot] == num) {
        ++transHits_;
        return transPage_[slot];
    }
    ++transMisses_;
    auto it = pages_.find(num);
    if (it == pages_.end())
        return nullptr;
    transNum_[slot] = num;
    transPage_[slot] = it->second.get();
    return transPage_[slot];
}

const MemImage::Page *
MemImage::findPage(Addr addr) const
{
    uint64_t num = addr / kPageBytes;
    unsigned slot = num % kTransSlots;
    if (transNum_[slot] == num) {
        ++transHits_;
        return transPage_[slot];
    }
    ++transMisses_;
    auto it = pages_.find(num);
    if (it == pages_.end())
        return nullptr;
    transNum_[slot] = num;
    transPage_[slot] = it->second.get();
    return transPage_[slot];
}

MemImage::Page &
MemImage::ensurePage(Addr addr)
{
    uint64_t num = addr / kPageBytes;
    unsigned slot = num % kTransSlots;
    if (transNum_[slot] == num) {
        ++transHits_;
        return *transPage_[slot];
    }
    ++transMisses_;
    auto &owned = pages_[num];
    if (!owned) {
        owned = std::make_unique<Page>();
        owned->fill(0);
    }
    transNum_[slot] = num;
    transPage_[slot] = owned.get();
    return *owned;
}

void
MemImage::readSlow(Addr addr, void *out, unsigned size) const
{
    auto *dst = static_cast<uint8_t *>(out);
    while (size > 0) {
        unsigned off = static_cast<unsigned>(addr % kPageBytes);
        unsigned chunk = std::min(size, kPageBytes - off);
        const Page *page = findPage(addr);
        if (page)
            std::memcpy(dst, page->data() + off, chunk);
        else
            std::memset(dst, 0, chunk);
        addr += chunk;
        dst += chunk;
        size -= chunk;
    }
}

void
MemImage::writeSlow(Addr addr, const void *in, unsigned size)
{
    auto *src = static_cast<const uint8_t *>(in);
    while (size > 0) {
        unsigned off = static_cast<unsigned>(addr % kPageBytes);
        unsigned chunk = std::min(size, kPageBytes - off);
        Page &page = ensurePage(addr);
        std::memcpy(page.data() + off, src, chunk);
        addr += chunk;
        src += chunk;
        size -= chunk;
    }
}

uint64_t
MemImage::hash() const
{
    std::vector<uint64_t> nums;
    nums.reserve(pages_.size());
    for (const auto &[num, page] : pages_) {
        bool allZero = true;
        for (uint8_t b : *page) {
            if (b != 0) {
                allZero = false;
                break;
            }
        }
        if (!allZero)
            nums.push_back(num);
    }
    std::sort(nums.begin(), nums.end());

    constexpr uint64_t kOffset = 0xcbf29ce484222325ull;
    constexpr uint64_t kPrime = 0x100000001b3ull;
    uint64_t h = kOffset;
    auto mix = [&h](uint64_t v) {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= kPrime;
        }
    };
    for (uint64_t num : nums) {
        mix(num);
        const Page &page = *pages_.at(num);
        for (uint8_t b : page) {
            h ^= b;
            h *= kPrime;
        }
    }
    return h;
}

std::vector<uint64_t>
MemImage::residentPageNumbers() const
{
    std::vector<uint64_t> nums;
    nums.reserve(pages_.size());
    for (const auto &[num, page] : pages_)
        nums.push_back(num);
    std::sort(nums.begin(), nums.end());
    return nums;
}

std::vector<Addr>
MemImage::poisonedLines() const
{
    std::vector<Addr> lines(poison_.begin(), poison_.end());
    std::sort(lines.begin(), lines.end());
    return lines;
}

void
MemImage::readBlock(Addr blockAddr, uint8_t *out) const
{
    SP_ASSERT(blockOffset(blockAddr) == 0, "readBlock needs aligned addr");
    read(blockAddr, out, kBlockBytes);
}

void
MemImage::writeBlock(Addr blockAddr, const uint8_t *in)
{
    SP_ASSERT(blockOffset(blockAddr) == 0, "writeBlock needs aligned addr");
    write(blockAddr, in, kBlockBytes);
}

uint32_t
crc32(const void *data, size_t size, uint32_t seed)
{
    static const auto table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    uint32_t crc = ~seed;
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < size; ++i)
        crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
    return ~crc;
}

template <class Ar>
void
MemImage::serialize(Ar &ar)
{
    ar.tag("MIMG");
    std::vector<uint64_t> nums;
    if constexpr (Ar::kLoading)
        clear();
    else
        nums = residentPageNumbers();
    uint64_t pageCount = nums.size();
    ar.pod(pageCount);
    for (uint64_t i = 0; i < pageCount; ++i) {
        uint64_t num = Ar::kLoading ? 0 : nums[i];
        ar.pod(num);
        // Whole pages in bulk; a loaded page is filled before it joins
        // the map, so a corrupt duplicate number cannot leave it dangling.
        if constexpr (Ar::kLoading) {
            auto page = std::make_unique<Page>();
            ar.bytes(page->data(), kPageBytes);
            pages_.emplace(num, std::move(page));
        } else {
            ar.bytes(pages_.find(num)->second->data(), kPageBytes);
        }
    }
    std::vector<Addr> poisoned;
    if constexpr (!Ar::kLoading)
        poisoned = poisonedLines();
    ar.podVec(poisoned);
    if constexpr (Ar::kLoading) {
        for (Addr line : poisoned)
            poison_.insert(line);
    }
}

template void MemImage::serialize(SnapshotWriter &);
template void MemImage::serialize(SnapshotReader &);

std::vector<Addr>
diffLines(const MemImage &a, const MemImage &b)
{
    std::vector<uint64_t> nums = a.residentPageNumbers();
    std::vector<uint64_t> bnums = b.residentPageNumbers();
    std::vector<uint64_t> all;
    all.reserve(nums.size() + bnums.size());
    std::set_union(nums.begin(), nums.end(), bnums.begin(), bnums.end(),
                   std::back_inserter(all));

    std::vector<Addr> lines;
    std::array<uint8_t, MemImage::kPageBytes> pa, pb;
    for (uint64_t num : all) {
        Addr base = num * MemImage::kPageBytes;
        a.read(base, pa.data(), MemImage::kPageBytes);
        b.read(base, pb.data(), MemImage::kPageBytes);
        if (std::memcmp(pa.data(), pb.data(), MemImage::kPageBytes) == 0)
            continue;
        for (unsigned off = 0; off < MemImage::kPageBytes;
             off += kBlockBytes) {
            if (std::memcmp(pa.data() + off, pb.data() + off,
                            kBlockBytes) != 0)
                lines.push_back(base + off);
        }
    }
    return lines;
}

bool
sameContents(const MemImage &a, const MemImage &b)
{
    static const MemImage::Page kZero{};
    auto isZero = [](const MemImage::Page &page) {
        return std::memcmp(page.data(), kZero.data(), kZero.size()) == 0;
    };
    for (const auto &[num, page] : a.pages_) {
        auto it = b.pages_.find(num);
        bool same = it == b.pages_.end()
            ? isZero(*page)
            : std::memcmp(page->data(), it->second->data(),
                          MemImage::kPageBytes) == 0;
        if (!same)
            return false;
    }
    for (const auto &[num, page] : b.pages_) {
        if (!a.pages_.count(num) && !isZero(*page))
            return false;
    }
    return true;
}

} // namespace sp
