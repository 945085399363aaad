/**
 * @file
 * Whole-simulator snapshot/restore: the byte-stream visitors and the
 * versioned on-disk container.
 *
 * Every stateful component implements the pair
 *
 *     void saveState(SnapshotWriter &w) const;
 *     void restoreState(SnapshotReader &r);
 *
 * with the hard contract that *snapshot-at-T -> restore -> run-to-end
 * is bit-identical to the uninterrupted run* (Stats CSV, TraceSummary,
 * MemImage::hash -- guarded by tests/test_snapshot.cc). The simulator
 * is deterministic and single-threaded per run, so a snapshot is just
 * the exact machine state between two cycles; no component may hide
 * timing-relevant state from its visitor.
 *
 * Serialization discipline:
 *   - Plain scalars and trivially-copyable structs go through putPod/
 *     getPod, which static_assert trivial copyability so a class that
 *     later grows an owning pointer fails to compile, not to restore.
 *   - Containers are written as a u64 count + elements. RingDeques are
 *     restored by clear() + push_back so head/size bookkeeping is
 *     rebuilt; raw ring indices are never persisted.
 *   - Pointers (Stats*, Tracer*, component references) are NEVER
 *     serialized. The restoring side rebuilds the object graph from the
 *     same RunConfig and then overwrites the value state.
 *   - Section tags (putTag/checkTag) bracket each component so an
 *     asymmetric save/restore pair fails loudly at the boundary where
 *     it diverged instead of silently misreading the tail.
 *
 * The SimSnapshot container adds a magic ("SPSNAP01"), a format version
 * (rejected on mismatch -- there is no cross-version migration), and
 * the producing run's describeRunConfig() string, which resume
 * validates so a snapshot can never be restored into a differently
 * configured machine.
 */

#ifndef SP_SIM_SNAPSHOT_HH
#define SP_SIM_SNAPSHOT_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/pool.hh"
#include "sim/types.hh"

namespace sp
{

/** Error thrown on malformed, truncated, or mismatched snapshots. */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Append-only byte-stream builder components write themselves into. */
class SnapshotWriter
{
  public:
    /**
     * Raw writers copy every byte of a value, padding included. Padding
     * holds whatever the last code to write the object left there, so
     * a type with padding would make snapshot bytes depend on how the
     * object was built. Name such bytes as zero fields instead. A
     * floating-point value has no padding but may have several
     * representations of one value; it is written as it is.
     */
    template <typename T>
    static constexpr bool
    determinedBytes()
    {
        return std::has_unique_object_representations_v<T> ||
            std::is_floating_point_v<T>;
    }

    void putBytes(const void *data, size_t n)
    {
        const uint8_t *p = static_cast<const uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + n);
    }

    template <typename T>
    void putPod(const T &value)
    {
        static_assert(std::is_trivially_copyable<T>::value,
                      "putPod requires a trivially copyable type");
        static_assert(determinedBytes<T>(),
                      "putPod requires a type without padding bytes");
        putBytes(&value, sizeof(T));
    }

    /** `n` zero bytes (a visitor's stand-in for padding). */
    void putZeros(size_t n) { buf_.insert(buf_.end(), n, 0); }

    void putString(const std::string &s)
    {
        putPod<uint64_t>(s.size());
        putBytes(s.data(), s.size());
    }

    template <typename T>
    void putPodVec(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable<T>::value,
                      "putPodVec requires trivially copyable elements");
        static_assert(determinedBytes<T>(),
                      "putPodVec requires elements without padding bytes");
        putPod<uint64_t>(v.size());
        if (!v.empty())
            putBytes(v.data(), v.size() * sizeof(T));
    }

    template <typename T>
    void putRing(const RingDeque<T> &r)
    {
        static_assert(std::is_trivially_copyable<T>::value,
                      "putRing requires trivially copyable elements");
        static_assert(determinedBytes<T>(),
                      "putRing requires elements without padding bytes");
        putPod<uint64_t>(r.size());
        for (size_t i = 0; i < r.size(); ++i)
            putPod(r[i]);
    }

    /** Component-boundary marker; checkTag() verifies it on restore. */
    void putTag(const char (&tag)[5]) { putBytes(tag, 4); }

    const std::vector<uint8_t> &bytes() const { return buf_; }
    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

/** Bounds-checked cursor over a snapshot payload. */
class SnapshotReader
{
  public:
    SnapshotReader(const uint8_t *data, size_t n)
        : p_(data), end_(data + n)
    {
    }

    explicit SnapshotReader(const std::vector<uint8_t> &buf)
        : SnapshotReader(buf.data(), buf.size())
    {
    }

    void getBytes(void *out, size_t n)
    {
        if (static_cast<size_t>(end_ - p_) < n)
            throw SnapshotError("snapshot truncated: need " +
                                std::to_string(n) + " bytes, have " +
                                std::to_string(end_ - p_));
        std::memcpy(out, p_, n);
        p_ += n;
    }

    template <typename T>
    void getPod(T &value)
    {
        static_assert(std::is_trivially_copyable<T>::value,
                      "getPod requires a trivially copyable type");
        getBytes(&value, sizeof(T));
    }

    template <typename T>
    T getPod()
    {
        T value;
        getPod(value);
        return value;
    }

    std::string getString()
    {
        uint64_t n = getPod<uint64_t>();
        std::string s(static_cast<size_t>(n), '\0');
        if (n)
            getBytes(&s[0], static_cast<size_t>(n));
        return s;
    }

    template <typename T>
    void getPodVec(std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable<T>::value,
                      "getPodVec requires trivially copyable elements");
        uint64_t n = getPod<uint64_t>();
        v.resize(static_cast<size_t>(n));
        if (n)
            getBytes(v.data(), static_cast<size_t>(n) * sizeof(T));
    }

    template <typename T>
    void getRing(RingDeque<T> &r)
    {
        uint64_t n = getPod<uint64_t>();
        r.clear();
        for (uint64_t i = 0; i < n; ++i) {
            T v;
            getPod(v);
            r.push_back(v);
        }
    }

    void checkTag(const char (&tag)[5])
    {
        char got[5] = {0, 0, 0, 0, 0};
        getBytes(got, 4);
        if (std::memcmp(got, tag, 4) != 0)
            throw SnapshotError(std::string("snapshot section mismatch: "
                                            "expected '") +
                                tag + "', found '" + got + "'");
    }

    bool exhausted() const { return p_ == end_; }
    size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  private:
    const uint8_t *p_;
    const uint8_t *end_;
};

/**
 * A whole-machine snapshot: format version, the producing run's
 * describeRunConfig() fingerprint, the simulated tick it was taken at,
 * and the opaque component payload.
 */
struct SimSnapshot
{
    static constexpr uint32_t kVersion = 1;

    uint32_t version = kVersion;
    std::string configDesc;
    Tick tick = 0;
    std::vector<uint8_t> payload;

    /** Full container (magic + header + payload) as one buffer. */
    std::vector<uint8_t> serialize() const;

    /** Parse a container; throws SnapshotError on bad magic/version. */
    static SimSnapshot deserialize(const uint8_t *data, size_t n);

    void writeFile(const std::string &path) const;
    static SimSnapshot readFile(const std::string &path);
};

} // namespace sp

#endif // SP_SIM_SNAPSHOT_HH
