/**
 * @file
 * Whole-simulator snapshot/restore: the two byte-stream archives and the
 * versioned on-disk container.
 *
 * Every stateful component implements one function,
 *
 *     template <class Ar> void serialize(Ar &ar);
 *
 * instantiated for SnapshotWriter (save) and SnapshotReader (restore),
 * in the cereal idiom: the same body names each field once, so the two
 * directions cannot drift apart. The hard contract is that
 * *snapshot-at-T -> restore -> run-to-end is bit-identical to the
 * uninterrupted run* (Stats CSV, TraceSummary, MemImage::hash -- guarded
 * by tests/test_snapshot.cc). The simulator is deterministic and
 * single-threaded per run, so a snapshot is just the exact machine state
 * between two cycles; no component may hide timing-relevant state from
 * its serialize().
 *
 * Serialization discipline:
 *   - Both archives share one verb set: pod, podVec, ring, seq, string,
 *     bytes, zeros, tag. Plain scalars and trivially-copyable structs go
 *     through pod, which static_asserts trivial copyability and
 *     padding-free bytes (SnapshotWriter::determinedBytes); since every
 *     serialize() is instantiated for the writer too, the check guards
 *     both directions.
 *   - Containers are written as a u64 count + elements. RingDeques are
 *     restored by clear() + push_back so head/size bookkeeping is
 *     rebuilt; raw ring indices are never persisted.
 *   - State the restoring side rebuilds rather than reads (indexes, hash
 *     sets, name mappings, derived schedules) lives in an
 *     `if constexpr (Ar::kLoading)` block inside the same function.
 *   - Pointers (Stats*, Tracer*, component references) are NEVER
 *     serialized. The restoring side rebuilds the object graph from the
 *     same RunConfig and then overwrites the value state.
 *   - Section tags bracket each component so a layout skew fails loudly
 *     at the boundary where it diverged instead of silently misreading
 *     the tail.
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

/** The saving archive: an append-only byte stream. */
class SnapshotWriter
{
  public:
    static constexpr bool kLoading = false;

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

    void bytes(const void *data, size_t n)
    {
        const uint8_t *p = static_cast<const uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + n);
    }

    template <typename T>
    void pod(const T &value)
    {
        static_assert(std::is_trivially_copyable<T>::value,
                      "pod requires a trivially copyable type");
        static_assert(determinedBytes<T>(),
                      "pod requires a type without padding bytes");
        bytes(&value, sizeof(T));
    }

    /** `n` zero bytes (a serializer's stand-in for padding). */
    void zeros(size_t n) { buf_.insert(buf_.end(), n, 0); }

    void string(const std::string &s)
    {
        pod<uint64_t>(s.size());
        bytes(s.data(), s.size());
    }

    template <typename T>
    void podVec(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable<T>::value,
                      "podVec requires trivially copyable elements");
        static_assert(determinedBytes<T>(),
                      "podVec requires elements without padding bytes");
        pod<uint64_t>(v.size());
        if (!v.empty())
            bytes(v.data(), v.size() * sizeof(T));
    }

    template <typename T>
    void ring(const RingDeque<T> &r)
    {
        pod<uint64_t>(r.size());
        for (size_t i = 0; i < r.size(); ++i)
            pod(r[i]);
    }

    /**
     * A counted sequence of non-POD elements: the count, then
     * `each(element)` for every element in order.
     */
    template <typename C, typename F>
    void seq(C &c, F each)
    {
        pod<uint64_t>(c.size());
        for (auto &element : c)
            each(element);
    }

    /** Component-boundary marker; the reader verifies it. */
    void tag(const char (&tag)[5]) { bytes(tag, 4); }

    const std::vector<uint8_t> &bytes() const { return buf_; }
    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

/** The restoring archive: a bounds-checked cursor over a payload. */
class SnapshotReader
{
  public:
    static constexpr bool kLoading = true;

    SnapshotReader(const uint8_t *data, size_t n)
        : p_(data), end_(data + n)
    {
    }

    explicit SnapshotReader(const std::vector<uint8_t> &buf)
        : SnapshotReader(buf.data(), buf.size())
    {
    }

    void bytes(void *out, size_t n)
    {
        need(n);
        std::memcpy(out, p_, n);
        p_ += n;
    }

    template <typename T>
    void pod(T &value)
    {
        static_assert(std::is_trivially_copyable<T>::value,
                      "pod requires a trivially copyable type");
        bytes(&value, sizeof(T));
    }

    /** Skip the writer's zero padding. */
    void zeros(size_t n)
    {
        need(n);
        p_ += n;
    }

    void string(std::string &s)
    {
        uint64_t n = count(1);
        s.assign(reinterpret_cast<const char *>(p_), static_cast<size_t>(n));
        p_ += n;
    }

    template <typename T>
    void podVec(std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable<T>::value,
                      "podVec requires trivially copyable elements");
        uint64_t n = count(sizeof(T));
        v.resize(static_cast<size_t>(n));
        if (n)
            bytes(v.data(), static_cast<size_t>(n) * sizeof(T));
    }

    template <typename T>
    void ring(RingDeque<T> &r)
    {
        uint64_t n = count(sizeof(T));
        r.clear();
        for (uint64_t i = 0; i < n; ++i) {
            T v{};
            pod(v);
            r.push_back(v);
        }
    }

    /** Clear `c`, then read the count and append that many elements,
     *  each filled by `each`. */
    template <typename C, typename F>
    void seq(C &c, F each)
    {
        uint64_t n = count(1);
        c.clear();
        for (uint64_t i = 0; i < n; ++i) {
            c.emplace_back();
            each(c.back());
        }
    }

    void tag(const char (&tag)[5])
    {
        char got[5] = {0, 0, 0, 0, 0};
        bytes(got, 4);
        if (std::memcmp(got, tag, 4) != 0)
            throw SnapshotError(std::string("snapshot section mismatch: "
                                            "expected '") +
                                tag + "', found '" + got + "'");
    }

    bool exhausted() const { return p_ == end_; }
    size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  private:
    /**
     * A u64 element count, checked against the bytes left: elements of
     * at least `minBytes` each must fit, so a corrupt count fails here
     * instead of sizing a container from garbage.
     */
    uint64_t count(size_t minBytes)
    {
        uint64_t n = 0;
        pod(n);
        if (n > remaining() / minBytes)
            throw SnapshotError("snapshot truncated: " + std::to_string(n) +
                                " elements promised, " +
                                std::to_string(remaining()) + " bytes left");
        return n;
    }

    void need(size_t n) const
    {
        if (remaining() < n)
            throw SnapshotError("snapshot truncated: need " +
                                std::to_string(n) + " bytes, have " +
                                std::to_string(remaining()));
    }

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
