#include "sim/snapshot.hh"

#include <cstdio>

namespace sp
{

namespace
{
constexpr char kMagic[8] = {'S', 'P', 'S', 'N', 'A', 'P', '0', '1'};
} // namespace

std::vector<uint8_t>
SimSnapshot::serialize() const
{
    SnapshotWriter w;
    w.bytes(kMagic, sizeof(kMagic));
    w.pod(version);
    w.string(configDesc);
    w.pod(tick);
    w.podVec(payload);
    return w.take();
}

SimSnapshot
SimSnapshot::deserialize(const uint8_t *data, size_t n)
{
    SnapshotReader r(data, n);
    char magic[8];
    r.bytes(magic, sizeof(magic));
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        throw SnapshotError("not a snapshot file (bad magic)");
    SimSnapshot snap;
    r.pod(snap.version);
    if (snap.version != kVersion)
        throw SnapshotError("unsupported snapshot version " +
                            std::to_string(snap.version) + " (expected " +
                            std::to_string(kVersion) + ")");
    r.string(snap.configDesc);
    r.pod(snap.tick);
    r.podVec(snap.payload);
    return snap;
}

void
SimSnapshot::writeFile(const std::string &path) const
{
    std::vector<uint8_t> buf = serialize();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        throw SnapshotError("cannot open '" + path + "' for writing");
    size_t written = std::fwrite(buf.data(), 1, buf.size(), f);
    int closeErr = std::fclose(f);
    if (written != buf.size() || closeErr != 0)
        throw SnapshotError("short write to '" + path + "'");
}

SimSnapshot
SimSnapshot::readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw SnapshotError("cannot open '" + path + "' for reading");
    std::vector<uint8_t> buf;
    uint8_t chunk[1u << 16];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        buf.insert(buf.end(), chunk, chunk + n);
    std::fclose(f);
    return deserialize(buf.data(), buf.size());
}

} // namespace sp
