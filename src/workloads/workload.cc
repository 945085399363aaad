#include "workloads/workload.hh"

#include "pmem/log_format.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace sp
{

Workload::Workload(const WorkloadParams &params)
    : params_(params), imageStorage_(std::make_unique<MemImage>()),
      alloc_(kHeapBase, kHeapBytes), em_(*imageStorage_, params.mode),
      tx_(em_), rng_(params.seed)
{
    em_.setGenerator([this] { return generateNext(); });
    em_.setEvictOnPersist(params.evictOnPersist);
    em_.setMutation(params.mutation);
    tx_.setChecksums(params.checksums);
}

void
Workload::setup()
{
    SP_ASSERT(!created_, "setup() called twice");
    em_.setMuted(true);
    create();
    created_ = true;
    for (uint64_t i = 0; i < params_.initOps; ++i)
        doOperation();
    if (params_.checksums)
        seedChecksums();
    em_.setMuted(false);
}

void
Workload::seedChecksums()
{
    // Format the image as checksummed: stamp the format word, the header
    // CRC over the current header state, and a valid CRC slot for every
    // resident covered line. This models mkfs-style formatting: it is
    // part of the initial durable state (setup precedes the measured
    // phase and the initial durable snapshot), not of the op stream.
    MemImage &img = em_.image();
    img.writeInt(kLogFormatAddr, kLogFormatChecksummed, 8);
    img.writeInt(kLogHdrCrcAddr,
                 logHeaderCrc(img.readInt(kLogBitAddr, 8),
                              img.readInt(kLogCountAddr, 8),
                              kLogFormatChecksummed),
                 8);
    for (uint64_t num : img.residentPageNumbers()) {
        Addr base = num * MemImage::kPageBytes;
        for (Addr line = base; line < base + MemImage::kPageBytes;
             line += kBlockBytes) {
            if (!crcCovered(line))
                continue;
            img.writeInt(crcSlotAddr(line),
                         kCrcSlotValid | crcLine(img, line), 8);
        }
    }
}

bool
Workload::generateNext()
{
    SP_ASSERT(created_, "generator invoked before setup()");
    if (opsDone_ >= params_.simOps)
        return false;
    doOperation();
    ++opsDone_;
    return true;
}

void
Workload::runFunctional(uint64_t ops)
{
    SP_ASSERT(created_, "runFunctional before setup()");
    em_.setMuted(true);
    for (uint64_t i = 0; i < ops; ++i)
        doOperation();
    em_.setMuted(false);
}

bool
Workload::replayStopRequested() const
{
    return stopAtGen_ != 0 && generation(em_.image()) >= stopAtGen_;
}

void
Workload::runFunctionalToGeneration(uint64_t gen)
{
    SP_ASSERT(created_, "runFunctionalToGeneration before setup()");
    em_.setMuted(true);
    stopAtGen_ = gen;
    uint64_t guard = 0;
    uint64_t limit = (gen + 16) * 16;
    while (generation(em_.image()) < gen) {
        doOperation();
        SP_ASSERT(++guard < limit,
                  "generation ", gen, " unreachable by replay");
    }
    stopAtGen_ = 0;
    em_.setMuted(false);
    SP_ASSERT(generation(em_.image()) == gen,
              "replay overshot the target generation");
}

uint64_t
Workload::generation(const MemImage &img)
{
    return img.readInt(kGenerationAddr, 8);
}

void
Workload::appWork(unsigned cycles)
{
    serialHandle_ = em_.aluChain(cycles, serialHandle_);
}

void
Workload::logGeneration()
{
    tx_.logRange(kGenerationAddr, 8);
}

void
Workload::bumpGeneration()
{
    if (em_.mode() < PersistMode::kLog)
        return;
    uint64_t gen = em_.load(kGenerationAddr, 8);
    em_.store(kGenerationAddr, gen + 1, 8);
    em_.clwb(kGenerationAddr);
}

template <class Ar>
void
Workload::serializeBase(Ar &ar)
{
    SP_ASSERT(stopAtGen_ == 0,
              "cannot snapshot or restore during functional replay");
    ar.tag("WKLD");
    imageStorage_->serialize(ar);
    alloc_.serialize(ar);
    em_.serialize(ar);
    tx_.serialize(ar);
    ar.pod(rng_);
    ar.pod(opsDone_);
    ar.pod(created_);
    ar.pod(serialHandle_);
}

template void Workload::serializeBase(SnapshotWriter &);
template void Workload::serializeBase(SnapshotReader &);

void
Workload::serialize(SnapshotWriter &ar)
{
    serializeBase(ar);
}

void
Workload::serialize(SnapshotReader &ar)
{
    serializeBase(ar);
}

} // namespace sp
