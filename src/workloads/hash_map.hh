/**
 * @file
 * HM: open-addressing hash map with linear probing and write-ahead-logged
 * updates (Table 1).
 *
 * Per the paper: a hash function maps the key to a table index; if the
 * entry is occupied "the next consecutive entry is checked, and so on".
 * Deletion tombstones the entry. When the table gets crowded it is resized
 * to twice the capacity and every record is rehashed; during copying each
 * insertion is followed by clwb and a pcommit persists the completion.
 *
 * Entry layout (64B): state(+0,8: 0 empty / 1 full / 2 tombstone)
 * key(+8,8) value(+16,8).
 * Metadata: table(+0) capacity(+8) count(+16) tombstones(+24).
 */

#ifndef SP_WORKLOADS_HASH_MAP_HH
#define SP_WORKLOADS_HASH_MAP_HH

#include "workloads/workload.hh"

namespace sp
{

/** Persistent hash map benchmark. */
class HashMapWorkload : public Workload
{
  public:
    explicit HashMapWorkload(const WorkloadParams &params,
                             uint64_t initialCapacity = 1024,
                             uint64_t keyRange = 65536);

    const char *name() const override { return "HM"; }

    bool checkImage(const MemImage &img, std::string *why) const override;
    std::vector<std::pair<uint64_t, uint64_t>>
    contents(const MemImage &img) const override;

    /** Table resizes performed (diagnostics / tests). */
    uint64_t resizes() const { return resizes_; }

    void serialize(SnapshotWriter &ar) override;
    void serialize(SnapshotReader &ar) override;

  protected:
    void create() override;
    void doOperation() override;

  private:
    static constexpr Addr kMeta = kWorkloadMetaBase;
    static constexpr uint64_t kStateEmpty = 0;
    static constexpr uint64_t kStateFull = 1;
    static constexpr uint64_t kStateTomb = 2;

    uint64_t initialCapacity_;
    uint64_t keyRange_;
    uint64_t resizes_ = 0;

    static uint64_t hashKey(uint64_t key);
    static Addr slotAddr(Addr table, uint64_t idx);

    void insert(uint64_t key);
    void removeAt(Addr slot, OpEmitter::Handle dep);
    void resize();
};

} // namespace sp

#endif // SP_WORKLOADS_HASH_MAP_HH
