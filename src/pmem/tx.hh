/**
 * @file
 * Write-ahead-logging transactions (paper Section 3.1).
 *
 * The four strictly ordered steps, each ending in a persist barrier:
 *   1. write the undo log and make it durable;
 *   2. set logged_bit and make it durable (transaction has begun);
 *   3. apply the updates and make them durable (the caller emits the
 *      data stores and clwbs between seal() and commitUpdates());
 *   4. clear logged_bit and make it durable (transaction complete).
 *
 * Each transaction therefore issues 4 pcommits and 8 sfences in the
 * Log+P+Sf variant. In lesser PersistModes the same call sequence emits
 * only the corresponding subset (no fences, or no PMEM ops, or no log).
 *
 * Undo-log layout at kLogBase:
 *   header block: +0 logged_bit (8B), +8 entry count (8B)
 *   entries, packed sequentially from kLogBase+64: {addr(8), len(8),
 *   data[len] (8B-aligned)}.
 *
 * With checksums armed (setChecksums), the image switches to the
 * checksummed format of log_format.hh: the header gains a CRC word, each
 * entry gains a descriptor+data CRC word, and step 3 additionally
 * persists refreshed CRC slots for every covered line the transaction
 * logged or tracked -- so recovery can detect media corruption instead
 * of trusting the image. With checksums off (the default) the emitted op
 * stream is bit-identical to the legacy protocol.
 */

#ifndef SP_PMEM_TX_HH
#define SP_PMEM_TX_HH

#include <utility>
#include <vector>

#include "pmem/layout.hh"
#include "pmem/op_emitter.hh"

namespace sp
{


/** One software write-ahead-logging transaction context (reusable). */
class Tx
{
  public:
    explicit Tx(OpEmitter &em);

    /** Start a new transaction: reset the entry cursor. */
    void begin();

    /**
     * Arm the checksummed image format (per-entry CRCs, header CRC,
     * data-line CRC slots). Must be set before the first transaction and
     * never changed: the two formats are not mixable within one image.
     */
    void setChecksums(bool on) { checks_ = on; }

    bool checksums() const { return checks_; }

    /**
     * Undo-log `len` bytes at `addr` (copies the *current* contents into
     * the log and clwbs the written log blocks).
     */
    void logRange(Addr addr, unsigned len);

    /**
     * Checksums only: register a freshly allocated range whose contents
     * need no undo cover (pre-state is garbage) but whose CRC slots must
     * still be logged (so a rollback reverts them) and refreshed at
     * commit (so recovery can verify the new record). No-op with
     * checksums off, keeping legacy op streams untouched.
     */
    void trackRange(Addr addr, unsigned len);

    /**
     * Step 1 + 2: persist the log (count + barrier), then set logged_bit
     * and persist it. After this call the caller applies its updates.
     */
    void seal();

    /** Step 3: barrier making the caller's updates durable. */
    void commitUpdates();

    /** Step 4: clear logged_bit and persist it. */
    void end();

    /** Entries logged in the current transaction. */
    unsigned entries() const { return count_; }

    /**
     * Snapshot serializer: entry count + log cursor. Snapshots are taken
     * between workload operations, so the tracked-range scratch is
     * empty (asserted).
     */
    template <class Ar> void serialize(Ar &ar);

  private:
    OpEmitter &em_;
    unsigned count_ = 0;
    Addr cursor_ = kLogBase + kBlockBytes;
    bool checks_ = false;
    /** Covered ranges whose CRC slots step 3 must refresh. */
    std::vector<std::pair<Addr, unsigned>> tracked_;
    // Checksum scratch, reused across transactions so the steady state
    // allocates nothing: logged pre-image bytes, commit-time lines and
    // their CRC slot blocks.
    std::vector<uint8_t> crcBuf_;
    std::vector<Addr> lines_;
    std::vector<Addr> slotBlocks_;

    bool active() const { return em_.mode() >= PersistMode::kLog; }

    void appendEntry(Addr addr, unsigned len);
    void logSlotRange(Addr addr, unsigned len);
    void storeHeaderCrc(uint64_t bit);
};

} // namespace sp

#endif // SP_PMEM_TX_HH
