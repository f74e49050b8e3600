// KStore — the durable KDC database engine.
//
// Composes the simulated device, the write-ahead log, and versioned
// snapshots into the durability contract the rest of the stack programs
// against:
//
//   * Append(op, payload) journals one mutation (WAL append + flush) and
//     returns its LSN. The caller applies the mutation to its in-memory
//     store only AFTER the append returns — write-ahead in the literal
//     sense.
//   * Fold(order) computes the snapshot image at last_lsn() as the
//     installed base with the journaled suffix folded in (FoldSnapshot);
//     Compact(image) atomically installs such an image as the new base and
//     truncates the WAL to the records after it.
//   * Delta(from_lsn) yields the records a replica needs to advance from
//     `from_lsn` to the present — the incremental-propagation feed. It
//     fails (returns false) when compaction has discarded that history,
//     which is the signal to fall back to a wholesale snapshot transfer.
//   * Crash() + Recover() model power loss: recovery reads the durable
//     snapshot, replays the surviving WAL suffix, and reports the LSN the
//     database is now at. A torn final record is tolerated (it was never
//     acknowledged); interior damage is not.
//
// KStore holds no protocol types — payloads and snapshot entries are
// opaque bytes. The krb4 glue (src/krb4/kdcstore.h) owns the codec.
//
// Thread safety: Append is mutex-guarded so concurrent KDC admin mutations
// journal atomically; everything else is meant for the single-threaded
// orchestration phases (construction, propagation, recovery), matching how
// the replica sets drive it.

#ifndef SRC_STORE_KSTORE_H_
#define SRC_STORE_KSTORE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/crypto/prng.h"
#include "src/store/blockdev.h"
#include "src/store/snapshot.h"
#include "src/store/wal.h"

namespace kstore {

struct KStoreOptions {
  DevFaultPlan dev_faults;
  std::string snapshot_file = "kdb.snapshot";
  std::string wal_file = "kdb.wal";
};

// What Recover() reconstructed from the durable state.
struct RecoveredState {
  Snapshot base;                   // the durable snapshot
  std::vector<WalRecord> records;  // WAL suffix to replay on top, in order
  uint64_t last_lsn = 0;           // LSN after replay
  uint64_t discarded_bytes = 0;    // torn WAL tail dropped during the scan
};

class KStore {
 public:
  // Writes and flushes `base` as the initial durable snapshot (and an
  // empty WAL positioned after it).
  KStore(kcrypto::Prng dev_prng, const KStoreOptions& options, const Snapshot& base);

  // Journals one mutation durably and returns its LSN. Thread-safe.
  uint64_t Append(uint8_t op, kerb::BytesView payload);

  uint64_t last_lsn() const { return wal_.last_lsn(); }
  uint64_t snapshot_lsn() const { return snapshot_lsn_; }

  // Copies the journaled records with LSN > from_lsn into `out` (cleared
  // first). False when from_lsn predates the snapshot — that history is
  // compacted away and only a wholesale transfer can help.
  bool Delta(uint64_t from_lsn, std::vector<WalRecord>* out) const;

  // The snapshot image at last_lsn(): the installed base — read in place
  // from the device's durable snapshot file, so it is the base Compact()
  // or Recover() last left, never a stale copy — with every journaled
  // record since folded in. `order` is the payload codec's key order.
  kerb::Result<kerb::Bytes> Fold(EntryOrder order) const;

  // Installs `image` (an encoded snapshot reflecting every record up to
  // last_lsn(), at that LSN) as the new durable base and truncates the
  // WAL. The image moves into the device without a copy. Emits
  // kStoreSnapshot.
  void Compact(kerb::Bytes image);

  // Power loss on the underlying device.
  void Crash();

  // Rebuilds state from the durable files: decode the snapshot, scan the
  // WAL, drop records the snapshot already covers, tolerate a torn tail.
  // Re-synchronises the engine's own counters to the recovered LSN, so
  // appends may resume afterwards. Fails closed on interior damage.
  kerb::Result<RecoveredState> Recover();

  SimDevice& device() { return dev_; }
  const SimDevice& device() const { return dev_; }

 private:
  SimDevice dev_;
  KStoreOptions options_;
  Wal wal_;
  uint64_t snapshot_lsn_ = 0;

  std::mutex mu_;
  // In-memory mirror of the WAL suffix since the snapshot — the Delta()
  // feed, avoiding a device scan per propagation cycle.
  std::vector<WalRecord> live_;
};

}  // namespace kstore

#endif  // SRC_STORE_KSTORE_H_
