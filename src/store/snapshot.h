// Versioned database snapshots.
//
// A snapshot is the full entry set of the KDC database as of one LSN, in a
// canonical (sorted-by-encoder) order, CRC-sealed. Snapshots bound recovery
// time (replay starts at the snapshot LSN, not LSN 0), bound WAL growth
// (compaction rewrites the log to the post-snapshot suffix), and are the
// wholesale-transfer fallback when a slave is too far behind for an
// incremental delta — the kprop "full dump" path.
//
// Entries are opaque bytes here, same as WAL payloads: each one is a
// kWalOpUpsert payload, so loading a snapshot is exactly replaying `count`
// upserts into an empty database.
//
// The same fact makes compaction a log fold: the snapshot at LSN n is the
// base snapshot with the WAL records after it merged in,
//   snapshot(n) = base ⊕ WAL(base.lsn, n],
// where the last record per entry key wins. FoldSnapshot computes it from
// the two byte images alone, never from the live database.
//
// Layout, big-endian:
//   u32 magic 'KSN1' | u64 lsn | u32 count | count * lp(entry) | u32 crc
// where the trailing CRC-32 covers everything before it.

#ifndef SRC_STORE_SNAPSHOT_H_
#define SRC_STORE_SNAPSHOT_H_

#include <cstdint>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/store/wal.h"

namespace kstore {

constexpr uint32_t kSnapshotMagic = 0x4b534e31;  // "KSN1"
// Decode-side plausibility bound on the entry count. Sized for the
// north-star population: a full dump of a multi-million-principal realm
// (the clustered logical database) must still round-trip, while a hostile
// length field is capped well before it can drive pathological allocation.
constexpr uint32_t kMaxSnapshotEntries = 1u << 22;

struct Snapshot {
  uint64_t lsn = 0;
  std::vector<kerb::Bytes> entries;  // canonical order, kWalOpUpsert payloads
};

kerb::Bytes EncodeSnapshot(const Snapshot& snapshot);

// Fail-closed: bad magic, truncation, implausible counts, and CRC damage
// are all kBadFormat.
kerb::Result<Snapshot> DecodeSnapshot(kerb::BytesView image);

// Orders two entries by the key they describe: negative, zero or positive
// as a's key sorts before, equal to or after b's. Snapshot entries and
// upsert and delete payloads all begin with their key, so one comparator
// orders all three. The codec that owns the payloads supplies it.
using EntryOrder = int (*)(kerb::BytesView a, kerb::BytesView b);

// base ⊕ records: the image of the snapshot at the last record's LSN, in
// one pass. Per key the last record wins: an upsert's payload becomes the
// entry, a delete drops it; other ops only advance the LSN. Runs of
// untouched base entries are copied verbatim into a buffer reserved up
// front. `base_image`'s entries must be sorted by `order` (every encoder
// here writes them so). The base's CRC trailer is not re-computed: the
// base is an image this process installed or DecodeSnapshot already
// checked, and a device never alters committed bytes. Its structure is
// checked: a malformed base, or records that do not continue its LSN one
// by one, are kBadFormat.
kerb::Result<kerb::Bytes> FoldSnapshot(kerb::BytesView base_image,
                                       const std::vector<WalRecord>& records, EntryOrder order);

}  // namespace kstore

#endif  // SRC_STORE_SNAPSHOT_H_
