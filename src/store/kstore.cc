#include "src/store/kstore.h"

#include <cassert>

#include "src/obs/kobs.h"

namespace kstore {

KStore::KStore(kcrypto::Prng dev_prng, const KStoreOptions& options, const Snapshot& base)
    : dev_(dev_prng, options.dev_faults),
      options_(options),
      wal_(&dev_, options.wal_file, base.lsn),
      snapshot_lsn_(base.lsn) {
  kerb::Bytes image = EncodeSnapshot(base);
  const size_t size = image.size();
  dev_.WriteAtomic(options_.snapshot_file, std::move(image));
  dev_.Flush(options_.snapshot_file);
  kobs::EmitNow(kobs::kSrcStore, kobs::Ev::kStoreSnapshot, base.lsn, size);
}

uint64_t KStore::Append(uint8_t op, kerb::BytesView payload) {
  std::lock_guard lock(mu_);
  const uint64_t lsn = wal_.Append(op, payload);
  WalRecord record;
  record.lsn = lsn;
  record.op = op;
  record.payload = kerb::Bytes(payload.begin(), payload.end());
  live_.push_back(std::move(record));
  return lsn;
}

bool KStore::Delta(uint64_t from_lsn, std::vector<WalRecord>* out) const {
  out->clear();
  if (from_lsn < snapshot_lsn_) {
    return false;  // compacted away
  }
  for (const WalRecord& record : live_) {
    if (record.lsn > from_lsn) {
      out->push_back(record);
    }
  }
  return true;
}

kerb::Result<kerb::Bytes> KStore::Fold(EntryOrder order) const {
  return FoldSnapshot(dev_.DurableView(options_.snapshot_file), live_, order);
}

void KStore::Compact(kerb::Bytes image) {
  std::lock_guard lock(mu_);
  const uint64_t lsn = wal_.last_lsn();
  assert([&] {
    auto decoded = DecodeSnapshot(image);
    return decoded.ok() && decoded.value().lsn == lsn;
  }() && "compaction snapshot must be current");
  const size_t size = image.size();
  dev_.WriteAtomic(options_.snapshot_file, std::move(image));
  dev_.Flush(options_.snapshot_file);
  // Snapshot durable first; only then truncate the log. A crash between
  // the two leaves a snapshot plus a WAL whose prefix it already covers —
  // Recover() filters those records out.
  wal_.Rewrite({}, lsn);
  snapshot_lsn_ = lsn;
  live_.clear();
  kobs::EmitNow(kobs::kSrcStore, kobs::Ev::kStoreSnapshot, lsn, size);
}

void KStore::Crash() { dev_.Crash(); }

kerb::Result<RecoveredState> KStore::Recover() {
  std::lock_guard lock(mu_);
  auto base = DecodeSnapshot(dev_.ReadAll(options_.snapshot_file));
  if (!base.ok()) {
    return base.error();
  }
  auto scan = ScanWal(dev_.ReadAll(options_.wal_file));
  if (!scan.ok()) {
    return scan.error();
  }
  RecoveredState state;
  state.base = std::move(base).value();
  state.discarded_bytes = scan.value().discarded_bytes;
  // Drop records the snapshot already covers (a crash between snapshot
  // install and WAL truncation leaves such a prefix) and require the
  // remainder to continue exactly at the snapshot LSN.
  for (WalRecord& record : scan.value().records) {
    if (record.lsn <= state.base.lsn) {
      continue;
    }
    const uint64_t expect =
        state.records.empty() ? state.base.lsn + 1 : state.records.back().lsn + 1;
    if (record.lsn != expect) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat,
                             "recover: wal does not continue from snapshot");
    }
    state.records.push_back(std::move(record));
  }
  state.last_lsn = state.records.empty() ? state.base.lsn : state.records.back().lsn;

  // Re-home the engine at the recovered position: future appends continue
  // from last_lsn, and the delta feed matches the durable truth. Rewrite
  // the WAL to the surviving records so the torn tail is gone from disk.
  wal_.Rewrite(state.records, state.last_lsn);
  snapshot_lsn_ = state.base.lsn;
  live_ = state.records;

  kobs::EmitNow(kobs::kSrcStore, kobs::Ev::kStoreRecover, state.last_lsn,
                state.records.size());
  return state;
}

}  // namespace kstore
