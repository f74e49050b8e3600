#include "src/store/snapshot.h"

#include <algorithm>

#include "src/crypto/crc32.h"
#include "src/encoding/io.h"

namespace kstore {

namespace {

constexpr size_t kHeaderBytes = 4 + 8 + 4;  // magic | lsn | count
constexpr size_t kCrcBytes = 4;

uint32_t LoadBe32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

// An image whose entries are views into the image bytes.
struct ImageView {
  uint64_t lsn = 0;
  std::vector<kerb::BytesView> entries;
};

// Structural checks and entry views over `image`; the CRC trailer is
// skipped, not checked (DecodeSnapshot checks it first).
kerb::Result<ImageView> ViewImage(kerb::BytesView image) {
  if (image.size() < kHeaderBytes + kCrcBytes) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "snapshot: too short");
  }
  const uint8_t* p = image.data();
  const uint8_t* const end = p + image.size() - kCrcBytes;
  if (LoadBe32(p) != kSnapshotMagic) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "snapshot: bad magic");
  }
  const uint32_t count = LoadBe32(p + 12);
  if (count > kMaxSnapshotEntries) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "snapshot: bad header");
  }
  ImageView view;
  view.lsn = (static_cast<uint64_t>(LoadBe32(p + 4)) << 32) | LoadBe32(p + 8);
  view.entries.reserve(std::min<size_t>(count, (image.size() - kHeaderBytes) / 4));
  p += kHeaderBytes;
  for (uint32_t i = 0; i < count; ++i) {
    const size_t len = end - p >= 4 ? LoadBe32(p) : 0;
    if (end - p < 4 || static_cast<size_t>(end - p) - 4 < len) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "snapshot: truncated entry");
    }
    view.entries.emplace_back(p + 4, len);
    p += 4 + len;
  }
  if (p != end) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "snapshot: trailing bytes");
  }
  return view;
}

// Appends the CRC-32 of everything before it as the image trailer.
void SealImage(kerb::Bytes& image) {
  const uint32_t crc = kcrypto::Crc32(image);
  image.push_back(static_cast<uint8_t>(crc >> 24));
  image.push_back(static_cast<uint8_t>(crc >> 16));
  image.push_back(static_cast<uint8_t>(crc >> 8));
  image.push_back(static_cast<uint8_t>(crc));
}

}  // namespace

kerb::Bytes EncodeSnapshot(const Snapshot& snapshot) {
  size_t size = kHeaderBytes + kCrcBytes;
  for (const kerb::Bytes& entry : snapshot.entries) {
    size += 4 + entry.size();
  }
  kerb::Bytes image;
  image.reserve(size);
  kenc::Writer w(&image);
  w.PutU32(kSnapshotMagic);
  w.PutU64(snapshot.lsn);
  w.PutU32(static_cast<uint32_t>(snapshot.entries.size()));
  for (const kerb::Bytes& entry : snapshot.entries) {
    w.PutLengthPrefixed(entry);
  }
  SealImage(image);
  return image;
}

kerb::Result<Snapshot> DecodeSnapshot(kerb::BytesView image) {
  if (image.size() < kCrcBytes ||
      kcrypto::Crc32(image.first(image.size() - kCrcBytes)) !=
          LoadBe32(image.data() + image.size() - kCrcBytes)) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "snapshot: crc mismatch");
  }
  auto view = ViewImage(image);
  if (!view.ok()) {
    return view.error();
  }
  Snapshot snapshot;
  snapshot.lsn = view.value().lsn;
  snapshot.entries.reserve(view.value().entries.size());
  for (const kerb::BytesView entry : view.value().entries) {
    snapshot.entries.emplace_back(entry.begin(), entry.end());
  }
  return snapshot;
}

kerb::Result<kerb::Bytes> FoldSnapshot(kerb::BytesView base_image,
                                       const std::vector<WalRecord>& records, EntryOrder order) {
  auto base = ViewImage(base_image);
  if (!base.ok()) {
    return base.error();
  }
  const std::vector<kerb::BytesView>& entries = base.value().entries;
  uint64_t lsn = base.value().lsn;
  std::vector<const WalRecord*> changes;
  changes.reserve(records.size());
  for (const WalRecord& record : records) {
    if (record.lsn != lsn + 1) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat,
                             "snapshot: fold records do not continue the base");
    }
    lsn = record.lsn;
    if (record.op == kWalOpUpsert || record.op == kWalOpDelete) {
      changes.push_back(&record);
    }
  }
  // Key order; stable, so each key's records stay in LSN order and the
  // last of a run is the one that wins.
  std::stable_sort(changes.begin(), changes.end(),
                   [order](const WalRecord* a, const WalRecord* b) {
                     return order(a->payload, b->payload) < 0;
                   });

  // One pass into a buffer sized for the worst case (nothing dropped):
  // runs of untouched base entries are copied verbatim, length prefixes
  // included, and each winning upsert is appended in key order. The entry
  // count is known only at the end and is patched into the header.
  size_t bound = base_image.size();
  for (const WalRecord* change : changes) {
    bound += 4 + change->payload.size();
  }
  kerb::Bytes image;
  image.reserve(bound);
  kenc::Writer w(&image);
  w.PutU32(kSnapshotMagic);
  w.PutU64(lsn);
  w.PutU32(0);
  uint32_t count = 0;
  size_t next = 0;  // first base entry not yet copied or dropped
  auto copy_run = [&](size_t end) {
    if (end == next) {
      return;
    }
    const uint8_t* from = entries[next].data() - 4;
    const uint8_t* to = entries[end - 1].data() + entries[end - 1].size();
    w.PutBytes(kerb::BytesView(from, to));
    count += static_cast<uint32_t>(end - next);
    next = end;
  };
  for (size_t c = 0; c < changes.size(); ++c) {
    const WalRecord& change = *changes[c];
    if (c + 1 < changes.size() && order(change.payload, changes[c + 1]->payload) == 0) {
      continue;  // a later record for the same key wins
    }
    const auto at = std::lower_bound(
        entries.begin() + static_cast<std::ptrdiff_t>(next), entries.end(), change.payload,
        [order](kerb::BytesView entry, const kerb::Bytes& key) { return order(entry, key) < 0; });
    copy_run(static_cast<size_t>(at - entries.begin()));
    if (at != entries.end() && order(*at, change.payload) == 0) {
      ++next;  // replaced or deleted
    }
    if (change.op == kWalOpUpsert) {
      w.PutLengthPrefixed(change.payload);
      ++count;
    }
  }
  copy_run(entries.size());
  for (int i = 0; i < 4; ++i) {
    image[12 + i] = static_cast<uint8_t>(count >> (24 - 8 * i));
  }
  SealImage(image);
  return image;
}

}  // namespace kstore
