#include "src/krb4/kdcstore.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <utility>

#include "src/crypto/str2key.h"
#include "src/encoding/io.h"

namespace krb4 {

namespace {

// Fixed seed for the simulated device's fault stream. Deterministic and
// deliberately NOT drawn from the replica PRNG: the device must not perturb
// the key-generation streams that capture tests pin byte-for-byte.
constexpr uint64_t kDeviceSeed = 0x6b70726f70644256ull;

// Splits the next length-prefixed field off the front of `in`; empty (and
// `in` exhausted) when the rest does not hold one.
kerb::BytesView NextField(kerb::BytesView& in) {
  if (in.size() < 4) {
    in = {};
    return {};
  }
  const size_t len = (static_cast<size_t>(in[0]) << 24) | (static_cast<size_t>(in[1]) << 16) |
                     (static_cast<size_t>(in[2]) << 8) | static_cast<size_t>(in[3]);
  if (in.size() - 4 < len) {
    in = {};
    return {};
  }
  const kerb::BytesView field = in.subspan(4, len);
  in = in.subspan(4 + len);
  return field;
}

}  // namespace

kerb::Bytes EncodePrincipalEntry(const Principal& principal, const PrincipalEntry& entry) {
  kenc::Writer w;
  principal.EncodeTo(w);
  w.PutU8(static_cast<uint8_t>(entry.kind));
  w.PutU64(static_cast<uint64_t>(entry.max_life));
  w.PutU64(static_cast<uint64_t>(entry.max_renew));
  w.PutU8(static_cast<uint8_t>(entry.keys.size()));
  for (const KeyVersion& kv : entry.keys) {
    w.PutU32(kv.kvno);
    w.PutBytes(kerb::BytesView(kv.key.bytes().data(), kv.key.bytes().size()));
    w.PutU64(static_cast<uint64_t>(kv.not_after));
  }
  return w.Take();
}

kerb::Bytes EncodePrincipalUpsert(const Principal& principal, const kcrypto::DesKey& key,
                                  PrincipalKind kind) {
  PrincipalEntry entry;
  entry.kind = kind;
  entry.keys.push_back(KeyVersion{1, key, 0});
  return EncodePrincipalEntry(principal, entry);
}

kerb::Result<std::pair<Principal, PrincipalEntry>> DecodePrincipalEntry(kenc::Reader& r) {
  auto principal = Principal::DecodeFrom(r);
  if (!principal.ok()) {
    return principal.error();
  }
  auto kind = r.GetU8();
  auto max_life = r.GetU64();
  auto max_renew = r.GetU64();
  auto ring_count = r.GetU8();
  if (!kind.ok() || kind.value() > static_cast<uint8_t>(PrincipalKind::kService) ||
      !max_life.ok() || !max_renew.ok() || !ring_count.ok() || ring_count.value() == 0 ||
      ring_count.value() > kMaxRingEntries) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "kdcstore: malformed entry header");
  }
  PrincipalEntry entry;
  entry.kind = static_cast<PrincipalKind>(kind.value());
  entry.max_life = static_cast<ksim::Duration>(max_life.value());
  entry.max_renew = static_cast<ksim::Duration>(max_renew.value());
  entry.keys.reserve(ring_count.value());
  uint32_t prev_kvno = 0;
  for (size_t i = 0; i < ring_count.value(); ++i) {
    auto kvno = r.GetU32();
    auto key_bytes = r.GetBytes(8);
    auto not_after = r.GetU64();
    // kvnos must be strictly descending (current version first) — the
    // structural well-formedness check that keeps a corrupted record from
    // smuggling in a duplicate or reordered ring.
    if (!kvno.ok() || !key_bytes.ok() || !not_after.ok() || kvno.value() == 0 ||
        (i > 0 && kvno.value() >= prev_kvno)) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "kdcstore: malformed ring entry");
    }
    prev_kvno = kvno.value();
    kcrypto::DesBlock block;
    std::copy(key_bytes.value().begin(), key_bytes.value().end(), block.begin());
    entry.keys.push_back(KeyVersion{kvno.value(), kcrypto::DesKey(block),
                                    static_cast<ksim::Time>(not_after.value())});
  }
  return std::make_pair(std::move(principal).value(), std::move(entry));
}

kerb::Bytes EncodePrincipalDelete(const Principal& principal) {
  kenc::Writer w;
  principal.EncodeTo(w);
  return w.Take();
}

kerb::Status ApplyStoreRecord(KdcDatabase& db, uint8_t op, kerb::BytesView payload) {
  kenc::Reader r(payload);
  if (op == kstore::kWalOpDelete) {
    auto principal = Principal::DecodeFrom(r);
    if (!principal.ok()) {
      return principal.error();
    }
    if (!r.AtEnd()) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "kdcstore: trailing delete bytes");
    }
    db.Remove(principal.value());  // removing an absent principal is idempotent
    return kerb::Status::Ok();
  }
  if (op != kstore::kWalOpUpsert) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "kdcstore: unknown record op");
  }
  auto decoded = DecodePrincipalEntry(r);
  if (!decoded.ok()) {
    return decoded.error();
  }
  if (!r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "kdcstore: trailing upsert bytes");
  }
  db.ApplyEntry(decoded.value().first, decoded.value().second);
  return kerb::Status::Ok();
}

int ComparePrincipalEntries(kerb::BytesView a, kerb::BytesView b) {
  // Principal::EncodeTo writes name, instance, realm, each length-prefixed;
  // std::string orders bytes as unsigned, so memcmp, then length. A field
  // that does not parse reads as empty: the journal holds only
  // well-formed records, and the order stays total regardless.
  for (int field = 0; field < 3; ++field) {
    const kerb::BytesView fa = NextField(a);
    const kerb::BytesView fb = NextField(b);
    const size_t common = std::min(fa.size(), fb.size());
    const int c = common == 0 ? 0 : std::memcmp(fa.data(), fb.data(), common);
    if (c != 0) {
      return c;
    }
    if (fa.size() != fb.size()) {
      return fa.size() < fb.size() ? -1 : 1;
    }
  }
  return 0;
}

kstore::Snapshot SnapshotDatabase(const KdcDatabase& db, uint64_t lsn) {
  kstore::Snapshot snapshot;
  snapshot.lsn = lsn;
  for (const Principal& principal : db.Principals()) {
    PrincipalEntry entry;
    if (!db.store().LookupEntry(principal, &entry)) {
      continue;  // racing removal; the entry set is re-snapshotted next cycle
    }
    snapshot.entries.push_back(EncodePrincipalEntry(principal, entry));
  }
  return snapshot;
}

kerb::Status LoadSnapshotEntries(KdcDatabase& db, const kstore::Snapshot& snapshot) {
  // Decode everything before mutating anything: a malformed snapshot must
  // leave the database untouched.
  std::vector<std::pair<Principal, PrincipalEntry>> entries;
  entries.reserve(snapshot.entries.size());
  for (const kerb::Bytes& payload : snapshot.entries) {
    kenc::Reader r(payload);
    auto decoded = DecodePrincipalEntry(r);
    if (!decoded.ok() || !r.AtEnd()) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "kdcstore: malformed snapshot entry");
    }
    entries.push_back(std::move(decoded).value());
  }
  std::set<Principal> incoming;
  for (const auto& entry : entries) {
    incoming.insert(entry.first);
  }
  for (const Principal& existing : db.Principals()) {
    if (incoming.find(existing) == incoming.end()) {
      db.Remove(existing);
    }
  }
  for (const auto& entry : entries) {
    db.ApplyEntry(entry.first, entry.second);
  }
  return kerb::Status::Ok();
}

ReplicaPropagation::ReplicaPropagation(ksim::Network* net, const std::string& realm,
                                       KdcDatabase* primary, uint32_t primary_host,
                                       kstore::KStoreOptions store_options,
                                       kstore::Propagator::Options prop_options)
    : primary_(primary), key_(kcrypto::StringToKey("kprop/" + realm, realm)) {
  const kstore::Snapshot base = SnapshotDatabase(*primary_, 0);
  store_ = std::make_unique<kstore::KStore>(kcrypto::Prng(kDeviceSeed), store_options, base);
  primary_->AttachJournal(store_.get());
  propagator_ = std::make_unique<kstore::Propagator>(net, store_.get(), key_, primary_host,
                                                     prop_options, &ComparePrincipalEntries);
}

ReplicaPropagation::~ReplicaPropagation() {
  if (primary_ != nullptr) {
    primary_->AttachJournal(nullptr);
  }
}

void ReplicaPropagation::AddSlave(uint32_t slave_host, KdcDatabase* slave_db) {
  auto sink = std::make_unique<kstore::PropagationSink>(
      key_, store_->snapshot_lsn(),
      [slave_db](uint8_t op, kerb::BytesView payload) {
        return ApplyStoreRecord(*slave_db, op, payload);
      },
      [slave_db](const kstore::Snapshot& snapshot) {
        return LoadSnapshotEntries(*slave_db, snapshot);
      });
  propagator_->AddSlave(slave_host, sink.get());
  sinks_.push_back(std::move(sink));
}

kstore::Propagator::CycleReport ReplicaPropagation::Propagate() {
  last_report_ = propagator_->Propagate();
  return last_report_;
}

kerb::Status ReplicaPropagation::Compact() {
  auto image = store_->Fold(&ComparePrincipalEntries);
  if (!image.ok()) {
    return image.error();
  }
  store_->Compact(std::move(image).value());
  return kerb::Status::Ok();
}

}  // namespace krb4
