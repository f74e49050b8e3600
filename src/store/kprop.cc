#include "src/store/kprop.h"

#include <cassert>

#include "src/crypto/modes.h"
#include "src/obs/kobs.h"

namespace kstore {

namespace {

// Appends the 8-byte DES CBC-MAC (zero IV) trailer over the body.
kerb::Bytes Seal(const kcrypto::DesKey& key, kerb::Bytes body) {
  const kcrypto::DesBlock mac = kcrypto::CbcMac(key, kcrypto::DesBlock{}, body);
  body.insert(body.end(), mac.begin(), mac.end());
  return body;
}

// Verifies the trailer and returns the sealed body. kIntegrity on mismatch.
kerb::Result<kerb::BytesView> Unseal(const kcrypto::DesKey& key, kerb::BytesView frame) {
  if (frame.size() < 8 + 5) {  // mac + (magic, type)
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "prop: frame too short");
  }
  const kerb::BytesView body = frame.subspan(0, frame.size() - 8);
  const kerb::BytesView trailer = frame.subspan(frame.size() - 8);
  const kcrypto::DesBlock mac = kcrypto::CbcMac(key, kcrypto::DesBlock{}, body);
  if (!kerb::ConstantTimeEqual(trailer, kerb::BytesView(mac.data(), mac.size()))) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "prop: bad mac");
  }
  return body;
}

}  // namespace

kerb::Bytes EncodeDeltaFrame(const kcrypto::DesKey& key, uint64_t from_lsn,
                             uint64_t to_lsn, const std::vector<WalRecord>& records) {
  assert(to_lsn - from_lsn == records.size() && "delta window must match records");
  kenc::Writer w;
  w.PutU32(kPropMagic);
  w.PutU8(kPropDelta);
  w.PutU64(from_lsn);
  w.PutU64(to_lsn);
  w.PutU32(static_cast<uint32_t>(records.size()));
  for (size_t i = 0; i < records.size(); ++i) {
    assert(records[i].lsn == from_lsn + 1 + i && "delta records must be consecutive");
    w.PutU8(records[i].op);
    w.PutLengthPrefixed(records[i].payload);
  }
  return Seal(key, w.Take());
}

kerb::Bytes EncodeWholesaleFrame(const kcrypto::DesKey& key, kerb::BytesView snapshot_image) {
  kenc::Writer w;
  w.PutU32(kPropMagic);
  w.PutU8(kPropWholesale);
  w.PutLengthPrefixed(snapshot_image);
  return Seal(key, w.Take());
}

kerb::Bytes EncodeAckFrame(const kcrypto::DesKey& key, uint64_t applied_lsn) {
  kenc::Writer w;
  w.PutU32(kPropMagic);
  w.PutU8(kPropAck);
  w.PutU64(applied_lsn);
  return Seal(key, w.Take());
}

kerb::Result<uint64_t> ParseAckFrame(const kcrypto::DesKey& key, kerb::BytesView frame) {
  auto body = Unseal(key, frame);
  if (!body.ok()) {
    return body.error();
  }
  kenc::Reader r(body.value());
  auto magic = r.GetU32();
  auto type = r.GetU8();
  auto lsn = r.GetU64();
  if (!magic.ok() || magic.value() != kPropMagic || !type.ok() ||
      type.value() != kPropAck || !lsn.ok() || !r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "prop: malformed ack");
  }
  return lsn.value();
}

kerb::Bytes PropagationSink::Ack() const { return EncodeAckFrame(key_, applied_); }

kerb::Result<kerb::Bytes> PropagationSink::Handle(const ksim::Message& msg) {
  auto body = Unseal(key_, msg.payload);
  if (!body.ok()) {
    if (body.code() == kerb::ErrorCode::kIntegrity) {
      kobs::EmitNow(kobs::kSrcProp, kobs::Ev::kPropReject,
                    static_cast<uint64_t>(kerb::ErrorCode::kIntegrity), 0);
    }
    return body.error();
  }
  kenc::Reader r(body.value());
  auto magic = r.GetU32();
  auto type = r.GetU8();
  if (!magic.ok() || magic.value() != kPropMagic || !type.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "prop: bad header");
  }
  switch (type.value()) {
    case kPropDelta:
      return HandleDelta(r);
    case kPropWholesale:
      return HandleWholesale(r);
    default:
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "prop: unknown frame type");
  }
}

kerb::Result<kerb::Bytes> PropagationSink::HandleDelta(kenc::Reader& r) {
  auto from = r.GetU64();
  auto to = r.GetU64();
  auto count = r.GetU32();
  if (!from.ok() || !to.ok() || !count.ok() || to.value() < from.value() ||
      count.value() > kMaxPropRecords ||
      to.value() - from.value() != count.value()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "prop: bad delta window");
  }
  // Parse the whole frame before touching the database: a delta applies
  // atomically or not at all.
  struct Pending {
    uint8_t op;
    kerb::Bytes payload;
  };
  std::vector<Pending> pending;
  pending.reserve(count.value());
  for (uint32_t i = 0; i < count.value(); ++i) {
    auto op = r.GetU8();
    if (!op.ok() || (op.value() != kWalOpUpsert && op.value() != kWalOpDelete &&
                     op.value() != kWalOpClusterMark)) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "prop: bad record op");
    }
    auto payload = r.GetLengthPrefixed();
    if (!payload.ok()) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "prop: truncated record");
    }
    pending.push_back(Pending{op.value(), std::move(payload).value()});
  }
  if (!r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "prop: trailing bytes");
  }

  if (to.value() <= applied_) {
    // Replay or retransmission of history already applied. Re-ack the
    // current position without touching state: duplicates are idempotent,
    // and a primary whose ack was lost in transit converges on retry.
    kobs::EmitNow(kobs::kSrcProp, kobs::Ev::kPropStale, to.value(), applied_);
    return Ack();
  }
  if (from.value() > applied_) {
    // A gap means someone removed or reordered an interior chunk of the
    // history. Applying it would splice the database; refuse and stay at
    // the consistent prefix.
    kobs::EmitNow(kobs::kSrcProp, kobs::Ev::kPropReject,
                  static_cast<uint64_t>(kerb::ErrorCode::kReplay), from.value());
    return kerb::MakeError(kerb::ErrorCode::kReplay, "prop: delta does not continue history");
  }

  // from <= applied_ < to: the frame authentically continues history — the
  // MAC covers the whole contiguous (from, to] window — but a delayed
  // earlier frame already landed its prefix (the primary's ack was lost or
  // outraced, so it re-sent from an older cursor). Apply only the unseen
  // suffix; re-running the prefix would double-apply mutations.
  const uint64_t skip = applied_ - from.value();
  for (size_t i = static_cast<size_t>(skip); i < pending.size(); ++i) {
    auto status = applier_(pending[i].op, pending[i].payload);
    if (!status.ok()) {
      return status.error();
    }
  }
  applied_ = to.value();
  kobs::EmitNow(kobs::kSrcProp, kobs::Ev::kPropApply, applied_, count.value() - skip);
  return Ack();
}

kerb::Result<kerb::Bytes> PropagationSink::HandleWholesale(kenc::Reader& r) {
  auto image = r.GetLengthPrefixed();
  if (!image.ok() || !r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "prop: bad wholesale framing");
  }
  auto snapshot = DecodeSnapshot(image.value());
  if (!snapshot.ok()) {
    return snapshot.error();
  }
  if (snapshot.value().lsn <= applied_) {
    // A stale snapshot must not roll the slave back — version protection
    // for the wholesale path.
    kobs::EmitNow(kobs::kSrcProp, kobs::Ev::kPropStale, snapshot.value().lsn, applied_);
    return Ack();
  }
  auto status = loader_(snapshot.value());
  if (!status.ok()) {
    return status.error();
  }
  applied_ = snapshot.value().lsn;
  kobs::EmitNow(kobs::kSrcProp, kobs::Ev::kPropWholesale, applied_,
                snapshot.value().entries.size());
  return Ack();
}

void Propagator::AddSlave(uint32_t slave_host, PropagationSink* sink) {
  net_->Bind(ksim::NetAddress{slave_host, options_.port},
             [sink](const ksim::Message& msg) { return sink->Handle(msg); });
  slaves_.push_back(SlaveState{slave_host, sink->applied_lsn()});
}

bool Propagator::AdvanceSlave(SlaveState& slave, uint64_t target, CycleReport& report) {
  const ksim::NetAddress src{primary_host_, options_.port};
  const ksim::NetAddress dst{slave.host, options_.port};
  while (slave.acked_lsn < target) {
    std::vector<WalRecord> delta;
    kerb::Bytes frame;
    uint64_t frame_to = 0;
    bool wholesale = false;
    if (store_->Delta(slave.acked_lsn, &delta)) {
      if (delta.size() > options_.chunk_records) {
        delta.resize(options_.chunk_records);
      }
      if (delta.empty()) {
        break;  // nothing shippable yet
      }
      frame_to = delta.back().lsn;
      frame = EncodeDeltaFrame(key_, slave.acked_lsn, frame_to, delta);
      report.records_shipped += delta.size();
    } else {
      // The slave predates the compaction horizon: only a full transfer
      // can catch it up.
      auto image = store_->Fold(order_);
      if (!image.ok()) {
        ++report.failures;
        return false;
      }
      frame_to = store_->last_lsn();
      frame = EncodeWholesaleFrame(key_, image.value());
      wholesale = true;
      ++report.wholesale_transfers;
      report.wholesale_bytes += frame.size();
    }
    ++report.frames_sent;
    report.bytes_sent += frame.size();
    kobs::EmitNow(kobs::kSrcProp, kobs::Ev::kPropShip, slave.host, frame.size());
    auto reply = net_->Call(src, dst, frame);
    if (!reply.ok()) {
      ++report.failures;
      return false;
    }
    auto acked = ParseAckFrame(key_, reply.value());
    if (!acked.ok() || acked.value() < frame_to) {
      // A garbled or regressive ack: do not assume anything landed.
      ++report.failures;
      return false;
    }
    slave.acked_lsn = acked.value();
    (void)wholesale;
  }
  return true;
}

Propagator::CycleReport Propagator::Propagate() {
  CycleReport report;
  const uint64_t target = store_->last_lsn();
  bool converged = true;
  for (SlaveState& slave : slaves_) {
    if (!AdvanceSlave(slave, target, report) || slave.acked_lsn < target) {
      converged = false;
    }
  }
  report.slaves_converged = converged;
  return report;
}

}  // namespace kstore
