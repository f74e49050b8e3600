#include "src/store/wal.h"

#include "src/crypto/crc32.h"
#include "src/obs/kobs.h"

namespace kstore {

kerb::Bytes EncodeWalFrame(const WalRecord& record) {
  kenc::Writer body;
  body.PutU64(record.lsn);
  body.PutU8(record.op);
  body.PutLengthPrefixed(record.payload);
  kerb::Bytes body_bytes = body.Take();

  kenc::Writer frame;
  frame.PutU32(static_cast<uint32_t>(body_bytes.size()));
  frame.PutU32(kcrypto::Crc32(body_bytes));
  frame.PutBytes(body_bytes);
  return frame.Take();
}

kerb::Result<WalRecord> ParseWalFrame(kenc::Reader& r) {
  auto body_len = r.GetU32();
  if (!body_len.ok()) {
    return body_len.error();
  }
  // Minimum body: lsn (8) + op (1) + payload length prefix (4).
  if (body_len.value() < 13 || body_len.value() > kMaxWalPayload + 13) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "wal: implausible body length");
  }
  auto crc = r.GetU32();
  if (!crc.ok()) {
    return crc.error();
  }
  auto body = r.GetBytes(body_len.value());
  if (!body.ok()) {
    return body.error();
  }
  if (kcrypto::Crc32(body.value()) != crc.value()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "wal: frame crc mismatch");
  }
  kenc::Reader br(body.value());
  WalRecord record;
  auto lsn = br.GetU64();
  auto op = br.GetU8();
  if (!lsn.ok() || !op.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "wal: truncated body");
  }
  auto payload = br.GetLengthPrefixed();
  if (!payload.ok() || !br.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "wal: bad payload framing");
  }
  if (op.value() != kWalOpUpsert && op.value() != kWalOpDelete &&
      op.value() != kWalOpClusterMark) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "wal: unknown op");
  }
  record.lsn = lsn.value();
  record.op = op.value();
  record.payload = std::move(payload).value();
  return record;
}

kerb::Result<WalScan> ScanWal(kerb::BytesView image) {
  WalScan scan;
  kenc::Reader r(image);
  while (!r.AtEnd()) {
    const size_t before = image.size() - r.remaining();
    auto record = ParseWalFrame(r);
    if (!record.ok()) {
      // Damaged tail: everything from the failed frame on is discarded.
      // This is the expected shape of a crash mid-append, so the scan
      // itself succeeds — callers decide whether a nonzero discard is
      // tolerable for the file at hand.
      scan.valid_bytes = before;
      scan.discarded_bytes = image.size() - before;
      return scan;
    }
    if (!scan.records.empty() &&
        record.value().lsn != scan.records.back().lsn + 1) {
      // An interior LSN gap cannot come from a torn tail — the frames on
      // both sides passed their CRCs. Splice or silent loss: refuse.
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "wal: lsn discontinuity");
    }
    scan.records.push_back(std::move(record).value());
  }
  scan.valid_bytes = image.size();
  return scan;
}

uint64_t Wal::Append(uint8_t op, kerb::BytesView payload) {
  WalRecord record;
  record.lsn = ++last_lsn_;
  record.op = op;
  record.payload = kerb::Bytes(payload.begin(), payload.end());
  const kerb::Bytes frame = EncodeWalFrame(record);
  dev_->Append(file_, frame);
  dev_->Flush(file_);
  kobs::EmitNow(kobs::kSrcStore, kobs::Ev::kStoreAppend, record.lsn, frame.size());
  return record.lsn;
}

void Wal::Rewrite(const std::vector<WalRecord>& records, uint64_t last_lsn) {
  kerb::Bytes image;
  for (const WalRecord& record : records) {
    kerb::Append(image, EncodeWalFrame(record));
  }
  dev_->WriteAtomic(file_, std::move(image));
  dev_->Flush(file_);
  last_lsn_ = last_lsn;
}

}  // namespace kstore
