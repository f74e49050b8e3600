#include "src/krb5/enclayer.h"

#include <algorithm>
#include <cassert>

#include "src/crypto/modes.h"
#include "src/encoding/io.h"
#include "src/obs/kobs.h"

namespace krb5 {

namespace {

// Every seal: writes the confounder/checksum-type prefix, lets `append_body`
// add the `body_size` TLV bytes, then checksums (over the zeroed checksum
// field), pads, and encrypts — all in `out`, which is cleared first and
// sized once.
template <typename AppendBody>
void SealBodyInto(const kcrypto::DesKey& key, const kcrypto::DesBlock& iv,
                  const EncLayerConfig& config, kcrypto::Prng& prng, size_t body_size,
                  kerb::Bytes& out, AppendBody&& append_body) {
  const size_t checksum_len = kcrypto::ChecksumSize(config.checksum);
  out.reserve(8 + 1 + checksum_len + body_size + 8);
  kenc::Writer w(&out);  // clears `out`, keeps its capacity
  if (config.use_confounder) {
    uint8_t confounder[8];
    prng.Fill(confounder, 8);
    w.PutBytes(kerb::BytesView(confounder, 8));
  }
  w.PutU8(static_cast<uint8_t>(config.checksum));
  const size_t checksum_offset = w.size();
  for (size_t i = 0; i < checksum_len; ++i) {
    w.PutU8(0);
  }
  append_body(w);
  uint8_t checksum[16];
  kcrypto::ComputeChecksumInto(config.checksum, out, key, checksum);
  std::copy_n(checksum, checksum_len, out.begin() + checksum_offset);
  kcrypto::Pkcs5PadInPlace(out);
  kcrypto::EncryptCbcInPlace(key, iv, out.data(), out.size());
  kobs::EmitNow(kobs::kSrcSeal5, kobs::Ev::kSeal, out.size(),
                static_cast<uint64_t>(config.checksum));
}

}  // namespace

kerb::Bytes SealTlvWithIv(const kcrypto::DesKey& key, const kcrypto::DesBlock& iv,
                          const kenc::TlvMessage& msg, const EncLayerConfig& config,
                          kcrypto::Prng& prng) {
  kerb::Bytes out;
  SealBodyInto(key, iv, config, prng, msg.EncodedSize(), out,
               [&msg](kenc::Writer& w) { msg.AppendTo(w); });
  return out;
}

void SealTlvInto(const kcrypto::DesKey& key, const kenc::TlvMessage& msg,
                 const EncLayerConfig& config, kcrypto::Prng& prng, kerb::Bytes& out) {
  SealBodyInto(key, kcrypto::kZeroIv, config, prng, msg.EncodedSize(), out,
               [&msg](kenc::Writer& w) { msg.AppendTo(w); });
}

void SealEncodedInto(const kcrypto::DesKey& key, kerb::BytesView encoded_msg,
                     const EncLayerConfig& config, kcrypto::Prng& prng, kerb::Bytes& out) {
  SealBodyInto(key, kcrypto::kZeroIv, config, prng, encoded_msg.size(), out,
               [encoded_msg](kenc::Writer& w) { w.PutBytes(encoded_msg); });
}

namespace {

kerb::Result<kenc::TlvMessage> UnsealTlvWithIvImpl(const kcrypto::DesKey& key,
                                                   const kcrypto::DesBlock& iv,
                                                   uint16_t expected_type,
                                                   kerb::BytesView sealed,
                                                   const EncLayerConfig& config) {
  if (sealed.empty() || sealed.size() % 8 != 0) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "sealed data not block-aligned");
  }
  // One buffer: decrypt, check the padding, zero the checksum field and
  // verify, all in place; the TLV decode then reads a view of it.
  kerb::Bytes plain(sealed.begin(), sealed.end());
  kcrypto::DecryptCbcInPlace(key, iv, plain.data(), plain.size());
  auto unpadded = kcrypto::Pkcs5UnpaddedLength(plain);
  if (!unpadded.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "padding invalid (wrong key/IV?)");
  }
  const size_t end = unpadded.value();
  const size_t type_offset = config.use_confounder ? 8u : 0u;
  if (end < type_offset) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "confounder missing");
  }
  if (end == type_offset || plain[type_offset] != static_cast<uint8_t>(config.checksum)) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "checksum type mismatch");
  }
  const size_t checksum_offset = type_offset + 1;
  const size_t checksum_len = kcrypto::ChecksumSize(config.checksum);
  if (end - checksum_offset < checksum_len) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "checksum missing");
  }
  uint8_t checksum[16];
  assert(checksum_len <= sizeof(checksum));
  std::copy_n(plain.begin() + checksum_offset, checksum_len, checksum);
  std::fill_n(plain.begin() + checksum_offset, checksum_len, 0);
  if (!kcrypto::VerifyChecksum(config.checksum, kerb::BytesView(plain.data(), end),
                               kerb::BytesView(checksum, checksum_len), key)) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "checksum mismatch");
  }
  const size_t body = checksum_offset + checksum_len;
  return kenc::TlvMessage::DecodeExpecting(expected_type,
                                           kerb::BytesView(plain.data() + body, end - body));
}

}  // namespace

kerb::Result<kenc::TlvMessage> UnsealTlvWithIv(const kcrypto::DesKey& key,
                                               const kcrypto::DesBlock& iv,
                                               uint16_t expected_type, kerb::BytesView sealed,
                                               const EncLayerConfig& config) {
  if (!kobs::Enabled()) {
    return UnsealTlvWithIvImpl(key, iv, expected_type, sealed, config);
  }
  auto plain = UnsealTlvWithIvImpl(key, iv, expected_type, sealed, config);
  kobs::EmitNow(kobs::kSrcSeal5, plain.ok() ? kobs::Ev::kUnsealOk : kobs::Ev::kUnsealFail,
                sealed.size(), static_cast<uint64_t>(config.checksum));
  return plain;
}

kcrypto::DesBlock NextChainedIv(const kcrypto::DesKey& key, const kcrypto::DesBlock& iv) {
  return kcrypto::U64ToBlock(key.EncryptBlock(kcrypto::BlockToU64(iv) + 1));
}

kerb::Bytes SealTlv(const kcrypto::DesKey& key, const kenc::TlvMessage& msg,
                    const EncLayerConfig& config, kcrypto::Prng& prng) {
  return SealTlvWithIv(key, kcrypto::kZeroIv, msg, config, prng);
}

kerb::Result<kenc::TlvMessage> UnsealTlv(const kcrypto::DesKey& key, uint16_t expected_type,
                                         kerb::BytesView sealed, const EncLayerConfig& config) {
  return UnsealTlvWithIv(key, kcrypto::kZeroIv, expected_type, sealed, config);
}

kerb::Bytes Draft2PrivSeal(const kcrypto::DesKey& key, const Draft2Priv& msg) {
  kenc::Writer w;
  w.PutBytes(msg.data);  // DATA first, no length — the flaw
  w.PutU64(static_cast<uint64_t>(msg.timestamp));
  w.PutU8(msg.direction);
  w.PutU32(msg.host_address);
  kerb::Bytes sealed = w.Take();
  kcrypto::Pkcs5PadInPlace(sealed);
  kcrypto::EncryptCbcInPlace(key, kcrypto::kZeroIv, sealed.data(), sealed.size());
  return sealed;
}

kerb::Result<Draft2Priv> Draft2PrivUnseal(const kcrypto::DesKey& key, kerb::BytesView sealed) {
  if (sealed.empty() || sealed.size() % 8 != 0) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "sealed data not block-aligned");
  }
  kerb::Bytes padded(sealed.begin(), sealed.end());
  kcrypto::DecryptCbcInPlace(key, kcrypto::kZeroIv, padded.data(), padded.size());
  auto plain = kcrypto::Pkcs5Unpad(padded);
  if (!plain.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "padding invalid");
  }
  constexpr size_t kTrailerLen = 8 + 1 + 4;
  if (plain.value().size() < kTrailerLen) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "too short for trailer");
  }
  size_t data_len = plain.value().size() - kTrailerLen;
  Draft2Priv msg;
  msg.data = kerb::Bytes(plain.value().begin(), plain.value().begin() + data_len);
  kenc::Reader r(kerb::BytesView(plain.value().data() + data_len, kTrailerLen));
  msg.timestamp = static_cast<ksim::Time>(r.GetU64().value());
  msg.direction = r.GetU8().value();
  msg.host_address = r.GetU32().value();
  return msg;
}

}  // namespace krb5
