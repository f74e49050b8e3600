// Tagged message encoding for the Version 5 Draft 3 model.
//
// The paper's recommendation (b): "Use a standard message encoding, such as
// ASN.1, which includes identification of the message type within the
// encrypted data." This module is a compact DER-flavoured tag-length-value
// encoding providing exactly the two properties the paper derives from
// ASN.1:
//   1. every message carries its type, so "a ticket should never be
//      interpretable as an authenticator, or vice versa";
//   2. every message carries its length, so "it is no longer possible for
//      an attacker to truncate a message and present the shortened form as
//      a valid encrypted message".
//
// Messages are: [msg_type u16][field_count u16] followed by fields, each
// [tag u16][len u32][value]. Unknown tags are preserved; duplicate tags are
// rejected at decode time (ambiguity is how cut-and-paste attacks start).
// Fields may arrive in any tag order; encoding always emits them ascending.
//
// In memory a TlvMessage is flat: one byte buffer plus a small index of
// (tag, offset, len) entries kept sorted by tag. Decode copies its input
// into the buffer once and indexes the values where they lie; setters
// append the new value to the buffer (or overwrite it in place when the
// length is unchanged) and point the index at it. Getters read straight
// from the buffer, and GetView() hands out the value bytes without a copy.

#ifndef SRC_ENCODING_TLV_H_
#define SRC_ENCODING_TLV_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"

namespace kenc {

class Writer;

class TlvMessage {
 public:
  TlvMessage() = default;
  explicit TlvMessage(uint16_t type) : type_(type) {}

  uint16_t type() const { return type_; }

  // Field setters (overwrite on duplicate tag).
  void SetU32(uint16_t tag, uint32_t value);
  void SetU64(uint16_t tag, uint64_t value);
  void SetString(uint16_t tag, std::string_view value);
  void SetBytes(uint16_t tag, kerb::BytesView value);

  bool Has(uint16_t tag) const { return Find(tag) != nullptr; }
  void Remove(uint16_t tag);
  size_t field_count() const { return fields_.size(); }

  // Field getters; kBadFormat if missing or mis-sized.
  kerb::Result<uint32_t> GetU32(uint16_t tag) const;
  kerb::Result<uint64_t> GetU64(uint16_t tag) const;
  kerb::Result<std::string> GetString(uint16_t tag) const;
  kerb::Result<kerb::Bytes> GetBytes(uint16_t tag) const;

  // The value bytes of `tag` without a copy; nullopt when absent. The view
  // points into this message and lasts until the next setter call on it.
  std::optional<kerb::BytesView> GetView(uint16_t tag) const;

  // Optional-field convenience: nullopt when absent, kBadFormat when present
  // but mis-sized — a malformed optional field must not read as "absent".
  kerb::Result<std::optional<uint32_t>> GetOptionalU32(uint16_t tag) const;
  std::optional<kerb::Bytes> GetOptionalBytes(uint16_t tag) const;

  kerb::Bytes Encode() const;
  // Length of Encode()'s output, without encoding.
  size_t EncodedSize() const;
  // Appends the encoding to an in-progress Writer / reusable buffer — the
  // allocation-free variants of Encode() used by the KDC serving path.
  void AppendTo(Writer& w) const;
  void EncodeInto(kerb::Bytes& out) const;
  static kerb::Result<TlvMessage> Decode(kerb::BytesView data);

  // Decode that additionally requires the message type to match — the
  // paper's "identification of the message type within the encrypted data".
  static kerb::Result<TlvMessage> DecodeExpecting(uint16_t expected_type, kerb::BytesView data);

  // Same type and the same (tag, value) set; buffer layout is not compared.
  bool operator==(const TlvMessage& other) const;

 private:
  struct Field {
    uint16_t tag;
    uint32_t len;
    size_t offset;  // of the value in buf_
  };

  size_t LowerBound(uint16_t tag) const;  // index of the first field with tag >= `tag`
  const Field* Find(uint16_t tag) const;
  kerb::BytesView ValueOf(const Field& f) const { return {buf_.data() + f.offset, f.len}; }
  // Points `tag` at `len` writable bytes of buf_ and returns them.
  uint8_t* Place(uint16_t tag, size_t len);

  uint16_t type_ = 0;
  kerb::Bytes buf_;
  std::vector<Field> fields_;  // ascending by tag, no duplicates
};

// Streams a TLV message straight into a Writer, without the field index a
// TlvMessage carries. Produces byte-identical output to building a
// TlvMessage and encoding it PROVIDED the caller adds fields in strictly
// ascending tag order (the order Encode emits) and `field_count` matches
// the number of Add calls — both asserted in debug builds. This is the
// encode path for messages the KDC emits per request.
class TlvFieldWriter {
 public:
  TlvFieldWriter(Writer& w, uint16_t type, uint16_t field_count);
  ~TlvFieldWriter();

  void AddU32(uint16_t tag, uint32_t value);
  void AddU64(uint16_t tag, uint64_t value);
  void AddString(uint16_t tag, std::string_view value);
  void AddBytes(uint16_t tag, kerb::BytesView value);

 private:
  void Header(uint16_t tag, size_t len);

  Writer& w_;
  uint16_t declared_ = 0;
  uint16_t added_ = 0;
  int32_t last_tag_ = -1;
};

}  // namespace kenc

#endif  // SRC_ENCODING_TLV_H_
