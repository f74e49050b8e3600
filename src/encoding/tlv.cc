#include "src/encoding/tlv.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/encoding/io.h"

namespace kenc {

TlvFieldWriter::TlvFieldWriter(Writer& w, uint16_t type, uint16_t field_count)
    : w_(w), declared_(field_count) {
  w_.PutU16(type);
  w_.PutU16(field_count);
}

TlvFieldWriter::~TlvFieldWriter() { assert(added_ == declared_); }

void TlvFieldWriter::Header(uint16_t tag, size_t len) {
  assert(static_cast<int32_t>(tag) > last_tag_);
  last_tag_ = tag;
  ++added_;
  w_.PutU16(tag);
  w_.PutU32(static_cast<uint32_t>(len));
}

void TlvFieldWriter::AddU32(uint16_t tag, uint32_t value) {
  Header(tag, 4);
  w_.PutU32(value);
}

void TlvFieldWriter::AddU64(uint16_t tag, uint64_t value) {
  Header(tag, 8);
  w_.PutU64(value);
}

void TlvFieldWriter::AddString(uint16_t tag, std::string_view value) {
  // Raw characters, no length prefix — the TLV header already carries the
  // length (matches TlvMessage, which stores strings as bare bytes).
  Header(tag, value.size());
  w_.PutBytes(kerb::BytesView(reinterpret_cast<const uint8_t*>(value.data()), value.size()));
}

void TlvFieldWriter::AddBytes(uint16_t tag, kerb::BytesView value) {
  Header(tag, value.size());
  w_.PutBytes(value);
}

namespace {

uint16_t LoadU16(const uint8_t* p) { return static_cast<uint16_t>((p[0] << 8) | p[1]); }

uint32_t LoadU32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | p[3];
}

uint64_t LoadU64(const uint8_t* p) {
  return (static_cast<uint64_t>(LoadU32(p)) << 32) | LoadU32(p + 4);
}

void StoreBE(uint8_t* p, uint64_t v, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * (n - 1 - i)));
  }
}

kerb::Error BadFormat(const char* detail) {
  return kerb::MakeError(kerb::ErrorCode::kBadFormat, detail);
}

}  // namespace

size_t TlvMessage::LowerBound(uint16_t tag) const {
  auto it = std::lower_bound(fields_.begin(), fields_.end(), tag,
                             [](const Field& f, uint16_t t) { return f.tag < t; });
  return static_cast<size_t>(it - fields_.begin());
}

const TlvMessage::Field* TlvMessage::Find(uint16_t tag) const {
  const size_t i = LowerBound(tag);
  return i < fields_.size() && fields_[i].tag == tag ? &fields_[i] : nullptr;
}

uint8_t* TlvMessage::Place(uint16_t tag, size_t len) {
  if (fields_.capacity() == 0) {
    // Room for a typical message, so building one by setters costs two
    // allocations rather than one per doubling.
    fields_.reserve(16);
    buf_.reserve(256);
  }
  auto it = fields_.begin() + static_cast<ptrdiff_t>(LowerBound(tag));
  if (it != fields_.end() && it->tag == tag) {
    if (it->len == len) {
      return buf_.data() + it->offset;  // same size: overwrite in place
    }
  } else {
    it = fields_.insert(it, Field{tag, 0, 0});
  }
  // The old value, if any, stays behind in buf_ unreferenced.
  it->len = static_cast<uint32_t>(len);
  it->offset = buf_.size();
  buf_.resize(buf_.size() + len);
  return buf_.data() + it->offset;
}

void TlvMessage::SetU32(uint16_t tag, uint32_t value) { StoreBE(Place(tag, 4), value, 4); }

void TlvMessage::SetU64(uint16_t tag, uint64_t value) { StoreBE(Place(tag, 8), value, 8); }

void TlvMessage::SetString(uint16_t tag, std::string_view value) {
  SetBytes(tag, kerb::BytesView(reinterpret_cast<const uint8_t*>(value.data()), value.size()));
}

void TlvMessage::SetBytes(uint16_t tag, kerb::BytesView value) {
  const auto begin = reinterpret_cast<uintptr_t>(buf_.data());
  const auto at = reinterpret_cast<uintptr_t>(value.data());
  if (at >= begin && at < begin + buf_.size()) {
    // `value` views this message's own buffer, which Place may reallocate.
    const kerb::Bytes copy(value.begin(), value.end());
    SetBytes(tag, copy);
    return;
  }
  uint8_t* dst = Place(tag, value.size());
  if (!value.empty()) {
    std::memcpy(dst, value.data(), value.size());
  }
}

void TlvMessage::Remove(uint16_t tag) {
  if (const Field* f = Find(tag)) {
    fields_.erase(fields_.begin() + (f - fields_.data()));
  }
}

bool TlvMessage::operator==(const TlvMessage& other) const {
  if (type_ != other.type_ || fields_.size() != other.fields_.size()) {
    return false;
  }
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].tag != other.fields_[i].tag ||
        !std::ranges::equal(ValueOf(fields_[i]), other.ValueOf(other.fields_[i]))) {
      return false;
    }
  }
  return true;
}

std::optional<kerb::BytesView> TlvMessage::GetView(uint16_t tag) const {
  const Field* f = Find(tag);
  if (f == nullptr) {
    return std::nullopt;
  }
  return ValueOf(*f);
}

kerb::Result<uint32_t> TlvMessage::GetU32(uint16_t tag) const {
  const Field* f = Find(tag);
  if (f == nullptr) {
    return BadFormat("missing u32 field");
  }
  if (f->len != 4) {
    return BadFormat("u32 field has wrong size");
  }
  return LoadU32(buf_.data() + f->offset);
}

kerb::Result<uint64_t> TlvMessage::GetU64(uint16_t tag) const {
  const Field* f = Find(tag);
  if (f == nullptr) {
    return BadFormat("missing u64 field");
  }
  if (f->len != 8) {
    return BadFormat("u64 field has wrong size");
  }
  return LoadU64(buf_.data() + f->offset);
}

kerb::Result<std::string> TlvMessage::GetString(uint16_t tag) const {
  const Field* f = Find(tag);
  if (f == nullptr) {
    return BadFormat("missing string field");
  }
  return std::string(reinterpret_cast<const char*>(buf_.data() + f->offset), f->len);
}

kerb::Result<kerb::Bytes> TlvMessage::GetBytes(uint16_t tag) const {
  const Field* f = Find(tag);
  if (f == nullptr) {
    return BadFormat("missing bytes field");
  }
  const kerb::BytesView v = ValueOf(*f);
  return kerb::Bytes(v.begin(), v.end());
}

kerb::Result<std::optional<uint32_t>> TlvMessage::GetOptionalU32(uint16_t tag) const {
  if (!Has(tag)) {
    return std::optional<uint32_t>();
  }
  auto r = GetU32(tag);
  if (!r.ok()) {
    return r.error();
  }
  return std::optional<uint32_t>(r.value());
}

std::optional<kerb::Bytes> TlvMessage::GetOptionalBytes(uint16_t tag) const {
  const Field* f = Find(tag);
  if (f == nullptr) {
    return std::nullopt;
  }
  const kerb::BytesView v = ValueOf(*f);
  return kerb::Bytes(v.begin(), v.end());
}

kerb::Bytes TlvMessage::Encode() const {
  kerb::Bytes out;
  out.reserve(EncodedSize());
  EncodeInto(out);
  return out;
}

size_t TlvMessage::EncodedSize() const {
  size_t size = 4;
  for (const Field& f : fields_) {
    size += 6 + f.len;
  }
  return size;
}

void TlvMessage::AppendTo(Writer& w) const {
  w.PutU16(type_);
  w.PutU16(static_cast<uint16_t>(fields_.size()));
  for (const Field& f : fields_) {
    w.PutU16(f.tag);
    w.PutU32(f.len);
    w.PutBytes(ValueOf(f));
  }
}

void TlvMessage::EncodeInto(kerb::Bytes& out) const {
  Writer w(&out);
  AppendTo(w);
}

kerb::Result<TlvMessage> TlvMessage::Decode(kerb::BytesView data) {
  constexpr size_t kHeader = 4;       // type u16, count u16
  constexpr size_t kFieldHeader = 6;  // tag u16, len u32
  if (data.size() < kHeader) {
    return BadFormat("truncated message header");
  }
  const size_t count = LoadU16(data.data() + 2);
  // Every field costs at least its header, so a count the input cannot hold
  // is refused before anything is reserved for it.
  if (count > (data.size() - kHeader) / kFieldHeader) {
    return BadFormat("field count exceeds message");
  }
  TlvMessage msg(LoadU16(data.data()));
  msg.buf_.assign(data.begin(), data.end());
  msg.fields_.reserve(count);
  const uint8_t* p = msg.buf_.data();
  const size_t size = msg.buf_.size();
  size_t pos = kHeader;
  bool ascending = true;
  for (size_t i = 0; i < count; ++i) {
    if (size - pos < kFieldHeader) {
      return BadFormat("truncated field header");
    }
    const uint16_t tag = LoadU16(p + pos);
    const uint32_t len = LoadU32(p + pos + 2);
    pos += kFieldHeader;
    if (len > size - pos) {
      return BadFormat("truncated field value");
    }
    if (!msg.fields_.empty() && tag <= msg.fields_.back().tag) {
      ascending = false;
    }
    msg.fields_.push_back(Field{tag, len, pos});
    pos += len;
  }
  if (pos != size) {
    // Trailing bytes mean the message was spliced or padded with garbage —
    // exactly the ambiguity a standard encoding exists to rule out.
    return BadFormat("trailing bytes after message");
  }
  if (!ascending) {
    std::sort(msg.fields_.begin(), msg.fields_.end(),
              [](const Field& a, const Field& b) { return a.tag < b.tag; });
    if (std::adjacent_find(msg.fields_.begin(), msg.fields_.end(),
                           [](const Field& a, const Field& b) { return a.tag == b.tag; }) !=
        msg.fields_.end()) {
      return BadFormat("duplicate field tag");
    }
  }
  return msg;
}

kerb::Result<TlvMessage> TlvMessage::DecodeExpecting(uint16_t expected_type,
                                                     kerb::BytesView data) {
  auto msg = Decode(data);
  if (!msg.ok()) {
    return msg;
  }
  if (msg.value().type() != expected_type) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "message type mismatch");
  }
  return msg;
}

}  // namespace kenc
