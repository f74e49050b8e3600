// Differential tests: the flat TlvMessage codec against the map-based
// decoder it replaced, kept here as a test-local oracle only.
//
// The oracle is the original implementation: one std::map<tag, Bytes> per
// message, filled field by field through a Reader, rejecting duplicate tags
// and trailing bytes. The flat codec must agree with it on every input —
// the same accept/reject verdict, the same field set, and the same bytes on
// re-encoding (ascending tag order) — and its setters must follow the map's
// overwrite/Remove/== semantics.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/crypto/prng.h"
#include "src/encoding/io.h"
#include "src/encoding/tlv.h"

namespace kenc {
namespace {

struct MapTlv {
  uint16_t type = 0;
  std::map<uint16_t, kerb::Bytes> fields;

  kerb::Bytes Encode() const {
    Writer w;
    w.PutU16(type);
    w.PutU16(static_cast<uint16_t>(fields.size()));
    for (const auto& [tag, value] : fields) {
      w.PutU16(tag);
      w.PutU32(static_cast<uint32_t>(value.size()));
      w.PutBytes(value);
    }
    return w.Take();
  }

  static std::optional<MapTlv> Decode(kerb::BytesView data) {
    Reader r(data);
    auto type = r.GetU16();
    auto count = r.GetU16();
    if (!type.ok() || !count.ok()) {
      return std::nullopt;
    }
    MapTlv msg{type.value(), {}};
    for (uint16_t i = 0; i < count.value(); ++i) {
      auto tag = r.GetU16();
      if (!tag.ok()) {
        return std::nullopt;
      }
      auto len = r.GetU32();
      if (!len.ok()) {
        return std::nullopt;
      }
      auto value = r.GetBytes(len.value());
      if (!value.ok() || msg.fields.count(tag.value()) != 0) {
        return std::nullopt;
      }
      msg.fields[tag.value()] = std::move(value).value();
    }
    if (!r.AtEnd()) {
      return std::nullopt;
    }
    return msg;
  }
};

// Asserts that `flat` holds exactly the oracle's type and fields.
void ExpectSameMessage(const TlvMessage& flat, const MapTlv& oracle) {
  EXPECT_EQ(flat.type(), oracle.type);
  ASSERT_EQ(flat.field_count(), oracle.fields.size());
  for (const auto& [tag, value] : oracle.fields) {
    auto view = flat.GetView(tag);
    ASSERT_TRUE(view.has_value()) << "tag " << tag;
    EXPECT_EQ(kerb::Bytes(view->begin(), view->end()), value) << "tag " << tag;
    EXPECT_EQ(flat.GetBytes(tag).value(), value) << "tag " << tag;
  }
  EXPECT_EQ(flat.Encode(), oracle.Encode());
  EXPECT_EQ(flat.EncodedSize(), oracle.Encode().size());
}

// Decodes `wire` with both codecs and checks they agree. Returns the verdict.
bool ExpectSameVerdict(const kerb::Bytes& wire) {
  auto flat = TlvMessage::Decode(wire);
  auto oracle = MapTlv::Decode(wire);
  EXPECT_EQ(flat.ok(), oracle.has_value()) << "wire size " << wire.size();
  if (!flat.ok()) {
    EXPECT_EQ(flat.error().code, kerb::ErrorCode::kBadFormat);
    return false;
  }
  if (oracle.has_value()) {
    ExpectSameMessage(flat.value(), *oracle);
  }
  return true;
}

// Raw wire builder for inputs no encoder would produce.
struct RawField {
  uint16_t tag;
  kerb::Bytes value;
  std::optional<uint32_t> len_override = std::nullopt;
};

kerb::Bytes RawMessage(uint16_t type, uint16_t count, const std::vector<RawField>& fields) {
  Writer w;
  w.PutU16(type);
  w.PutU16(count);
  for (const RawField& f : fields) {
    w.PutU16(f.tag);
    w.PutU32(f.len_override.value_or(static_cast<uint32_t>(f.value.size())));
    w.PutBytes(f.value);
  }
  return w.Take();
}

kerb::Bytes RawMessage(uint16_t type, const std::vector<RawField>& fields) {
  return RawMessage(type, static_cast<uint16_t>(fields.size()), fields);
}

TEST(TlvOracleTest, UnsortedTagsAcceptedAndReencodedAscending) {
  const kerb::Bytes wire =
      RawMessage(7, {{9, {1}}, {2, {2, 2}}, {40000, {}}, {5, {5, 5, 5}}, {3, {3}}});
  ASSERT_TRUE(ExpectSameVerdict(wire));
  const kerb::Bytes sorted =
      RawMessage(7, {{2, {2, 2}}, {3, {3}}, {5, {5, 5, 5}}, {9, {1}}, {40000, {}}});
  EXPECT_EQ(TlvMessage::Decode(wire).value().Encode(), sorted);
  EXPECT_TRUE(TlvMessage::Decode(wire).value() == TlvMessage::Decode(sorted).value());
}

TEST(TlvOracleTest, DuplicateTagsRejectedAdjacentAndNot) {
  EXPECT_FALSE(ExpectSameVerdict(RawMessage(1, {{4, {1}}, {4, {2}}})));
  EXPECT_FALSE(ExpectSameVerdict(RawMessage(1, {{4, {1}}, {6, {}}, {4, {1}}})));
  EXPECT_FALSE(ExpectSameVerdict(RawMessage(1, {{9, {}}, {4, {1}}, {2, {}}, {4, {1}}})));
  EXPECT_FALSE(ExpectSameVerdict(RawMessage(1, {{0, {}}, {0, {}}})));
  EXPECT_FALSE(ExpectSameVerdict(RawMessage(1, {{65535, {}}, {1, {}}, {65535, {}}})));
}

TEST(TlvOracleTest, CountLargerThanFieldsPresentRejected) {
  const std::vector<RawField> fields = {{1, {1, 2, 3, 4}}, {2, {5}}};
  EXPECT_TRUE(ExpectSameVerdict(RawMessage(3, 2, fields)));
  for (uint32_t count : {3u, 4u, 100u, 65535u}) {
    EXPECT_FALSE(ExpectSameVerdict(RawMessage(3, static_cast<uint16_t>(count), fields)))
        << "count " << count;
  }
  // Fewer declared than present leaves the rest as trailing bytes.
  EXPECT_FALSE(ExpectSameVerdict(RawMessage(3, 1, fields)));
  EXPECT_FALSE(ExpectSameVerdict(RawMessage(3, 0, fields)));
}

TEST(TlvOracleTest, HugeLengthsRejectedWithoutOverflow) {
  for (uint32_t len : {0xffffffffu, 0xfffffffeu, 0xfffffff9u, 0x80000000u, 0x7fffffffu, 5u}) {
    EXPECT_FALSE(ExpectSameVerdict(RawMessage(2, {{1, {1, 2, 3, 4}, len}}))) << len;
    // Also as the first of two fields, where pos + len would wrap.
    EXPECT_FALSE(ExpectSameVerdict(RawMessage(2, {{1, {9}, len}, {2, {1, 2, 3}}}))) << len;
  }
  // The exact length still decodes.
  EXPECT_TRUE(ExpectSameVerdict(RawMessage(2, {{1, {1, 2, 3, 4}, 4}})));
}

TEST(TlvOracleTest, EveryTruncationAndEveryTrailingByteRejected) {
  const kerb::Bytes wire = RawMessage(
      11, {{1, {1, 2, 3, 4}}, {2, kerb::Bytes(9, 0xaa)}, {3, {}}, {300, kerb::Bytes(17, 0xbb)}});
  ASSERT_TRUE(ExpectSameVerdict(wire));
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(ExpectSameVerdict(kerb::Bytes(wire.begin(), wire.begin() + len)))
        << "cut at " << len;
  }
  for (size_t extra = 1; extra <= 8; ++extra) {
    kerb::Bytes padded = wire;
    padded.insert(padded.end(), extra, 0);
    EXPECT_FALSE(ExpectSameVerdict(padded)) << "trailing " << extra;
  }
}

TEST(TlvOracleTest, RandomizedWireAgreesWithOracle) {
  // Structurally plausible messages from a small tag alphabet (so duplicates
  // and disorder are common), then cut, extended, or bit-flipped.
  kcrypto::Prng prng(0x71f0);
  int accepted = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<RawField> fields;
    const size_t n = prng.NextBelow(7);
    for (size_t i = 0; i < n; ++i) {
      fields.push_back({static_cast<uint16_t>(prng.NextBelow(10)),
                        prng.NextBytes(prng.NextBelow(12))});
    }
    kerb::Bytes wire = RawMessage(static_cast<uint16_t>(prng.NextBelow(3)),
                                  static_cast<uint16_t>(n + (prng.NextBelow(8) == 0 ? 1 : 0)),
                                  fields);
    switch (prng.NextBelow(4)) {
      case 0:
        wire.resize(prng.NextBelow(wire.size() + 1));
        break;
      case 1:
        wire.push_back(static_cast<uint8_t>(prng.NextBelow(256)));
        break;
      case 2: {
        const size_t bit = prng.NextBelow(wire.size() * 8);
        wire[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        break;
      }
      default:
        break;
    }
    accepted += ExpectSameVerdict(wire) ? 1 : 0;
  }
  // Both verdicts occur, so the comparison exercised each side.
  EXPECT_GT(accepted, 500);
  EXPECT_LT(accepted, 3500);
}

TEST(TlvOracleTest, SetterSemanticsMatchTheMap) {
  // Random Set/Remove sequences applied to both; the encodings must match
  // after every step, and == must agree with map equality.
  kcrypto::Prng prng(0x5e77);
  for (int iter = 0; iter < 300; ++iter) {
    TlvMessage flat(42);
    MapTlv oracle{42, {}};
    for (int step = 0; step < 30; ++step) {
      const auto tag = static_cast<uint16_t>(prng.NextBelow(8));
      switch (prng.NextBelow(5)) {
        case 0: {
          const uint32_t v = static_cast<uint32_t>(prng.NextU64());
          flat.SetU32(tag, v);
          oracle.fields[tag] = {static_cast<uint8_t>(v >> 24), static_cast<uint8_t>(v >> 16),
                                static_cast<uint8_t>(v >> 8), static_cast<uint8_t>(v)};
          break;
        }
        case 1: {
          const uint64_t v = prng.NextU64();
          flat.SetU64(tag, v);
          kerb::Bytes b(8);
          for (int i = 0; i < 8; ++i) {
            b[i] = static_cast<uint8_t>(v >> (56 - 8 * i));
          }
          oracle.fields[tag] = b;
          break;
        }
        case 2: {
          const kerb::Bytes b = prng.NextBytes(prng.NextBelow(10));
          flat.SetBytes(tag, b);
          oracle.fields[tag] = b;
          break;
        }
        case 3: {
          // Self-aliasing: a field's own view fed back into the message.
          const auto from = static_cast<uint16_t>(prng.NextBelow(8));
          if (auto view = flat.GetView(from)) {
            flat.SetBytes(tag, *view);
            oracle.fields[tag] = oracle.fields.at(from);
          }
          break;
        }
        default:
          flat.Remove(tag);
          oracle.fields.erase(tag);
          break;
      }
      ASSERT_EQ(flat.Encode(), oracle.Encode()) << "iter " << iter << " step " << step;
      ASSERT_EQ(flat.Has(tag), oracle.fields.count(tag) != 0);
    }
    // A decoded copy and a rebuilt-in-another-order copy compare equal.
    auto decoded = TlvMessage::Decode(flat.Encode());
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(decoded.value() == flat);
    TlvMessage rebuilt(42);
    for (auto it = oracle.fields.rbegin(); it != oracle.fields.rend(); ++it) {
      rebuilt.SetBytes(it->first, it->second);
    }
    EXPECT_TRUE(rebuilt == flat);
    if (!oracle.fields.empty()) {
      // One differing value, a missing field, or another type breaks ==.
      TlvMessage changed = rebuilt;
      const uint16_t first = oracle.fields.begin()->first;
      kerb::Bytes value = oracle.fields.begin()->second;
      value.push_back(0);
      changed.SetBytes(first, value);
      EXPECT_FALSE(changed == flat);
      changed.Remove(first);
      EXPECT_FALSE(changed == flat);
    }
    EXPECT_FALSE(TlvMessage(43) == TlvMessage(42));
  }
}

TEST(TlvOracleTest, ViewsAndGettersReadTheLatestValue) {
  TlvMessage msg(1);
  msg.SetU32(5, 1);
  msg.SetU32(5, 2);  // same size: overwritten in place
  EXPECT_EQ(msg.GetU32(5).value(), 2u);
  msg.SetBytes(5, kerb::Bytes{1, 2, 3});  // new size
  EXPECT_FALSE(msg.GetU32(5).ok());
  EXPECT_EQ(msg.GetBytes(5).value(), (kerb::Bytes{1, 2, 3}));
  msg.SetU64(5, 7);
  EXPECT_EQ(msg.GetU64(5).value(), 7u);
  EXPECT_EQ(msg.field_count(), 1u);
  EXPECT_EQ(msg.Encode(), RawMessage(1, {{5, {0, 0, 0, 0, 0, 0, 0, 7}}}));
  EXPECT_FALSE(msg.GetView(6).has_value());
}

TEST(TlvOracleTest, MisSizedOptionalU32IsAnErrorNotAbsent) {
  TlvMessage msg(1);
  msg.SetBytes(5, kerb::Bytes{1, 2, 3});
  auto r = msg.GetOptionalU32(5);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, kerb::ErrorCode::kBadFormat);
  EXPECT_EQ(msg.GetOptionalU32(6).value(), std::nullopt);
  msg.SetU32(5, 9);
  EXPECT_EQ(msg.GetOptionalU32(5).value(), std::optional<uint32_t>(9));
}

}  // namespace
}  // namespace kenc
