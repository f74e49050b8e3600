#include "src/crypto/crc32.h"

namespace kcrypto {

namespace {

struct Tables {
  // slice[0] is the bytewise table. slice[k][i] is the register
  // contribution of byte value i followed by k zero bytes, so eight input
  // bytes fold in with eight independent lookups.
  uint32_t slice[8][256];
  uint8_t top_index[256];  // maps (slice[0][i] >> 24) -> i; a bijection for this polynomial

  Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
      }
      slice[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        slice[k][i] = (slice[k - 1][i] >> 8) ^ slice[0][slice[k - 1][i] & 0xff];
      }
    }
    for (uint32_t i = 0; i < 256; ++i) {
      top_index[slice[0][i] >> 24] = static_cast<uint8_t>(i);
    }
  }
};

const Tables& GetTables() {
  static const Tables tables;
  return tables;
}

uint32_t UpdateBytewise(const Tables& t, uint32_t reg, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    reg = (reg >> 8) ^ t.slice[0][(reg ^ p[i]) & 0xff];
  }
  return reg;
}

uint32_t LoadU32LE(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

void Crc32State::Update(kerb::BytesView data) {
  const Tables& t = GetTables();
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint32_t reg = reg_;
  for (; n >= 8; p += 8, n -= 8) {
    // The register is reflected, so it XORs into the first four bytes read
    // little-endian; the oldest byte has the most zero bytes after it.
    const uint32_t lo = LoadU32LE(p) ^ reg;
    const uint32_t hi = LoadU32LE(p + 4);
    reg = t.slice[7][lo & 0xff] ^ t.slice[6][(lo >> 8) & 0xff] ^
          t.slice[5][(lo >> 16) & 0xff] ^ t.slice[4][lo >> 24] ^ t.slice[3][hi & 0xff] ^
          t.slice[2][(hi >> 8) & 0xff] ^ t.slice[1][(hi >> 16) & 0xff] ^ t.slice[0][hi >> 24];
  }
  reg_ = UpdateBytewise(t, reg, p, n);
}

uint32_t Crc32(kerb::BytesView data) {
  Crc32State state;
  state.Update(data);
  return state.Final();
}

uint32_t Crc32Bytewise(kerb::BytesView data) {
  return UpdateBytewise(GetTables(), 0xffffffffu, data.data(), data.size()) ^ 0xffffffffu;
}

std::array<uint8_t, 4> ForgePatch(kerb::BytesView prefix, uint32_t target_crc) {
  const Tables& t = GetTables();

  // Internal register value we must reach after consuming the patch.
  uint32_t want = target_crc ^ 0xffffffffu;

  // Walk backwards from `want`, recovering the table index used at each of
  // the four byte steps. The low bytes of `cur` become unknown as we walk,
  // but each step's lookup only depends on bits that are still determined.
  uint32_t cur = want;
  std::array<uint8_t, 4> idxs{};
  for (int i = 3; i >= 0; --i) {
    uint8_t idx = t.top_index[cur >> 24];
    idxs[i] = idx;
    cur = (cur ^ t.slice[0][idx]) << 8;
  }

  // Forward pass: force each step to use the recovered index by choosing the
  // patch byte accordingly.
  uint32_t reg = UpdateBytewise(t, 0xffffffffu, prefix.data(), prefix.size());
  std::array<uint8_t, 4> patch{};
  for (int i = 0; i < 4; ++i) {
    patch[i] = static_cast<uint8_t>((reg ^ idxs[i]) & 0xff);
    reg = (reg >> 8) ^ t.slice[0][idxs[i]];
  }
  return patch;
}

}  // namespace kcrypto
