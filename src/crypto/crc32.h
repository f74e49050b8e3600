// CRC-32 (the ISO 3309 / IEEE 802.3 polynomial) and its inversion.
//
// Draft 3 of Kerberos Version 5 permitted CRC-32 as the checksum sealing
// protocol messages. The paper's appendix shows that CRC-32 is not
// "collision-proof": an attacker who can choose a few bytes of a message can
// force the CRC to any desired value, because CRC is an affine function of
// the message. `ForgePatch` implements that fixup — given a message prefix
// and a target CRC, it returns the four bytes whose concatenation yields the
// target. It is the engine of the ENC-TKT-IN-SKEY cut-and-paste attack
// (experiment E9): "the additional authorization data field is filled in
// with whatever information is needed to make the CRC match".

#ifndef SRC_CRYPTO_CRC32_H_
#define SRC_CRYPTO_CRC32_H_

#include <array>
#include <cstdint>

#include "src/common/bytes.h"

namespace kcrypto {

// Standard reflected CRC-32: init 0xFFFFFFFF, reflected polynomial
// 0xEDB88320, final XOR 0xFFFFFFFF.
uint32_t Crc32(kerb::BytesView data);

// The same CRC, one table lookup per byte. This is the textbook loop the
// slice-by-8 Update is checked against (tests/crypto/wire_oracle_test.cc)
// and timed against (bench_smoke_crc32_guard); protocol code uses Crc32.
uint32_t Crc32Bytewise(kerb::BytesView data);

// Incremental interface.
class Crc32State {
 public:
  // Slice-by-8: eight bytes per step through eight derived tables, the
  // bytewise table for the remaining tail.
  void Update(kerb::BytesView data);
  uint32_t Final() const { return reg_ ^ 0xffffffffu; }

 private:
  uint32_t reg_ = 0xffffffffu;
};

// Returns 4 bytes `patch` such that Crc32(prefix || patch) == target_crc.
// Always succeeds: the top byte of the CRC-32 table is a permutation, so the
// backward walk is uniquely determined.
std::array<uint8_t, 4> ForgePatch(kerb::BytesView prefix, uint32_t target_crc);

}  // namespace kcrypto

#endif  // SRC_CRYPTO_CRC32_H_
