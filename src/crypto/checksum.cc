#include "src/crypto/checksum.h"

#include <algorithm>
#include <cassert>

#include "src/crypto/crc32.h"
#include "src/crypto/md4.h"
#include "src/crypto/modes.h"

namespace kcrypto {

const char* ChecksumTypeName(ChecksumType type) {
  switch (type) {
    case ChecksumType::kCrc32:
      return "crc32";
    case ChecksumType::kMd4:
      return "rsa-md4";
    case ChecksumType::kMd4Des:
      return "rsa-md4-des";
  }
  return "unknown";
}

size_t ChecksumSize(ChecksumType type) {
  switch (type) {
    case ChecksumType::kCrc32:
      return 4;
    case ChecksumType::kMd4:
    case ChecksumType::kMd4Des:
      return 16;
  }
  return 0;
}

bool IsCollisionProof(ChecksumType type) { return type != ChecksumType::kCrc32; }

bool IsKeyed(ChecksumType type) { return type == ChecksumType::kMd4Des; }

void ComputeChecksumInto(ChecksumType type, kerb::BytesView data,
                         const std::optional<DesKey>& key, uint8_t* out) {
  switch (type) {
    case ChecksumType::kCrc32: {
      const uint32_t c = Crc32(data);
      for (int i = 0; i < 4; ++i) {
        out[i] = static_cast<uint8_t>(c >> (8 * i));
      }
      return;
    }
    case ChecksumType::kMd4: {
      const Md4Digest d = Md4(data);
      std::copy(d.begin(), d.end(), out);
      return;
    }
    case ChecksumType::kMd4Des: {
      assert(key.has_value());
      const Md4Digest d = Md4(data);
      std::copy(d.begin(), d.end(), out);
      EncryptCbcInPlace(key->Variant(0xf0), kZeroIv, out, d.size());
      return;
    }
  }
}

kerb::Bytes ComputeChecksum(ChecksumType type, kerb::BytesView data,
                            const std::optional<DesKey>& key) {
  kerb::Bytes out(ChecksumSize(type));
  ComputeChecksumInto(type, data, key, out.data());
  return out;
}

bool VerifyChecksum(ChecksumType type, kerb::BytesView data, kerb::BytesView expected,
                    const std::optional<DesKey>& key) {
  uint8_t computed[16];
  const size_t size = ChecksumSize(type);
  assert(size <= sizeof(computed));
  ComputeChecksumInto(type, data, key, computed);
  return kerb::ConstantTimeEqual(kerb::BytesView(computed, size), expected);
}

}  // namespace kcrypto
