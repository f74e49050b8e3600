// Differential oracles for the two non-DES speed-ups on the V5 wire path:
//   * slice-by-8 Crc32State::Update against the bytewise table walk
//     (Crc32Bytewise), over every length to 1 KiB, every misaligned start
//     and every split of an incremental update; ForgePatch still forges;
//   * IP-domain CBC encryption (DesKey::EncryptCbcBlocks and the modes that
//     route through it) against CBC chained by hand from EncryptBlock, and
//     against the bit-loop reference DES for a sample.

#include <gtest/gtest.h>

#include <vector>

#include "src/crypto/crc32.h"
#include "src/crypto/des.h"
#include "src/crypto/des_ref.h"
#include "src/crypto/modes.h"
#include "src/crypto/prng.h"

namespace kcrypto {
namespace {

TEST(Crc32OracleTest, KnownAnswerOnBothPaths) {
  const kerb::Bytes check = kerb::ToBytes("123456789");
  EXPECT_EQ(Crc32(check), 0xcbf43926u);
  EXPECT_EQ(Crc32Bytewise(check), 0xcbf43926u);
  EXPECT_EQ(Crc32(kerb::Bytes{}), 0u);
  EXPECT_EQ(Crc32Bytewise(kerb::Bytes{}), 0u);
}

TEST(Crc32OracleTest, EveryLengthAndMisalignedStartMatchesBytewise) {
  Prng prng(0xc4c);
  const kerb::Bytes buf = prng.NextBytes(1024 + 8);
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 1024; ++len) {
      const kerb::BytesView view(buf.data() + start, len);
      ASSERT_EQ(Crc32(view), Crc32Bytewise(view)) << "start " << start << " len " << len;
    }
  }
}

TEST(Crc32OracleTest, EverySplitOfAnIncrementalUpdateMatches) {
  Prng prng(0x5917);
  // Every (length, split) pair up to 80 bytes, then every split of 1 KiB.
  for (size_t len = 0; len <= 80; ++len) {
    const kerb::Bytes buf = prng.NextBytes(len);
    const uint32_t want = Crc32Bytewise(buf);
    for (size_t split = 0; split <= len; ++split) {
      Crc32State state;
      state.Update(kerb::BytesView(buf.data(), split));
      state.Update(kerb::BytesView(buf.data() + split, len - split));
      ASSERT_EQ(state.Final(), want) << "len " << len << " split " << split;
    }
  }
  const kerb::Bytes big = prng.NextBytes(1024);
  const uint32_t want = Crc32Bytewise(big);
  for (size_t split = 0; split <= big.size(); ++split) {
    Crc32State state;
    state.Update(kerb::BytesView(big.data(), split));
    state.Update(kerb::BytesView(big.data() + split, big.size() - split));
    ASSERT_EQ(state.Final(), want) << "split " << split;
  }
  // Many small pieces of uneven size.
  Crc32State pieces;
  for (size_t pos = 0, step = 1; pos < big.size(); pos += step, step = step % 13 + 1) {
    pieces.Update(kerb::BytesView(big.data() + pos, std::min(step, big.size() - pos)));
  }
  EXPECT_EQ(pieces.Final(), want);
}

TEST(Crc32OracleTest, ForgePatchStillRoundTrips) {
  Prng prng(0xf09e);
  for (size_t len = 0; len <= 70; ++len) {
    const kerb::Bytes prefix = prng.NextBytes(len);
    const uint32_t target = static_cast<uint32_t>(prng.NextU64());
    const auto patch = ForgePatch(prefix, target);
    kerb::Bytes forged = prefix;
    forged.insert(forged.end(), patch.begin(), patch.end());
    ASSERT_EQ(Crc32(forged), target) << "len " << len;
    ASSERT_EQ(Crc32Bytewise(forged), target) << "len " << len;
  }
}

// CBC chained by hand: C_i = E(P_i ^ C_{i-1}).
std::vector<uint64_t> ChainedReference(const DesKey& key, uint64_t iv,
                                       const std::vector<uint64_t>& plain) {
  std::vector<uint64_t> out(plain.size());
  uint64_t chain = iv;
  for (size_t i = 0; i < plain.size(); ++i) {
    chain = key.EncryptBlock(plain[i] ^ chain);
    out[i] = chain;
  }
  return out;
}

TEST(CbcOracleTest, IpDomainChainingMatchesChainedEncryptBlock) {
  Prng prng(0xcbc);
  // 0 and 1 blocks, small sizes, and sizes around the 64-block chunk the
  // in-place byte API works in.
  std::vector<size_t> sizes = {0, 1, 2, 3, 7, 8, 63, 64, 65, 128, 129, 200};
  for (int i = 0; i < 40; ++i) {
    sizes.push_back(prng.NextBelow(100));
  }
  for (size_t n : sizes) {
    const DesKey key(prng.NextU64());
    const uint64_t iv = prng.NextU64();
    std::vector<uint64_t> plain(n);
    for (uint64_t& b : plain) {
      b = prng.NextU64();
    }
    const std::vector<uint64_t> want = ChainedReference(key, iv, plain);

    std::vector<uint64_t> got(n);
    const uint64_t last = key.EncryptCbcBlocks(iv, plain.data(), got.data(), n);
    ASSERT_EQ(got, want) << "n " << n;
    EXPECT_EQ(last, n == 0 ? iv : want.back()) << "n " << n;

    std::vector<uint64_t> in_place = plain;  // in == out
    CbcEncryptBlocks(key, iv, in_place.data(), in_place.data(), n);
    ASSERT_EQ(in_place, want) << "n " << n;

    kerb::Bytes bytes(8 * n);
    for (size_t b = 0; b < n; ++b) {
      StoreU64BE(bytes.data() + 8 * b, plain[b]);
    }
    EncryptCbcInPlace(key, U64ToBlock(iv), bytes.data(), bytes.size());
    for (size_t b = 0; b < n; ++b) {
      ASSERT_EQ(LoadU64BE(bytes.data() + 8 * b), want[b]) << "n " << n << " block " << b;
    }
    // And it still inverts.
    DecryptCbcInPlace(key, U64ToBlock(iv), bytes.data(), bytes.size());
    for (size_t b = 0; b < n; ++b) {
      ASSERT_EQ(LoadU64BE(bytes.data() + 8 * b), plain[b]) << "n " << n << " block " << b;
    }
  }
}

TEST(CbcOracleTest, IpDomainChainingMatchesTheBitLoopReference) {
  Prng prng(0x1f);
  for (int trial = 0; trial < 20; ++trial) {
    const uint64_t key_bits = prng.NextU64();
    const DesKey key(key_bits);
    const DesKeyRef ref(key_bits);
    uint64_t chain = prng.NextU64();
    std::vector<uint64_t> plain(1 + prng.NextBelow(9));
    for (uint64_t& b : plain) {
      b = prng.NextU64();
    }
    std::vector<uint64_t> got(plain.size());
    key.EncryptCbcBlocks(chain, plain.data(), got.data(), plain.size());
    for (size_t i = 0; i < plain.size(); ++i) {
      chain = ref.EncryptBlock(plain[i] ^ chain);
      ASSERT_EQ(got[i], chain) << "trial " << trial << " block " << i;
    }
  }
}

}  // namespace
}  // namespace kcrypto
