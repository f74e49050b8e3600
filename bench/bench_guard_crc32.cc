// Regression guard: slice-by-8 CRC-32 (Crc32 / Crc32State::Update) must
// stay at least 3x faster than the bytewise table walk it replaced
// (Crc32Bytewise, kept as its differential oracle) on 512-byte buffers.
//
// Not a google-benchmark binary — a plain pass/fail ctest (registered as
// bench_smoke_crc32_guard). Both sides checksum the same 512-byte buffers,
// the size of the V5 sealed messages CRC-32 covers on the wire path, in the
// same process, so the ratio holds on any machine where an absolute rate
// would not. The measured margin is about 6x; a silent fallback to the
// bytewise loop reads ~1x. As in the other guards, best-of-N rounds absorb
// scheduler noise and a failed attempt is re-measured from scratch up to
// kAttempts times, so only a persistent one-sided slowdown fails.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "src/crypto/crc32.h"
#include "src/crypto/prng.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main() {
  constexpr size_t kBufferBytes = 512;
  constexpr int kBuffers = 64;
  constexpr int kPasses = 200;  // 64 x 512 B x 200 = 6.5 MB per timed side
  constexpr int kRounds = 5;
  constexpr int kAttempts = 3;
  constexpr double kFloor = 3.0;

  kcrypto::Prng prng(0xc4c32);
  std::vector<kerb::Bytes> buffers;
  for (int i = 0; i < kBuffers; ++i) {
    buffers.push_back(prng.NextBytes(kBufferBytes));
  }
  for (const kerb::Bytes& b : buffers) {
    if (kcrypto::Crc32(b) != kcrypto::Crc32Bytewise(b)) {
      std::fprintf(stderr, "FAIL: slice-by-8 and bytewise CRC-32 disagree\n");
      return 1;
    }
  }

  const double bytes = static_cast<double>(kBufferBytes) * kBuffers * kPasses;
  volatile uint32_t sink = 0;
  double speedup = 0.0;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    double bytewise_best = 1e9;
    double sliced_best = 1e9;
    for (int round = 0; round < kRounds; ++round) {
      auto start = Clock::now();
      for (int pass = 0; pass < kPasses; ++pass) {
        for (const kerb::Bytes& b : buffers) {
          sink = sink ^ kcrypto::Crc32Bytewise(b);
        }
      }
      bytewise_best = std::min(bytewise_best, SecondsSince(start));

      start = Clock::now();
      for (int pass = 0; pass < kPasses; ++pass) {
        for (const kerb::Bytes& b : buffers) {
          sink = sink ^ kcrypto::Crc32(b);
        }
      }
      sliced_best = std::min(sliced_best, SecondsSince(start));
    }
    speedup = bytewise_best / sliced_best;
    std::printf("attempt %d/%d: bytewise %.2f ns/B, slice-by-8 %.2f ns/B, speedup %.2fx "
                "(floor: %.1fx)\n",
                attempt, kAttempts, 1e9 * bytewise_best / bytes, 1e9 * sliced_best / bytes,
                speedup, kFloor);
    if (speedup >= kFloor) {
      std::printf("PASS\n");
      return 0;
    }
  }
  std::fprintf(stderr, "FAIL: slice-by-8 CRC-32 below the %.1fx floor on all %d attempts "
               "(last: %.2fx)\n", kFloor, kAttempts, speedup);
  return 1;
}
