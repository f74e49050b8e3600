// Simulated storage device for the durable KDC database (kstore).
//
// The paper assumes "strong physical security" for the Kerberos master
// machine but says nothing about its disk being well behaved — and real
// KDC databases have been lost to exactly the failure classes modelled
// here. This device is the storage analogue of ksim's FaultyNetwork: a
// deterministic in-memory "disk" of named files whose misbehaviour is
// drawn from a seeded PRNG, so every crash/recovery scenario is a pure
// function of (seed, fault plan, operation sequence) and can be replayed
// byte for byte.
//
// The durability model is the classic one:
//   * Append() lands in a volatile tail; Flush() hardens the tail.
//   * WriteAtomic() stages a wholesale replacement (the write-temp +
//     rename idiom); Flush() commits it. A crash before the flush leaves
//     the old content — never a half-written file.
//   * Crash() is power loss: staged replacements and volatile tails are
//     discarded, except that a torn write may persist a PREFIX of the
//     tail (the classic torn-page failure), and a lost flush means tail
//     bytes the caller believed durable were in fact still volatile. Lost
//     flushes model lying append-path caches only: a flushed WriteAtomic
//     commit is a rename barrier and always takes.
//
// Every operation and every fault decision folds into op_digest(), the
// same FNV discipline FaultyNetwork uses for its fault schedule.

#ifndef SRC_STORE_BLOCKDEV_H_
#define SRC_STORE_BLOCKDEV_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "src/common/bytes.h"
#include "src/crypto/prng.h"

namespace kstore {

// Device-level fault probabilities, each in [0, 1]. A zero probability
// consumes no randomness, so an all-zero plan is a perfectly honest disk.
struct DevFaultPlan {
  double lost_flush = 0;  // a Flush() silently fails to harden the tail
  double torn_tail = 0;   // on crash, a prefix of the volatile tail persists
};

class SimDevice {
 public:
  SimDevice() : prng_(0) {}
  SimDevice(kcrypto::Prng prng, DevFaultPlan plan) : prng_(prng), plan_(plan) {}

  // Appends to the file's volatile tail. Must not race a staged
  // WriteAtomic on the same file (asserted): the WAL appends, snapshots
  // replace, and the two live in different files.
  void Append(const std::string& file, kerb::BytesView data);

  // Stages a wholesale replacement of the file's content, committed by the
  // next Flush(). Until then readers see the staged bytes but a crash
  // reverts to the old content. The device takes the bytes over: a
  // snapshot image moves in without a copy.
  void WriteAtomic(const std::string& file, kerb::Bytes data);

  // Hardens the file: commits a staged replacement and/or moves the
  // volatile tail into the durable prefix. Subject to lost_flush.
  void Flush(const std::string& file);

  // The file as the running system sees it (staged/volatile included).
  kerb::Bytes ReadAll(const std::string& file) const;

  // The file's durable content in place, without a copy: what a crash now
  // would leave, before any torn tail. Valid until the next operation on
  // the file.
  kerb::BytesView DurableView(const std::string& file) const;

  size_t size(const std::string& file) const;
  size_t durable_size(const std::string& file) const;

  // Power loss: every file reverts to its durable content; each nonempty
  // volatile tail may instead persist as a torn prefix (per the plan).
  void Crash();

  // Mutable between operations, so scenarios can script fault windows at
  // deterministic points — same discipline as FaultyNetwork::plan().
  DevFaultPlan& plan() { return plan_; }

  // FNV-1a over every operation and fault decision, in order. Equal
  // digests across two runs mean identical device histories.
  uint64_t op_digest() const { return digest_; }

  uint64_t flushes_lost() const { return flushes_lost_; }
  uint64_t tails_torn() const { return tails_torn_; }

 private:
  struct FileState {
    kerb::Bytes durable;                 // survives Crash()
    kerb::Bytes tail;                    // appended since the last flush
    std::optional<kerb::Bytes> staged;   // WriteAtomic awaiting flush
  };

  bool Chance(double p);
  void Fold(uint64_t v);
  void FoldName(const std::string& name);

  std::map<std::string, FileState> files_;
  kcrypto::Prng prng_;
  DevFaultPlan plan_;
  uint64_t digest_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  uint64_t flushes_lost_ = 0;
  uint64_t tails_torn_ = 0;
};

}  // namespace kstore

#endif  // SRC_STORE_BLOCKDEV_H_
