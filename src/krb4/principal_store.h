// Sharded open-addressing principal table — the KDC's hot lookup structure.
//
// The seed KdcDatabase kept two parallel std::maps (principal → key,
// principal → kind), so every request paid two O(log n) string-comparison
// walks plus node-pointer chasing. This store keeps one entry per principal
// in an open-addressing table (power-of-two capacity, linear probing, one
// hash → typically one probe), split into shards each guarded by its own
// reader/writer lock so a multi-threaded serving core can look keys up
// concurrently while registrations proceed.
//
// Keys are stored with their DES subkey schedule already expanded (DesKey
// precomputes it at construction), so string-to-key and schedule derivation
// happen once per principal at registration, never per request. The
// `generation()` counter advances on every mutation; per-worker derived-key
// caches (src/krb4/kdccore.h) use it to detect staleness without locks.

#ifndef SRC_KRB4_PRINCIPAL_STORE_H_
#define SRC_KRB4_PRINCIPAL_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "src/crypto/des.h"
#include "src/krb4/principal.h"
#include "src/sim/clock.h"

namespace krb4 {

// Whether a principal is a human (password-derived key) or a service
// (random key). The distinction matters: the paper notes that treating
// "clients as services" lets anyone obtain tickets encrypted with a user's
// password key — another password-guessing avenue (experiment E15).
enum class PrincipalKind {
  kUser,
  kService,
};

// One key version in a principal's ring. Real Kerberos databases carry a
// key version number precisely so keys can change while tickets sealed
// under the previous version are still in flight; the paper's complaint
// about keys that live forever is answered by rotating the current entry
// and letting the old one drain.
struct KeyVersion {
  uint32_t kvno = 1;
  kcrypto::DesKey key;
  // Virtual time after which this version stops being accepted; 0 means no
  // scheduled expiry (the current version always has 0).
  ksim::Time not_after = 0;
};

// The full database record for a principal: its kind, ticket-policy
// attributes (the kvno/max_life/max_renew triple real kadmin databases
// store per principal), and the key ring ordered newest-first —
// keys.front() is the current version every new ticket is sealed under.
struct PrincipalEntry {
  PrincipalKind kind = PrincipalKind::kService;
  std::vector<KeyVersion> keys;
  ksim::Duration max_life = 0;   // 0 = realm default
  ksim::Duration max_renew = 0;  // 0 = realm default

  // Oldest versions beyond this many are pruned at rotation time; a ring
  // this deep covers several back-to-back rotations within one ticket
  // lifetime without unbounded growth.
  static constexpr size_t kRingCap = 4;

  uint32_t kvno() const { return keys.empty() ? 0 : keys.front().kvno; }
};

class PrincipalStore {
 public:
  PrincipalStore();
  PrincipalStore(const PrincipalStore& other);
  PrincipalStore& operator=(const PrincipalStore& other);
  PrincipalStore(PrincipalStore&& other) noexcept;
  PrincipalStore& operator=(PrincipalStore&& other) noexcept;

  // Inserts or replaces the entry for `principal` with a fresh single-entry
  // key ring at kvno 1 — the registration path. Thread-safe.
  void Upsert(const Principal& principal, const kcrypto::DesKey& key, PrincipalKind kind);

  // Inserts or replaces the *whole* record — ring, kind, and policy
  // attributes — in one shard-locked step. Rotation and replica
  // propagation go through this so a ring change is atomic: no reader ever
  // observes a principal between key versions. Entries with an empty ring
  // are rejected (returns false, store untouched). Thread-safe.
  bool UpsertEntry(const Principal& principal, const PrincipalEntry& entry);

  // Copies the full record out under the shard's reader lock. Returns
  // false when the principal is unknown. Thread-safe.
  bool LookupEntry(const Principal& principal, PrincipalEntry* entry_out) const;

  // Removes the entry for `principal` (false when absent). Linear probing
  // cannot tolerate tombstone-free holes, so removal backward-shifts the
  // rest of the probe cluster into place. Thread-safe.
  bool Erase(const Principal& principal);

  // Copies the entry out under the shard's reader lock. Either output may be
  // null. Returns false when the principal is unknown. Thread-safe.
  bool Lookup(const Principal& principal, kcrypto::DesKey* key_out,
              PrincipalKind* kind_out = nullptr) const;

  bool Contains(const Principal& principal) const { return Lookup(principal, nullptr); }

  // Pre-sizes every shard for `expected_entries` total entries so the load
  // factor stays below 3/4 without incremental growth. Registering a
  // million-principal realm without this pays ~12 doubling rehashes per
  // shard — each a full reallocate-and-reinsert of the shard, with the
  // worst one rehashing half the population — and transiently holds both
  // the old and new slot arrays. With it, registration is one allocation
  // per shard and insert cost is flat from the first principal to the
  // last. Never shrinks; safe to call on a live store. Thread-safe.
  void Reserve(size_t expected_entries);

  // Visits every entry as fn(principal, entry) under each shard's reader
  // lock, in shard/slot order — deterministic for a given insertion
  // history, NOT sorted. The bulk-export path (cluster slice extraction,
  // snapshots) uses this to avoid the Principals()+LookupEntry double walk.
  // fn must not call back into this store (the shard lock is held).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t s = 0; s < kShardCount; ++s) {
      std::shared_lock lock(shards_[s].mu);
      for (const Slot& slot : shards_[s].slots) {
        if (slot.used) {
          fn(slot.principal, slot.entry);
        }
      }
    }
  }

  // Longest probe sequence any current entry needs (1 = every entry sits
  // in its home slot). Diagnostic for the load/churn stress tests: linear
  // probing degrades by growing clusters, and this is the direct measure
  // of that cliff. Thread-safe.
  size_t MaxProbeLength() const;

  // All registered principals in sorted order (the iteration order the old
  // std::map-backed database exposed — harvesting experiments rely on a
  // deterministic listing).
  std::vector<Principal> Principals() const;

  size_t size() const;

  // Advances on every mutation. A cache holding keys copied out of this store
  // is valid only while the generation it recorded still matches.
  uint64_t generation() const { return generation_.load(std::memory_order_acquire); }

  // Stable 64-bit hash of the principal tuple (FNV-1a over name, instance,
  // realm with separators). Exposed so derived-key caches hash only once.
  static uint64_t Hash(const Principal& principal);

 private:
  struct Slot {
    uint64_t hash = 0;
    bool used = false;
    Principal principal;
    PrincipalEntry entry;
  };
  // Padded to a cache line so one shard's lock traffic never invalidates a
  // neighbouring shard's line — with shards packed tight, a writer bouncing
  // shard s's mutex would also evict readers of shards s±1 (false sharing).
  struct alignas(64) Shard {
    mutable std::shared_mutex mu;
    std::vector<Slot> slots;  // power-of-two capacity
    size_t used = 0;
  };

  // Shard count is a power of two; the top hash bits pick the shard, the low
  // bits drive the probe sequence, so the two choices stay independent.
  static constexpr size_t kShardCount = 16;
  static constexpr size_t kInitialSlots = 16;

  static size_t ShardIndex(uint64_t hash) { return (hash >> 60) & (kShardCount - 1); }
  static Slot* FindSlot(std::vector<Slot>& slots, uint64_t hash, const Principal& principal);
  static void GrowLocked(Shard& shard);

  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> generation_{0};
};

}  // namespace krb4

#endif  // SRC_KRB4_PRINCIPAL_STORE_H_
