#include "src/krb4/principal_store.h"

#include <algorithm>
#include <mutex>
#include <utility>

namespace krb4 {

namespace {

void HashField(uint64_t& h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  // Separator so ("ab","c") and ("a","bc") hash differently.
  h ^= 0xff;
  h *= 0x100000001b3ull;
}

}  // namespace

uint64_t PrincipalStore::Hash(const Principal& principal) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  HashField(h, principal.name);
  HashField(h, principal.instance);
  HashField(h, principal.realm);
  return h;
}

PrincipalStore::PrincipalStore() : shards_(new Shard[kShardCount]) {
  for (size_t s = 0; s < kShardCount; ++s) {
    shards_[s].slots.resize(kInitialSlots);
  }
}

PrincipalStore::PrincipalStore(const PrincipalStore& other) : shards_(new Shard[kShardCount]) {
  for (size_t s = 0; s < kShardCount; ++s) {
    std::shared_lock lock(other.shards_[s].mu);
    shards_[s].slots = other.shards_[s].slots;
    shards_[s].used = other.shards_[s].used;
  }
  generation_.store(other.generation_.load(std::memory_order_acquire), std::memory_order_release);
}

PrincipalStore& PrincipalStore::operator=(const PrincipalStore& other) {
  if (this != &other) {
    PrincipalStore copy(other);
    *this = std::move(copy);
  }
  return *this;
}

PrincipalStore::PrincipalStore(PrincipalStore&& other) noexcept
    : shards_(std::move(other.shards_)),
      generation_(other.generation_.load(std::memory_order_acquire)) {}

PrincipalStore& PrincipalStore::operator=(PrincipalStore&& other) noexcept {
  shards_ = std::move(other.shards_);
  generation_.store(other.generation_.load(std::memory_order_acquire), std::memory_order_release);
  return *this;
}

PrincipalStore::Slot* PrincipalStore::FindSlot(std::vector<Slot>& slots, uint64_t hash,
                                               const Principal& principal) {
  const size_t mask = slots.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    Slot& slot = slots[i];
    if (!slot.used || (slot.hash == hash && slot.principal == principal)) {
      return &slot;
    }
  }
}

void PrincipalStore::GrowLocked(Shard& shard) {
  std::vector<Slot> bigger(shard.slots.size() * 2);
  for (Slot& old : shard.slots) {
    if (old.used) {
      *FindSlot(bigger, old.hash, old.principal) = std::move(old);
    }
  }
  shard.slots = std::move(bigger);
}

void PrincipalStore::Reserve(size_t expected_entries) {
  // Per-shard target capacity: the expected share of the population (with
  // headroom for hash imbalance across shards), held strictly below the
  // 3/4 growth threshold, rounded up to a power of two.
  const size_t per_shard = expected_entries / kShardCount + 1;
  const size_t with_headroom = per_shard + per_shard / 4;
  size_t target = kInitialSlots;
  while (target * 3 < with_headroom * 4) {
    target *= 2;
  }
  for (size_t s = 0; s < kShardCount; ++s) {
    Shard& shard = shards_[s];
    std::unique_lock lock(shard.mu);
    while (shard.slots.size() < target) {
      GrowLocked(shard);  // doubles; loops straight to the target size
    }
  }
}

size_t PrincipalStore::MaxProbeLength() const {
  size_t worst = 0;
  for (size_t s = 0; s < kShardCount; ++s) {
    const Shard& shard = shards_[s];
    std::shared_lock lock(shard.mu);
    const size_t mask = shard.slots.size() - 1;
    for (size_t i = 0; i < shard.slots.size(); ++i) {
      const Slot& slot = shard.slots[i];
      if (!slot.used) {
        continue;
      }
      const size_t home = slot.hash & mask;
      const size_t probes = ((i - home) & mask) + 1;
      worst = std::max(worst, probes);
    }
  }
  return worst;
}

void PrincipalStore::Upsert(const Principal& principal, const kcrypto::DesKey& key,
                            PrincipalKind kind) {
  PrincipalEntry entry;
  entry.kind = kind;
  entry.keys.push_back(KeyVersion{1, key, 0});
  UpsertEntry(principal, entry);
}

bool PrincipalStore::UpsertEntry(const Principal& principal, const PrincipalEntry& entry) {
  if (entry.keys.empty()) {
    return false;  // a principal without a current key would be unservable
  }
  const uint64_t hash = Hash(principal);
  Shard& shard = shards_[ShardIndex(hash)];
  {
    std::unique_lock lock(shard.mu);
    // Grow before probing so the load factor stays below 3/4 and probe
    // chains stay short.
    if ((shard.used + 1) * 4 > shard.slots.size() * 3) {
      GrowLocked(shard);
    }
    Slot* slot = FindSlot(shard.slots, hash, principal);
    if (!slot->used) {
      slot->used = true;
      slot->hash = hash;
      slot->principal = principal;
      ++shard.used;
    }
    slot->entry = entry;
  }
  generation_.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

bool PrincipalStore::LookupEntry(const Principal& principal, PrincipalEntry* entry_out) const {
  const uint64_t hash = Hash(principal);
  const Shard& shard = shards_[ShardIndex(hash)];
  std::shared_lock lock(shard.mu);
  const size_t mask = shard.slots.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = shard.slots[i];
    if (!slot.used) {
      return false;
    }
    if (slot.hash == hash && slot.principal == principal) {
      if (entry_out != nullptr) {
        *entry_out = slot.entry;
      }
      return true;
    }
  }
}

bool PrincipalStore::Erase(const Principal& principal) {
  const uint64_t hash = Hash(principal);
  Shard& shard = shards_[ShardIndex(hash)];
  {
    std::unique_lock lock(shard.mu);
    const size_t mask = shard.slots.size() - 1;
    size_t hole = hash & mask;
    for (;; hole = (hole + 1) & mask) {
      Slot& slot = shard.slots[hole];
      if (!slot.used) {
        return false;
      }
      if (slot.hash == hash && slot.principal == principal) {
        break;
      }
    }
    // Backward-shift deletion: walk the rest of the probe cluster and pull
    // each entry back into the hole when its home position permits —
    // i.e. when the hole lies on the entry's probe path (home ... j). This
    // keeps every surviving entry reachable without tombstones.
    for (size_t j = (hole + 1) & mask;; j = (j + 1) & mask) {
      Slot& candidate = shard.slots[j];
      if (!candidate.used) {
        break;
      }
      const size_t home = candidate.hash & mask;
      if (((hole - home) & mask) <= ((j - home) & mask)) {
        shard.slots[hole] = std::move(candidate);
        candidate = Slot{};
        hole = j;
      }
    }
    shard.slots[hole] = Slot{};
    --shard.used;
  }
  generation_.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

bool PrincipalStore::Lookup(const Principal& principal, kcrypto::DesKey* key_out,
                            PrincipalKind* kind_out) const {
  const uint64_t hash = Hash(principal);
  const Shard& shard = shards_[ShardIndex(hash)];
  std::shared_lock lock(shard.mu);
  const size_t mask = shard.slots.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = shard.slots[i];
    if (!slot.used) {
      return false;
    }
    if (slot.hash == hash && slot.principal == principal) {
      if (key_out != nullptr) {
        *key_out = slot.entry.keys.front().key;
      }
      if (kind_out != nullptr) {
        *kind_out = slot.entry.kind;
      }
      return true;
    }
  }
}

std::vector<Principal> PrincipalStore::Principals() const {
  std::vector<Principal> out;
  for (size_t s = 0; s < kShardCount; ++s) {
    std::shared_lock lock(shards_[s].mu);
    for (const Slot& slot : shards_[s].slots) {
      if (slot.used) {
        out.push_back(slot.principal);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t PrincipalStore::size() const {
  size_t total = 0;
  for (size_t s = 0; s < kShardCount; ++s) {
    std::shared_lock lock(shards_[s].mu);
    total += shards_[s].used;
  }
  return total;
}

}  // namespace krb4
