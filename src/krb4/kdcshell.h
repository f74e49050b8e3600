// The serving shell the V4 and V5 KDC cores share.
//
// Both cores (src/krb4/kdccore.h, src/krb5/kdccore.h) wrap their protocol
// logic in the same shell: count the request, answer a fresh duplicate from
// the reply cache, run the exchange, remember a successful reply, and
// bracket it all in request and issue/deny trace events. Keys come through
// the per-context key cache, presented TGTs through the unseal memo with
// the kvno-ring fallback. KdcShell holds that code once, keyed by the kobs
// source its core emits under; the cores add only the exchanges themselves.
//
// The shell holds only state that is safe to share: the sharded principal
// store (reader-locked), the PK-preauth group (read-only once serving
// starts) and atomic request counters. Everything per-request — the PRNG
// stream, the derived-key cache, the memos, the encode scratch buffers —
// lives in the caller-owned KdcContext, so handlers never contend on
// anything but the store's shard locks.

#ifndef SRC_KRB4_KDCSHELL_H_
#define SRC_KRB4_KDCSHELL_H_

#include <algorithm>
#include <any>
#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "src/crypto/dh.h"
#include "src/crypto/prng.h"
#include "src/krb4/database.h"
#include "src/obs/kobs.h"
#include "src/sim/clock.h"
#include "src/sim/network.h"

namespace krb4 {

// Small direct-mapped cache of keys copied out of the principal store,
// validated against the store's generation counter so post-construction
// registrations (several attack scenarios add services mid-run) invalidate
// it automatically. Returns keys by value: a later insert may overwrite any
// slot, so references into the cache would dangle within one request.
class KdcKeyCache {
 public:
  bool Get(uint64_t generation, uint64_t hash, const Principal& principal,
           kcrypto::DesKey* key_out) const {
    const Slot& slot = slots_[hash % kSlots];
    if (slot.used && slot.generation == generation && slot.hash == hash &&
        slot.principal == principal) {
      *key_out = slot.key;
      return true;
    }
    return false;
  }

  void Put(uint64_t generation, uint64_t hash, const Principal& principal,
           const kcrypto::DesKey& key) {
    Slot& slot = slots_[hash % kSlots];
    slot.used = true;
    slot.generation = generation;
    slot.hash = hash;
    slot.principal = principal;
    slot.key = key;
  }

 private:
  static constexpr size_t kSlots = 64;
  struct Slot {
    uint64_t generation = 0;
    uint64_t hash = 0;
    bool used = false;
    Principal principal;
    kcrypto::DesKey key;
  };
  std::array<Slot, kSlots> slots_;
};

// Direct-mapped slot for `bytes` among `slots` (a power of two): the last
// 8 bytes (fewer when shorter) xor `seed`, through the MurmurHash3 64-bit
// finalizer so every input bit reaches the slot bits. Callers compare the
// full bytes on lookup, so a collision only costs a miss.
inline size_t SlotOfTail(kerb::BytesView bytes, uint64_t seed, size_t slots) {
  uint64_t h = seed;
  for (size_t i = bytes.size() - std::min<size_t>(bytes.size(), 8); i < bytes.size(); ++i) {
    h = (h << 8) ^ (h >> 56) ^ bytes[i];
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return static_cast<size_t>(h) & (slots - 1);
}

// Memo of deterministic unseal results, keyed by (tag, sealing key,
// ciphertext). A KDC sees the same sealed TGT on every ticket-granting
// request a client makes for the lifetime of its login session; decrypting
// and decoding it is a pure function of key and ciphertext, so the decoded
// ticket can be reused instead of re-unsealed. Only constant-per-session
// blobs belong here — never authenticators or preauth data, which change
// per request in real traffic. Direct-mapped; the stored ciphertext and key
// bytes are compared in full on lookup, so a hash collision costs a miss,
// never a wrong ticket. Failures are not cached (garbage varies).
class KdcUnsealMemo {
 public:
  template <typename T>
  const T* Get(uint32_t tag, const kcrypto::DesKey& key, kerb::BytesView sealed) const {
    const Entry& entry = entries_[Slot(sealed)];
    if (!entry.used || entry.tag != tag || entry.key_bytes != key.bytes() ||
        entry.sealed.size() != sealed.size() ||
        !std::equal(entry.sealed.begin(), entry.sealed.end(), sealed.begin())) {
      return nullptr;
    }
    return std::any_cast<T>(&entry.value);
  }

  template <typename T>
  const T* Put(uint32_t tag, const kcrypto::DesKey& key, kerb::BytesView sealed, T value) {
    Entry& entry = entries_[Slot(sealed)];
    entry.used = true;
    entry.tag = tag;
    entry.key_bytes = key.bytes();
    entry.sealed.assign(sealed.begin(), sealed.end());
    entry.value = std::move(value);
    return std::any_cast<T>(&entry.value);
  }

 private:
  static constexpr size_t kSlots = 16;

  // The slot comes from the final cipher block alone: under CBC and PCBC it
  // depends on every plaintext block, so it spreads tickets as well as a
  // hash of all the bytes would, at one load instead of ~170 multiplies.
  static size_t Slot(kerb::BytesView sealed) { return SlotOfTail(sealed, 0, kSlots); }

  struct Entry {
    bool used = false;
    uint32_t tag = 0;
    kcrypto::DesBlock key_bytes{};
    kerb::Bytes sealed;
    std::any value;
  };
  std::array<Entry, kSlots> entries_;
};

// Retransmit-safe reply memo, keyed by (claimed source, full request
// bytes). A client that never saw a reply resends the identical packet; a
// faulty network duplicates packets on its own. Either way the KDC must not
// issue twice: the duplicate gets the stored reply, byte for byte. Entries
// expire after a freshness window so the cache answers retransmissions, not
// history. Direct-mapped with full-bytes compare on lookup — a hash
// collision evicts, never mis-serves. Per-context like the other memos, so
// the serving path stays lock-free.
class KdcReplyCache {
 public:
  // Returns the cached reply for a fresh duplicate, or nullptr.
  const kerb::Bytes* Get(const ksim::NetAddress& src, kerb::BytesView request, ksim::Time now,
                         ksim::Duration window) const {
    const Entry& entry = entries_[Slot(src, request)];
    if (!entry.used || entry.src_host != src.host || entry.src_port != src.port ||
        now - entry.stored_at > window || entry.request.size() != request.size() ||
        !std::equal(entry.request.begin(), entry.request.end(), request.begin())) {
      return nullptr;
    }
    return &entry.reply;
  }

  void Put(const ksim::NetAddress& src, kerb::BytesView request, kerb::BytesView reply,
           ksim::Time now) {
    Entry& entry = entries_[Slot(src, request)];
    entry.used = true;
    entry.src_host = src.host;
    entry.src_port = src.port;
    entry.request.assign(request.begin(), request.end());
    entry.reply.assign(reply.begin(), reply.end());
    entry.stored_at = now;
  }

 private:
  static constexpr size_t kSlots = 16;

  // The request's last bytes — the end of its sealed authenticator or
  // preauth block, or the plaintext fields that follow it — mixed with the
  // claimed source and the length, as for the unseal memo.
  static size_t Slot(const ksim::NetAddress& src, kerb::BytesView request) {
    const uint64_t seed = (static_cast<uint64_t>(src.host) << 32) ^
                          (static_cast<uint64_t>(src.port) << 16) ^ request.size();
    return SlotOfTail(request, seed, kSlots);
  }

  struct Entry {
    bool used = false;
    uint32_t src_host = 0;
    uint16_t src_port = 0;
    kerb::Bytes request;
    kerb::Bytes reply;
    ksim::Time stored_at = 0;
  };
  std::array<Entry, kSlots> entries_;
};

// Reusable encode buffers. After the first few requests every buffer has
// its high-water capacity and the encode path stops allocating (the one
// exception is the reply handed back to the network, which the caller
// owns).
struct KdcScratch {
  kerb::Bytes ticket_plain;
  kerb::Bytes ticket_sealed;
  kerb::Bytes body_plain;
  kerb::Bytes body_sealed;
  kerb::Bytes pk_outer;  // DH-layer seal of body_sealed in the PK AS path
  kerb::Bytes reply;
};

// Everything one serving thread owns exclusively.
struct KdcContext {
  explicit KdcContext(kcrypto::Prng context_prng) : prng(context_prng) {}

  kcrypto::Prng prng;
  KdcKeyCache keys;
  KdcUnsealMemo unseals;
  KdcReplyCache replies;
  KdcScratch scratch;
};

class KdcShell {
 public:
  const std::string& realm() const { return realm_; }
  KdcDatabase& database() { return db_; }

  // Enables the public-key preauthenticated AS variant over `group`. Builds
  // the group's cached modexp engine — Montgomery context plus fixed-base
  // g^x comb table — up front, so every login the core serves afterwards
  // reuses it. Call before serving; the group is read-only once requests
  // flow.
  void EnablePkPreauth(kcrypto::DhGroup group);
  bool pk_preauth_enabled() const { return pk_group_.has_value(); }

  uint64_t as_requests_served() const { return as_requests_.load(std::memory_order_relaxed); }
  uint64_t pk_as_requests_served() const {
    return pk_as_requests_.load(std::memory_order_relaxed);
  }
  uint64_t tgs_requests_served() const { return tgs_requests_.load(std::memory_order_relaxed); }
  uint64_t reply_cache_hits() const { return reply_cache_hits_.load(std::memory_order_relaxed); }

 protected:
  KdcShell(kobs::Source source, ksim::HostClock clock, std::string realm, KdcDatabase db);

  // Serves one exchange: counts it, answers a fresh duplicate from the
  // context's reply cache, else runs `serve(msg, ctx)` and remembers a
  // successful reply. `reply_window` is the core's current setting (zero
  // disables the cache), read per call so a policy changed after
  // construction takes effect. With a kobs::Trace installed the exchange
  // is bracketed in request and issue/deny events.
  template <typename Serve>
  kerb::Result<kerb::Bytes> Handle(bool tgs, const ksim::Message& msg, KdcContext& ctx,
                                   ksim::Duration reply_window, Serve serve);

  // db_.Lookup through the context's generation-checked key cache.
  kerb::Result<kcrypto::DesKey> CachedLookup(const Principal& principal, KdcContext& ctx) const;

  // The decoded TGT sealed in `sealed`, through the context's unseal memo.
  // The same sealed TGT arrives on every request of a client's session, so
  // the decoded ticket is memoised (the caller still checks expiry).
  // `unseal(key)` decodes under one key. With `kvno_fallback`, a TGT sealed
  // before a TGS key rotation keeps verifying under the retained older ring
  // versions until their not_after (the rotation drain window). Each
  // candidate key gets its own memo slot — the memo is keyed by key bytes,
  // so entries cached under an old version keep hitting after the current
  // version moves on. Null when no key opens it.
  template <typename Ticket, typename Unseal>
  const Ticket* UnsealTgt(uint32_t memo_tag, const kcrypto::DesKey& key, kerb::BytesView sealed,
                          bool kvno_fallback, KdcContext& ctx, Unseal unseal);

  // The PK-preauth group, counting the request as a PK AS request; null
  // (and not counted) when PK preauth is not enabled.
  const kcrypto::DhGroup* AdmitPkRequest();

  const kobs::Source source_;
  const ksim::HostClock clock_;
  const std::string realm_;
  const Principal tgs_principal_;
  KdcDatabase db_;

 private:
  // Serves a fresh duplicate from the context's reply cache, if enabled.
  const kerb::Bytes* CachedReply(const ksim::Message& msg, KdcContext& ctx,
                                 ksim::Duration window);
  // Remembers a successful reply for retransmission, if enabled.
  void RememberReply(const ksim::Message& msg, const kerb::Bytes& reply, KdcContext& ctx,
                     ksim::Duration window);

  // DH group for PK preauth, engine pre-built; immutable while serving, so
  // worker threads share it without locks.
  std::optional<kcrypto::DhGroup> pk_group_;
  std::atomic<uint64_t> as_requests_{0};
  std::atomic<uint64_t> pk_as_requests_{0};
  std::atomic<uint64_t> tgs_requests_{0};
  std::atomic<uint64_t> reply_cache_hits_{0};
};

template <typename Serve>
kerb::Result<kerb::Bytes> KdcShell::Handle(bool tgs, const ksim::Message& msg, KdcContext& ctx,
                                           ksim::Duration reply_window, Serve serve) {
  const bool traced = kobs::Enabled();
  if (traced) {
    kobs::Emit(source_, tgs ? kobs::Ev::kKdcTgsRequest : kobs::Ev::kKdcAsRequest, clock_.Now(),
               msg.src.host, msg.payload.size());
  }
  (tgs ? tgs_requests_ : as_requests_).fetch_add(1, std::memory_order_relaxed);
  const kerb::Bytes* cached = CachedReply(msg, ctx, reply_window);
  kerb::Result<kerb::Bytes> reply =
      cached != nullptr ? kerb::Result<kerb::Bytes>(*cached) : serve(msg, ctx);
  if (cached == nullptr && reply.ok()) {
    RememberReply(msg, reply.value(), ctx, reply_window);
  }
  if (traced) {
    const uint64_t exchange = tgs ? 1 : 0;
    if (reply.ok()) {
      kobs::Emit(source_, kobs::Ev::kKdcIssue, clock_.Now(), exchange, reply.value().size());
    } else {
      kobs::Emit(source_, kobs::Ev::kKdcDeny, clock_.Now(), exchange,
                 static_cast<uint64_t>(reply.error().code));
    }
  }
  return reply;
}

template <typename Ticket, typename Unseal>
const Ticket* KdcShell::UnsealTgt(uint32_t memo_tag, const kcrypto::DesKey& key,
                                  kerb::BytesView sealed, bool kvno_fallback, KdcContext& ctx,
                                  Unseal unseal) {
  const Ticket* tgt = ctx.unseals.Get<Ticket>(memo_tag, key, sealed);
  const ksim::Time now = clock_.Now();
  if (kobs::Enabled()) {
    kobs::Emit(source_, tgt != nullptr ? kobs::Ev::kKdcUnsealMemoHit : kobs::Ev::kKdcUnsealMemoMiss,
               now, sealed.size());
  }
  if (tgt != nullptr) {
    return tgt;
  }
  if (auto unsealed = unseal(key); unsealed.ok()) {
    return ctx.unseals.Put(memo_tag, key, sealed, std::move(unsealed.value()));
  }
  PrincipalEntry tgs_entry;
  if (!kvno_fallback || !db_.store().LookupEntry(tgs_principal_, &tgs_entry)) {
    return nullptr;
  }
  for (size_t i = 1; i < tgs_entry.keys.size(); ++i) {
    const KeyVersion& kv = tgs_entry.keys[i];
    if (kv.not_after != 0 && now > kv.not_after) {
      continue;
    }
    tgt = ctx.unseals.Get<Ticket>(memo_tag, kv.key, sealed);
    if (tgt == nullptr) {
      if (auto old_unsealed = unseal(kv.key); old_unsealed.ok()) {
        tgt = ctx.unseals.Put(memo_tag, kv.key, sealed, std::move(old_unsealed.value()));
      }
    }
    if (tgt != nullptr) {
      if (kobs::Enabled()) {
        kobs::Emit(source_, kobs::Ev::kKvnoOldKeyAccept, now, kv.kvno, i);
      }
      return tgt;
    }
  }
  return nullptr;
}

}  // namespace krb4

#endif  // SRC_KRB4_KDCSHELL_H_
