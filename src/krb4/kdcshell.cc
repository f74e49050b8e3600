#include "src/krb4/kdcshell.h"

namespace krb4 {

KdcShell::KdcShell(kobs::Source source, ksim::HostClock clock, std::string realm, KdcDatabase db)
    : source_(source),
      clock_(clock),
      realm_(std::move(realm)),
      tgs_principal_(TgsPrincipal(realm_)),
      db_(std::move(db)) {}

void KdcShell::EnablePkPreauth(kcrypto::DhGroup group) {
  kcrypto::EnsureEngine(group);
  pk_group_ = std::move(group);
}

const kcrypto::DhGroup* KdcShell::AdmitPkRequest() {
  if (!pk_group_.has_value()) {
    return nullptr;
  }
  pk_as_requests_.fetch_add(1, std::memory_order_relaxed);
  return &*pk_group_;
}

kerb::Result<kcrypto::DesKey> KdcShell::CachedLookup(const Principal& principal,
                                                     KdcContext& ctx) const {
  const uint64_t hash = PrincipalStore::Hash(principal);
  const uint64_t generation = db_.generation();
  kcrypto::DesKey key;
  if (ctx.keys.Get(generation, hash, principal, &key)) {
    if (kobs::Enabled()) {
      kobs::Emit(source_, kobs::Ev::kKdcKeyCacheHit, clock_.Now(), hash);
    }
    return key;
  }
  if (kobs::Enabled()) {
    kobs::Emit(source_, kobs::Ev::kKdcKeyCacheMiss, clock_.Now(), hash);
  }
  auto looked_up = db_.Lookup(principal);
  if (looked_up.ok()) {
    ctx.keys.Put(generation, hash, principal, looked_up.value());
  }
  return looked_up;
}

const kerb::Bytes* KdcShell::CachedReply(const ksim::Message& msg, KdcContext& ctx,
                                         ksim::Duration window) {
  if (window <= 0) {
    return nullptr;
  }
  const kerb::Bytes* cached = ctx.replies.Get(msg.src, msg.payload, clock_.Now(), window);
  if (cached != nullptr) {
    reply_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    if (kobs::Enabled()) {
      kobs::Emit(source_, kobs::Ev::kKdcReplyCacheHit, clock_.Now(), msg.src.host,
                 cached->size());
    }
  }
  return cached;
}

void KdcShell::RememberReply(const ksim::Message& msg, const kerb::Bytes& reply, KdcContext& ctx,
                             ksim::Duration window) {
  if (window <= 0) {
    return;
  }
  ctx.replies.Put(msg.src, msg.payload, reply, clock_.Now());
  if (kobs::Enabled()) {
    kobs::Emit(source_, kobs::Ev::kKdcReplyCacheStore, clock_.Now(), msg.src.host, reply.size());
  }
}

}  // namespace krb4
