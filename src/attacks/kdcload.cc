#include "src/attacks/kdcload.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "src/crypto/checksum.h"
#include "src/encoding/io.h"

namespace kattack {

unsigned KdcWorkerThreads() {
  constexpr long kMaxThreads = 256;
  if (const char* env = std::getenv("KERB_KDC_THREADS")) {
    long v = std::strtol(env, nullptr, 10);
    if (v >= 1) {
      return static_cast<unsigned>(std::min(v, kMaxThreads));
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

KdcLoadResult RunKdcLoad(const KdcHandler& handler, const ksim::Message& request,
                         unsigned threads, uint64_t requests_per_worker, uint64_t seed) {
  if (threads == 0) {
    threads = 1;
  }
  // Contexts are forked on the calling thread so their PRNG streams are a
  // pure function of (seed, worker index), not of scheduling.
  kcrypto::Prng master(seed);
  std::vector<krb4::KdcContext> contexts;
  contexts.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    contexts.emplace_back(master.Fork());
  }

  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> failed{0};
  auto worker = [&](unsigned t) {
    uint64_t local_ok = 0;
    uint64_t local_failed = 0;
    for (uint64_t i = 0; i < requests_per_worker; ++i) {
      if (handler(request, contexts[t]).ok()) {
        ++local_ok;
      } else {
        ++local_failed;
      }
    }
    ok.fetch_add(local_ok, std::memory_order_relaxed);
    failed.fetch_add(local_failed, std::memory_order_relaxed);
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) {
    pool.emplace_back(worker, t);
  }
  worker(0);
  for (auto& th : pool) {
    th.join();
  }
  return KdcLoadResult{ok.load(), failed.load()};
}

kerb::Result<krb4::AsReplyBody4> DoPkLogin4(const KdcHandler& handler,
                                            const krb4::Principal& user,
                                            const kcrypto::DesKey& user_key,
                                            const kcrypto::DhGroup& group, ksim::Time now,
                                            krb4::KdcContext& kdc_ctx,
                                            kcrypto::Prng& client_prng,
                                            const ksim::NetAddress& src) {
  kcrypto::DhKeyPair client_pair = kcrypto::DhGenerate(group, client_prng);

  krb4::AsPkRequest4 req;
  req.client = user;
  req.service_realm = user.realm;
  req.lifetime = 8 * ksim::kHour;
  req.client_pub = client_pair.public_key.ToBytes();
  // Proof of possession: {timestamp, md4(g^a)}K_c. The KDC refuses PK
  // requests without it — see AsPkRequest4 in src/krb4/messages.h.
  kenc::Writer pa;
  pa.PutU64(static_cast<uint64_t>(now));
  pa.PutLengthPrefixed(
      kcrypto::ComputeChecksum(kcrypto::ChecksumType::kMd4, req.client_pub));
  req.sealed_padata = krb4::Seal4(user_key, pa.Take());

  ksim::Message msg;
  msg.src = src;
  msg.payload = krb4::Frame4(krb4::MsgType::kAsPkRequest, req.Encode());
  auto reply = handler(msg, kdc_ctx);
  if (!reply.ok()) {
    return reply.error();
  }

  auto framed = krb4::Unframe4(reply.value());
  if (!framed.ok() || framed.value().first != krb4::MsgType::kAsPkReply) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "expected PK AS reply");
  }
  auto rep = krb4::AsPkReply4::Decode(framed.value().second);
  if (!rep.ok()) {
    return rep.error();
  }
  kcrypto::BigInt server_pub = kcrypto::BigInt::FromBytes(rep.value().server_pub);
  if (auto valid = kcrypto::ValidateDhPublic(group, server_pub); !valid.ok()) {
    return valid.error();
  }
  kcrypto::DesKey dh_key = kcrypto::DhDeriveKey(
      kcrypto::DhSharedSecret(group, client_pair.private_key, server_pub));
  auto inner = krb4::Unseal4(dh_key, rep.value().sealed_reply);
  if (!inner.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "DH layer decryption failed");
  }
  auto plain = krb4::Unseal4(user_key, inner.value());
  if (!plain.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "password layer decryption failed");
  }
  return krb4::AsReplyBody4::Decode(plain.value());
}

PkLoginLoadResult RunPkLoginLoad(const KdcHandler& handler, const krb4::Principal& user,
                                 const kcrypto::DesKey& user_key, const kcrypto::DhGroup& group,
                                 ksim::Time now, unsigned threads, uint64_t logins_per_worker,
                                 uint64_t seed) {
  if (threads == 0) {
    threads = 1;
  }
  // Server contexts and client PRNGs forked on the calling thread, as in
  // RunKdcLoad: every stream is a pure function of (seed, worker index).
  kcrypto::Prng master(seed);
  std::vector<krb4::KdcContext> contexts;
  std::vector<kcrypto::Prng> client_prngs;
  contexts.reserve(threads);
  client_prngs.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    contexts.emplace_back(master.Fork());
    client_prngs.push_back(master.Fork());
  }

  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> failed{0};
  auto worker = [&](unsigned t) {
    // Distinct claimed sources per worker keep any reply cache honest.
    const ksim::NetAddress src{0x0a000000u + t, static_cast<uint16_t>(40000 + t)};
    uint64_t local_ok = 0;
    uint64_t local_failed = 0;
    for (uint64_t i = 0; i < logins_per_worker; ++i) {
      if (DoPkLogin4(handler, user, user_key, group, now, contexts[t], client_prngs[t], src)
              .ok()) {
        ++local_ok;
      } else {
        ++local_failed;
      }
    }
    ok.fetch_add(local_ok, std::memory_order_relaxed);
    failed.fetch_add(local_failed, std::memory_order_relaxed);
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) {
    pool.emplace_back(worker, t);
  }
  worker(0);
  for (auto& th : pool) {
    th.join();
  }
  return PkLoginLoadResult{ok.load(), failed.load()};
}

}  // namespace kattack
