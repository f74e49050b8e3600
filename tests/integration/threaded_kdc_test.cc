// Threaded stress tests for the concurrent serving structures: the sharded
// principal store, the sharded replay cache, and the KdcCore4/KdcCore5
// worker-pool path through their shared serving shell. Run these under a
// TSan build to check the locking:
//   cmake -B build-tsan -S . -DKERB_SANITIZE=thread && ctest -L threaded
//
// The invariants asserted here are the ones a multi-threaded KDC needs:
// no upsert is ever lost, a replayed tuple is admitted exactly once no
// matter how many threads race on it, and the accept/reject decisions are
// independent of the worker count.

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/attacks/kdcload.h"
#include "src/attacks/testbed.h"
#include "src/attacks/testbed5.h"
#include "src/crypto/checksum.h"
#include "src/crypto/prng.h"
#include "src/crypto/str2key.h"
#include "src/krb4/messages.h"
#include "src/krb4/principal_store.h"
#include "src/krb5/enclayer.h"
#include "src/krb5/messages.h"
#include "src/sim/replaycache.h"

namespace {

using kattack::Testbed4;
using kattack::Testbed5;
using krb4::Principal;
using krb4::PrincipalKind;
using krb4::PrincipalStore;

constexpr unsigned kThreads = 8;

TEST(ThreadedKdcTest, PrincipalStoreConcurrentUpsertsLoseNothing) {
  constexpr int kPerThread = 200;
  PrincipalStore store;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&store, t] {
      kcrypto::Prng prng(1000 + t);
      for (int i = 0; i < kPerThread; ++i) {
        Principal p{"user" + std::to_string(t) + "_" + std::to_string(i), "", "ATHENA.SIM"};
        store.Upsert(p, prng.NextDesKey(), PrincipalKind::kUser);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }

  EXPECT_EQ(store.size(), kThreads * kPerThread);
  // Every write must be present with the exact key that was stored; the
  // per-thread PRNGs are re-run to reproduce the expected keys.
  for (unsigned t = 0; t < kThreads; ++t) {
    kcrypto::Prng prng(1000 + t);
    for (int i = 0; i < kPerThread; ++i) {
      Principal p{"user" + std::to_string(t) + "_" + std::to_string(i), "", "ATHENA.SIM"};
      kcrypto::DesKey expected = prng.NextDesKey();
      kcrypto::DesKey got;
      ASSERT_TRUE(store.Lookup(p, &got)) << "lost principal " << p.name;
      EXPECT_EQ(got.bytes(), expected.bytes()) << "wrong key for " << p.name;
    }
  }
}

TEST(ThreadedKdcTest, PrincipalStoreRacingUpsertsOnOneKeyKeepSomeWrite) {
  // All threads hammer the same principal; the surviving value must be one
  // of the written keys, never a torn mixture.
  PrincipalStore store;
  const Principal shared{"shared", "", "ATHENA.SIM"};
  std::vector<kcrypto::DesKey> written(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    written[t] = kcrypto::Prng(2000 + t).NextDesKey();
  }
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&store, &written, &shared, t] {
      for (int i = 0; i < 500; ++i) {
        store.Upsert(shared, written[t], PrincipalKind::kService);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  kcrypto::DesKey got;
  ASSERT_TRUE(store.Lookup(shared, &got));
  bool matches_some_write = false;
  for (const auto& key : written) {
    matches_some_write = matches_some_write || got.bytes() == key.bytes();
  }
  EXPECT_TRUE(matches_some_write);
  EXPECT_EQ(store.size(), 1u);
}

TEST(ThreadedKdcTest, ReplayCacheAdmitsEachTupleExactlyOnceUnderRace) {
  // Every thread presents the full tuple set; across all threads each tuple
  // must be admitted exactly once, so the accept total equals the tuple
  // count for ANY thread count — the thread-count-independence property.
  constexpr int kTuples = 256;
  for (unsigned threads : {1u, 4u, kThreads}) {
    ksim::ShardedReplayCache cache;
    std::atomic<uint64_t> accepted{0};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&cache, &accepted] {
        for (int i = 0; i < kTuples; ++i) {
          std::string identity = "client" + std::to_string(i % 16);
          uint32_t addr = 0x0a000000u + static_cast<uint32_t>(i);
          ksim::Time stamp = 1000 + i;
          if (cache.CheckAndInsert(identity, addr, stamp, /*now=*/2000, ksim::kMinute)) {
            accepted.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& w : workers) {
      w.join();
    }
    EXPECT_EQ(accepted.load(), static_cast<uint64_t>(kTuples)) << "threads=" << threads;
    // A second full pass must be rejected wholesale: everything is a replay.
    for (int i = 0; i < kTuples; ++i) {
      EXPECT_FALSE(cache.CheckAndInsert("client" + std::to_string(i % 16),
                                        0x0a000000u + static_cast<uint32_t>(i), 1000 + i,
                                        2000, ksim::kMinute));
    }
  }
}

// One exchange driven from the worker pool: a pre-encoded request, the
// core handler that serves it, and the core's counters to check.
struct PoolExchange {
  std::string name;
  ksim::Message request;
  kattack::KdcHandler handler;
  std::function<uint64_t()> served;
  std::function<uint64_t()> reply_cache_hits;
};

ksim::Message Request(const ksim::NetAddress& src, const ksim::NetAddress& dst,
                      kerb::Bytes payload, ksim::Time now) {
  ksim::Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.payload = std::move(payload);
  msg.sent_at = now;
  return msg;
}

// AS and TGS exchanges against a V4 testbed's core. The TGS request carries
// the TGT of one real AS exchange served through a separate context.
std::vector<PoolExchange> V4Exchanges(Testbed4& bed) {
  const ksim::Time now = bed.world().MakeHostClock().Now();
  krb4::KdcCore4* core = &bed.kdc().core();

  krb4::AsRequest4 as_req;
  as_req.client = bed.alice_principal();
  as_req.service_realm = bed.realm;
  as_req.lifetime = 4 * ksim::kHour;
  ksim::Message as_msg =
      Request(Testbed4::kAliceAddr, Testbed4::kAsAddr,
              krb4::Frame4(krb4::MsgType::kAsRequest, as_req.Encode()), now);

  krb4::KdcContext setup_ctx{kcrypto::Prng(0x5e74)};
  auto as_reply = core->HandleAs(as_msg, setup_ctx);
  EXPECT_TRUE(as_reply.ok());
  auto framed = krb4::Unframe4(as_reply.value());
  EXPECT_TRUE(framed.ok());
  const kcrypto::DesKey alice_key =
      kcrypto::StringToKey(Testbed4::kAlicePassword, bed.alice_principal().Salt());
  auto body = krb4::AsReplyBody4::Decode(krb4::Unseal4(alice_key, framed.value().second).value());
  EXPECT_TRUE(body.ok());
  const kcrypto::DesKey tgs_session(body.value().tgs_session_key);

  krb4::TgsRequest4 tgs_req;
  tgs_req.service = bed.mail_principal();
  tgs_req.sealed_tgt = body.value().sealed_tgt;
  krb4::Authenticator4 auth;
  auth.client = bed.alice_principal();
  auth.client_addr = Testbed4::kAliceAddr.host;
  auth.timestamp = now;
  tgs_req.sealed_auth = auth.Seal(tgs_session);
  tgs_req.lifetime = ksim::kHour;
  ksim::Message tgs_msg =
      Request(Testbed4::kAliceAddr, Testbed4::kTgsAddr,
              krb4::Frame4(krb4::MsgType::kTgsRequest, tgs_req.Encode()), now);

  auto hits = [core] { return core->reply_cache_hits(); };
  return {
      {"v4-as", as_msg,
       [core](const ksim::Message& m, krb4::KdcContext& c) { return core->HandleAs(m, c); },
       [core] { return core->as_requests_served(); }, hits},
      {"v4-tgs", tgs_msg,
       [core](const ksim::Message& m, krb4::KdcContext& c) { return core->HandleTgs(m, c); },
       [core] { return core->tgs_requests_served(); }, hits},
  };
}

// The V5 counterparts, against a Testbed5 core.
std::vector<PoolExchange> V5Exchanges(Testbed5& bed) {
  const ksim::Time now = bed.world().MakeHostClock().Now();
  krb5::KdcCore5* core = &bed.kdc().core();
  kcrypto::Prng prng(0x7e57);

  krb5::AsRequest5 as_req;
  as_req.client = bed.alice_principal();
  as_req.service_realm = bed.realm;
  as_req.lifetime = ksim::kHour;
  as_req.nonce = prng.NextU64();
  ksim::Message as_msg =
      Request(Testbed5::kAliceAddr, Testbed5::kAsAddr, as_req.ToTlv().Encode(), now);

  krb4::KdcContext setup_ctx{prng.Fork()};
  auto as_reply = core->HandleAs(as_msg, setup_ctx);
  EXPECT_TRUE(as_reply.ok());
  auto as_tlv = kenc::TlvMessage::DecodeExpecting(krb5::kMsgAsRep, as_reply.value());
  EXPECT_TRUE(as_tlv.ok());
  auto rep = krb5::AsReply5::FromTlv(as_tlv.value());
  EXPECT_TRUE(rep.ok());
  const kcrypto::DesKey alice_key =
      kcrypto::StringToKey(Testbed5::kAlicePassword, bed.alice_principal().Salt());
  auto part_tlv = krb5::UnsealTlv(alice_key, krb5::kMsgEncAsRepPart,
                                  rep.value().sealed_enc_part, krb5::EncLayerConfig{});
  EXPECT_TRUE(part_tlv.ok());
  auto part = krb5::EncAsRepPart5::FromTlv(part_tlv.value());
  EXPECT_TRUE(part.ok());
  const kcrypto::DesKey tgs_session(part.value().tgs_session_key);

  krb5::TgsRequest5 tgs_req;
  tgs_req.service = bed.mail_principal();
  tgs_req.lifetime = ksim::kHour;
  tgs_req.nonce = prng.NextU64();
  tgs_req.tgt_realm = bed.realm;
  tgs_req.sealed_tgt = rep.value().sealed_tgt;
  krb5::Authenticator5 auth;
  auth.client = bed.alice_principal();
  auth.timestamp = now;
  auth.checksum_type = kcrypto::ChecksumType::kCrc32;
  auth.request_checksum = kcrypto::ComputeChecksum(kcrypto::ChecksumType::kCrc32,
                                                   tgs_req.ChecksumInput(), tgs_session);
  tgs_req.sealed_authenticator = auth.Seal(tgs_session, krb5::EncLayerConfig{}, prng);
  ksim::Message tgs_msg =
      Request(Testbed5::kAliceAddr, Testbed5::kTgsAddr, tgs_req.ToTlv().Encode(), now);

  auto hits = [core] { return core->reply_cache_hits(); };
  return {
      {"v5-as", as_msg,
       [core](const ksim::Message& m, krb4::KdcContext& c) { return core->HandleAs(m, c); },
       [core] { return core->as_requests_served(); }, hits},
      {"v5-tgs", tgs_msg,
       [core](const ksim::Message& m, krb4::KdcContext& c) { return core->HandleTgs(m, c); },
       [core] { return core->tgs_requests_served(); }, hits},
  };
}

TEST(ThreadedKdcTest, ParallelKdcCoreServesEveryRequest) {
  // The worker-pool path (one KdcContext per worker) against live V4 and V5
  // cores, AS and TGS, with the reply cache off and on: every request must
  // be accepted regardless of pool size, and the shared serving shell's
  // counters must rise by exactly the request count. With the cache on,
  // each worker's first request is served and the rest are retransmits
  // answered from that worker's own context.
  constexpr uint64_t kPerWorker = 32;
  for (ksim::Duration window : {ksim::Duration{0}, ksim::kMinute}) {
    kattack::TestbedConfig config4;
    config4.kdc_reply_cache_window = window;
    Testbed4 bed4(config4);
    kattack::Testbed5Config config5;
    config5.kdc_policy.reply_cache_window = window;
    Testbed5 bed5(config5);

    std::vector<PoolExchange> exchanges = V4Exchanges(bed4);
    for (PoolExchange& e : V5Exchanges(bed5)) {
      exchanges.push_back(std::move(e));
    }
    for (const PoolExchange& e : exchanges) {
      for (unsigned threads : {1u, 2u, 4u, kThreads}) {
        const uint64_t served_before = e.served();
        const uint64_t hits_before = e.reply_cache_hits();
        auto result =
            kattack::RunKdcLoad(e.handler, e.request, threads, kPerWorker, 0xfeed + threads);
        SCOPED_TRACE(e.name + " window=" + std::to_string(window) +
                     " threads=" + std::to_string(threads));
        EXPECT_EQ(result.requests_failed, 0u);
        EXPECT_EQ(result.requests_ok, threads * kPerWorker);
        EXPECT_EQ(e.served() - served_before, threads * kPerWorker);
        EXPECT_EQ(e.reply_cache_hits() - hits_before,
                  window > 0 ? threads * (kPerWorker - 1) : 0u);
      }
    }
  }
}

}  // namespace
