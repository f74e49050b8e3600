// E16: the replay cache vs. legitimate retransmissions — plus the KDC-side
// fix this repo adds (the retransmit-safe reply cache) and the proof that it
// does not weaken the app-server authenticator replay defence.

#include "src/attacks/retransmit.h"

#include <gtest/gtest.h>

#include "src/attacks/testbed.h"
#include "src/attacks/testbed5.h"

namespace kattack {
namespace {

TEST(RetransmitE16Test, NaiveRetransmissionRaisesFalseAlarm) {
  RetransmitReport report = RunRetransmissionStudy(/*fresh_authenticator_per_retry=*/false);
  EXPECT_TRUE(report.first_attempt_lost);
  EXPECT_TRUE(report.server_acted_once);
  EXPECT_FALSE(report.retransmission_accepted)
      << "'Legitimate requests could be rejected, and a security alarm raised"
         " inappropriately.'";
  EXPECT_EQ(report.false_alarms, 1u);
}

TEST(RetransmitE16Test, FreshAuthenticatorPerRetryWorks) {
  RetransmitReport report = RunRetransmissionStudy(/*fresh_authenticator_per_retry=*/true);
  EXPECT_TRUE(report.first_attempt_lost);
  EXPECT_TRUE(report.retransmission_accepted)
      << "'generate a new authenticator when retransmitting a request'";
  EXPECT_EQ(report.false_alarms, 0u);
}

TEST(RetransmitE16Test, DeterministicAcrossSeeds) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    EXPECT_FALSE(RunRetransmissionStudy(false, seed).retransmission_accepted) << seed;
    EXPECT_TRUE(RunRetransmissionStudy(true, seed).retransmission_accepted) << seed;
  }
}

// ---------------------------------------------------------------------------
// The KDC reply cache: identical retransmissions get identical bytes.

// Captures the request bytes of alice's login session and returns them by
// destination. Works on a Testbed4 or a Testbed5.
template <typename Testbed>
ksim::Message CaptureRequestTo(Testbed& bed, const ksim::NetAddress& dst) {
  ksim::RecordingAdversary recorder;
  bed.world().network().SetAdversary(&recorder);
  EXPECT_TRUE(bed.alice().Login(Testbed::kAlicePassword).ok());
  EXPECT_TRUE(bed.alice().GetServiceTicket(bed.mail_principal()).ok());
  bed.world().network().SetAdversary(nullptr);
  for (const auto& exchange : recorder.exchanges()) {
    if (exchange.request.dst == dst) {
      return exchange.request;
    }
  }
  ADD_FAILURE() << "no request captured to " << dst.ToString();
  return {};
}

TEST(KdcReplyCacheTest, DuplicateAsRequestGetsIdenticalBytesNotASecondTicket) {
  TestbedConfig config;
  config.kdc_reply_cache_window = 30 * ksim::kSecond;
  Testbed4 bed(config);
  ksim::Message as_req = CaptureRequestTo(bed, Testbed4::kAsAddr);

  auto first = bed.world().network().Call(as_req.src, as_req.dst, as_req.payload);
  auto second = bed.world().network().Call(as_req.src, as_req.dst, as_req.payload);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Byte-identical reply: same session key, same ticket — the KDC acted
  // once. Without the cache each call would mint a fresh session key and
  // the replies would diverge.
  EXPECT_EQ(first.value(), second.value());
  EXPECT_GE(bed.kdc().core().reply_cache_hits(), 1u);
}

TEST(KdcReplyCacheTest, DuplicateTgsRequestGetsIdenticalBytes) {
  TestbedConfig config;
  config.kdc_reply_cache_window = 30 * ksim::kSecond;
  Testbed4 bed(config);
  ksim::Message tgs_req = CaptureRequestTo(bed, Testbed4::kTgsAddr);

  auto replay = bed.world().network().Call(tgs_req.src, tgs_req.dst, tgs_req.payload);
  ASSERT_TRUE(replay.ok());
  uint64_t hits = bed.kdc().core().reply_cache_hits();
  EXPECT_GE(hits, 1u);
  auto again = bed.world().network().Call(tgs_req.src, tgs_req.dst, tgs_req.payload);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(replay.value(), again.value());
}

TEST(KdcReplyCacheTest, DifferentSourceAddressMisses) {
  // The cache keys on (claimed source, request bytes): the same bytes from
  // another host are a new request, answered with a fresh ticket.
  TestbedConfig config;
  config.kdc_reply_cache_window = 30 * ksim::kSecond;
  Testbed4 bed(config);
  ksim::Message as_req = CaptureRequestTo(bed, Testbed4::kAsAddr);

  auto original = bed.world().network().Call(as_req.src, as_req.dst, as_req.payload);
  uint64_t hits_before = bed.kdc().core().reply_cache_hits();
  auto elsewhere =
      bed.world().network().Call(Testbed4::kEveAddr, as_req.dst, as_req.payload);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(elsewhere.ok());
  EXPECT_EQ(bed.kdc().core().reply_cache_hits(), hits_before);
  EXPECT_NE(original.value(), elsewhere.value()) << "fresh issue expected on a miss";
}

TEST(KdcReplyCacheTest, EntriesExpireAfterTheFreshnessWindow) {
  TestbedConfig config;
  config.kdc_reply_cache_window = 30 * ksim::kSecond;
  Testbed4 bed(config);
  ksim::Message as_req = CaptureRequestTo(bed, Testbed4::kAsAddr);

  auto first = bed.world().network().Call(as_req.src, as_req.dst, as_req.payload);
  bed.world().clock().Advance(config.kdc_reply_cache_window + ksim::kSecond);
  uint64_t hits_before = bed.kdc().core().reply_cache_hits();
  auto stale = bed.world().network().Call(as_req.src, as_req.dst, as_req.payload);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(bed.kdc().core().reply_cache_hits(), hits_before)
      << "the cache answers retransmissions, not history";
  EXPECT_NE(first.value(), stale.value());
}

TEST(KdcReplyCacheTest, DisabledByDefault) {
  // With the default zero window, duplicated AS requests each mint a ticket
  // — the historical behaviour every pinned-bytes test depends on.
  Testbed4 bed;
  ksim::Message as_req = CaptureRequestTo(bed, Testbed4::kAsAddr);
  auto a = bed.world().network().Call(as_req.src, as_req.dst, as_req.payload);
  auto b = bed.world().network().Call(as_req.src, as_req.dst, as_req.payload);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(bed.kdc().core().reply_cache_hits(), 0u);
}

TEST(KdcReplyCacheTest, V5WindowSetOnTheLiveKdcTakesEffect) {
  // The V5 policy stays mutable after construction, and the KDC reads the
  // reply window on every request: enabling the cache on a running Kdc5
  // makes the very next duplicate a hit, answered with identical bytes.
  Testbed5 bed;
  ksim::Message as_req = CaptureRequestTo(bed, Testbed5::kAsAddr);
  krb5::KdcCore5& core = bed.kdc().core();

  auto a = bed.world().network().Call(as_req.src, as_req.dst, as_req.payload);
  auto b = bed.world().network().Call(as_req.src, as_req.dst, as_req.payload);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value(), b.value()) << "window 0: each duplicate mints a ticket";
  EXPECT_EQ(core.reply_cache_hits(), 0u);

  bed.kdc().policy().reply_cache_window = 30 * ksim::kSecond;
  auto first = bed.world().network().Call(as_req.src, as_req.dst, as_req.payload);
  auto second = bed.world().network().Call(as_req.src, as_req.dst, as_req.payload);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());
  EXPECT_EQ(core.reply_cache_hits(), 1u);
}

TEST(KdcReplyCacheTest, DoesNotWeakenAppServerReplayDetection) {
  // The pairing that matters: absorbing KDC retransmissions must not blunt
  // the paper's authenticator replay defence at the application server. With
  // the reply cache on and the server replay cache on, a wiretapped AP
  // request replayed by eve is still rejected.
  TestbedConfig config;
  config.kdc_reply_cache_window = 30 * ksim::kSecond;
  config.server_replay_cache = true;
  Testbed4 bed(config);

  ksim::RecordingAdversary recorder;
  bed.world().network().SetAdversary(&recorder);
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  ASSERT_TRUE(
      bed.alice().CallService(Testbed4::kMailAddr, bed.mail_principal(), true).ok());
  bed.world().network().SetAdversary(nullptr);

  const ksim::Message* ap_req = nullptr;
  for (const auto& exchange : recorder.exchanges()) {
    if (exchange.request.dst == Testbed4::kMailAddr) {
      ap_req = &exchange.request;
    }
  }
  ASSERT_NE(ap_req, nullptr);

  size_t served_before = bed.mail_log().size();
  auto replay = bed.world().network().Call(ap_req->src, ap_req->dst, ap_req->payload);
  EXPECT_FALSE(replay.ok()) << "replayed authenticator accepted";
  EXPECT_EQ(bed.mail_log().size(), served_before) << "the server acted on a replay";
}

}  // namespace
}  // namespace kattack
