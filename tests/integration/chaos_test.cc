// Chaos study (experiment B12): the full V4 and V5 stacks under seeded
// fault injection — drops, duplicates, reordering, delay, corruption, and a
// scripted primary-KDC blackout with slave failover.
//
// The robustness invariant under test: every exchange either succeeds with
// exactly the honest payload or fails closed with a clean protocol error —
// never a fabricated acceptance, never an internal error, never a
// double-issued ticket at a KDC, and never a hang (the suite completing is
// itself the no-hang assertion; everything runs on virtual time).
//
// Every run is a deterministic function of (config, seed): the determinism
// tests replay a run and require byte-identical fault schedules (equal
// FNV-1a schedule digests) and equal counters.

#include <gtest/gtest.h>

#include "src/attacks/chaos.h"

namespace kattack {
namespace {

ChaosConfig SweepConfig(double rate, uint64_t seed) {
  ChaosConfig config;
  config.seed = seed;
  config.drop = rate;
  config.duplicate = rate;
  config.reorder = rate / 2;
  config.retry.max_attempts = 8;  // two failover rounds deep at 30% loss
  return config;
}

void CheckInvariants(const ChaosReport& report) {
  EXPECT_EQ(report.attempted, 40u);
  // Every exchange accounted for: clean success or clean failure.
  EXPECT_EQ(report.succeeded + report.failed_closed, report.attempted);
  EXPECT_EQ(report.bad_successes, 0u) << "accepted bytes nobody honest sent";
  EXPECT_EQ(report.internal_errors, 0u) << "invariant breach surfaced as kInternal";
  // The reply cache kept every duplicated KDC request idempotent: no
  // double-issued tickets anywhere in the replica set.
  EXPECT_EQ(report.kdc_divergences, 0u) << "a KDC answered a duplicate with fresh bytes";
}

void CheckSameRun(const ChaosReport& a, const ChaosReport& b) {
  EXPECT_EQ(a.schedule_digest, b.schedule_digest);
  EXPECT_EQ(a.succeeded, b.succeeded);
  EXPECT_EQ(a.failed_closed, b.failed_closed);
  EXPECT_EQ(a.logins, b.logins);
  EXPECT_EQ(a.net.calls, b.net.calls);
  EXPECT_EQ(a.net.requests_dropped, b.net.requests_dropped);
  EXPECT_EQ(a.net.duplicates_delivered, b.net.duplicates_delivered);
  EXPECT_EQ(a.retry.attempts, b.retry.attempts);
  EXPECT_EQ(a.retry.virtual_wait, b.retry.virtual_wait);
}

TEST(ChaosTest, LosslessRunSucceedsCompletely) {
  ChaosConfig config;
  config.drop = config.duplicate = config.reorder = config.corrupt = 0;
  for (bool v5 : {false, true}) {
    ChaosReport report = v5 ? RunChaosStudy5(config) : RunChaosStudy4(config);
    CheckInvariants(report);
    EXPECT_EQ(report.succeeded, report.attempted);
    EXPECT_EQ(report.retry.retries, 0u);
  }
}

TEST(ChaosTest, V4SurvivesFaultSweep) {
  for (double rate : {0.05, 0.10, 0.20, 0.30}) {
    ChaosReport report = RunChaosStudy4(SweepConfig(rate, 1000 + uint64_t(rate * 100)));
    CheckInvariants(report);
    // The retry stack must be earning its keep, not coasting on luck.
    EXPECT_GT(report.succeeded, report.attempted / 2) << "rate " << rate;
    if (rate >= 0.10) {
      EXPECT_GT(report.retry.retries, 0u);
      EXPECT_GT(report.net.requests_dropped + report.net.replies_dropped, 0u);
    }
  }
}

TEST(ChaosTest, V5SurvivesFaultSweep) {
  for (double rate : {0.05, 0.10, 0.20, 0.30}) {
    ChaosReport report = RunChaosStudy5(SweepConfig(rate, 2000 + uint64_t(rate * 100)));
    CheckInvariants(report);
    EXPECT_GT(report.succeeded, report.attempted / 2) << "rate " << rate;
  }
}

TEST(ChaosTest, DuplicatedKdcTrafficHitsTheReplyCache) {
  ChaosConfig config = SweepConfig(0.0, 77);
  config.duplicate = 0.5;  // only duplication: isolate the reply cache
  ChaosReport report = RunChaosStudy4(config);
  CheckInvariants(report);
  EXPECT_EQ(report.succeeded, report.attempted);  // duplication alone loses nothing
  EXPECT_GT(report.net.duplicates_delivered, 0u);
  EXPECT_GT(report.kdc_reply_cache_hits, 0u);
}

TEST(ChaosTest, CorruptionFailsClosedThroughTheTicketMachinery) {
  // Corruption exercises a different edge: every KDC and AP exchange is
  // integrity-protected, so flipped bits there fail closed (and retries
  // recover). The exception is V4/V5 application payload, which rides in
  // plaintext after the mutual-auth proof — the paper's point that data on
  // the session needs KRB_SAFE/KRB_PRIV, not just authentication. Such
  // corrupted payloads show up as bad_successes and are *expected* here;
  // what must never happen is an internal error or a double-issued ticket.
  ChaosConfig config;
  config.seed = 31;
  config.corrupt = 0.3;
  config.retry.max_attempts = 8;
  for (bool v5 : {false, true}) {
    ChaosReport report = v5 ? RunChaosStudy5(config) : RunChaosStudy4(config);
    EXPECT_EQ(report.succeeded + report.failed_closed + report.bad_successes,
              report.attempted);
    EXPECT_EQ(report.internal_errors, 0u);
    EXPECT_EQ(report.kdc_divergences, 0u);
    EXPECT_GT(report.succeeded, 0u);
    EXPECT_GT(report.net.requests_corrupted + report.net.replies_corrupted, 0u);
  }
}

TEST(ChaosTest, PrimaryBlackoutFailsOverToSlave) {
  ChaosConfig config;
  config.seed = 55;
  config.primary_blackout = true;  // KDC host dark for the middle third
  config.kdc_slaves = 1;
  for (bool v5 : {false, true}) {
    ChaosReport report = v5 ? RunChaosStudy5(config) : RunChaosStudy4(config);
    CheckInvariants(report);
    // With a slave standing by, the outage is invisible to goodput...
    EXPECT_EQ(report.succeeded, report.attempted);
    // ...but not to the failover machinery.
    EXPECT_GT(report.retry.failovers, 0u);
    EXPECT_GT(report.net.blackout_refusals, 0u);
  }
}

TEST(ChaosTest, BlackoutWithoutSlavesFailsClosed) {
  ChaosConfig config;
  config.seed = 56;
  config.primary_blackout = true;
  config.kdc_slaves = 0;
  ChaosReport report = RunChaosStudy4(config);
  CheckInvariants(report);
  EXPECT_GT(report.failed_closed, 0u);  // outage visible, but clean
  EXPECT_GT(report.succeeded, 0u);      // first and last thirds unaffected
}

TEST(ChaosTest, SameSeedSameSchedule) {
  ChaosConfig config = SweepConfig(0.25, 12345);
  config.primary_blackout = true;
  for (bool v5 : {false, true}) {
    ChaosReport first = v5 ? RunChaosStudy5(config) : RunChaosStudy4(config);
    ChaosReport second = v5 ? RunChaosStudy5(config) : RunChaosStudy4(config);
    CheckInvariants(first);
    CheckSameRun(first, second);

    ChaosConfig other = config;
    other.seed = 54321;
    ChaosReport third = v5 ? RunChaosStudy5(other) : RunChaosStudy4(other);
    EXPECT_NE(first.schedule_digest, third.schedule_digest);
  }
}

}  // namespace
}  // namespace kattack
