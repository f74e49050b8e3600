#include "src/attacks/chaos.h"

#include <limits>
#include <string>

#include "src/attacks/testbed.h"
#include "src/attacks/testbed5.h"
#include "src/common/bytes.h"

namespace kattack {

namespace {

ksim::FaultPlan PlanFor(const ChaosConfig& config) {
  ksim::FaultPlan plan;
  plan.link.drop_request = config.drop;
  plan.link.drop_reply = config.drop;
  plan.link.duplicate_request = config.duplicate;
  plan.link.reorder_request = config.reorder;
  plan.link.corrupt_request = config.corrupt;
  plan.link.corrupt_reply = config.corrupt;
  plan.link.delay = config.delay;
  plan.link.delay_jitter = config.delay_jitter;
  return plan;
}

void Classify(kerb::ErrorCode code, ChaosReport& report) {
  if (code == kerb::ErrorCode::kInternal) {
    ++report.internal_errors;
  } else {
    ++report.failed_closed;
  }
}

// Scripts the primary-KDC outage over the middle third of the exchange
// schedule by mutating the live plan — deterministic because the loop index,
// not wall time, decides the boundaries.
void UpdateBlackout(const ChaosConfig& config, int exchange, uint32_t kdc_host,
                    ksim::FaultyNetwork* faults) {
  if (!config.primary_blackout || faults == nullptr) return;
  const int start = config.exchanges / 3;
  const int end = 2 * config.exchanges / 3;
  if (exchange == start) {
    faults->plan().blackouts.push_back(
        ksim::Blackout{kdc_host, 0, std::numeric_limits<ksim::Time>::max()});
  } else if (exchange == end) {
    faults->plan().blackouts.clear();
  }
}

// Shared per-exchange skeleton: ensure a login, run one mail call through
// `call_mail`, compare against the expected honest payload. The V4/V5
// studies differ only in the client objects and encodings.
template <typename LoginFn, typename CallFn>
void DriveExchanges(const ChaosConfig& config, ksim::SimClock& clock, uint32_t kdc_host,
                    ksim::FaultyNetwork* faults, bool& logged_in, LoginFn login,
                    CallFn call_mail, const std::string& expected, ChaosReport& report) {
  for (int i = 0; i < config.exchanges; ++i) {
    UpdateBlackout(config, i, kdc_host, faults);
    ++report.attempted;

    // Periodically start a fresh session so AS exchanges stay in the
    // workload (and exercise the reply cache) throughout the run.
    if (i > 0 && i % 5 == 0) logged_in = false;

    if (!logged_in) {
      ++report.logins;
      kerb::Status st = login();
      if (!st.ok()) {
        // The whole exchange fails closed at the login step.
        Classify(st.code(), report);
        clock.Advance(2 * ksim::kSecond);
        continue;
      }
      logged_in = true;
    }

    kerb::Result<kerb::Bytes> reply = call_mail();
    if (reply.ok()) {
      if (kerb::ToString(reply.value()) == expected) {
        ++report.succeeded;
      } else {
        ++report.bad_successes;  // accepted bytes nobody honest sent
      }
    } else {
      Classify(reply.code(), report);
    }
    clock.Advance(2 * ksim::kSecond);
  }
}

void FillNetworkReport(ksim::FaultyNetwork* faults, uint32_t kdc_host, int slaves,
                       ChaosReport& report) {
  if (faults == nullptr) return;
  report.net = faults->stats();
  report.schedule_digest = faults->schedule_digest();
  report.kdc_divergences = faults->divergences_at(kdc_host);
  for (int i = 0; i < slaves; ++i) {
    report.kdc_divergences += faults->divergences_at(kdc_host + 1 + static_cast<uint32_t>(i));
  }
}

}  // namespace

ChaosReport RunChaosStudy4(const ChaosConfig& config) {
  TestbedConfig tb;
  tb.seed = config.seed;
  tb.faults = PlanFor(config);
  tb.kdc_slaves = config.kdc_slaves;
  tb.client_retry = config.retry;
  tb.kdc_reply_cache_window = config.kdc_reply_cache_window;
  tb.server_replay_cache = config.server_replay_cache;
  Testbed4 bed(tb);

  ChaosReport report;
  const uint32_t kdc_host = Testbed4::kAsAddr.host;
  bool logged_in = false;
  DriveExchanges(
      config, bed.world().clock(), kdc_host, bed.world().faults(), logged_in,
      [&] {
        bed.alice().Logout();
        return bed.alice().Login(Testbed4::kAlicePassword);
      },
      [&] {
        return bed.alice().CallService(Testbed4::kMailAddr, bed.mail_principal(),
                                       /*want_mutual=*/true);
      },
      "You have 3 messages.", report);

  FillNetworkReport(bed.world().faults(), kdc_host, bed.kdc_replicas().slave_count(), report);
  report.kdc_reply_cache_hits = bed.kdc().core().reply_cache_hits();
  for (int i = 0; i < bed.kdc_replicas().slave_count(); ++i) {
    report.kdc_reply_cache_hits += bed.kdc_replicas().slave(i).core().reply_cache_hits();
  }
  report.retry = bed.alice().retry_stats();
  return report;
}

ChaosReport RunChaosStudy5(const ChaosConfig& config) {
  Testbed5Config tb;
  tb.seed = config.seed;
  tb.faults = PlanFor(config);
  tb.kdc_slaves = config.kdc_slaves;
  tb.client_retry = config.retry;
  tb.kdc_policy.reply_cache_window = config.kdc_reply_cache_window;
  tb.kdc_policy.require_preauth = config.preauth;
  tb.client_options.use_preauth = config.preauth;
  tb.server_options.replay_cache = config.server_replay_cache;
  Testbed5 bed(tb);

  ChaosReport report;
  const uint32_t kdc_host = Testbed5::kAsAddr.host;
  bool logged_in = false;
  DriveExchanges(
      config, bed.world().clock(), kdc_host, bed.world().faults(), logged_in,
      [&] {
        bed.alice().Logout();
        return bed.alice().Login(Testbed5::kAlicePassword);
      },
      [&]() -> kerb::Result<kerb::Bytes> {
        auto result = bed.alice().CallService(Testbed5::kMailAddr, bed.mail_principal(),
                                              /*want_mutual=*/true);
        if (!result.ok()) return result.error();
        return std::move(result).value().app_reply;
      },
      "mail-ok: mail-check", report);

  FillNetworkReport(bed.world().faults(), kdc_host, bed.kdc_replicas().slave_count(), report);
  report.kdc_reply_cache_hits = bed.kdc().core().reply_cache_hits();
  for (int i = 0; i < bed.kdc_replicas().slave_count(); ++i) {
    report.kdc_reply_cache_hits += bed.kdc_replicas().slave(i).core().reply_cache_hits();
  }
  report.retry = bed.alice().retry_stats();
  return report;
}

}  // namespace kattack
