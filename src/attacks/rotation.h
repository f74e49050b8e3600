// Experiment B15 — the admin plane under chaos: live key rotation, protected
// password change, and the kvno drain window.
//
// The scenario the 1991 paper could not run: rotate service keys and change
// passwords WHILE the realm serves traffic over a faulty network, with the
// primary KDC blacking out mid-change and propagation to the slaves delayed
// or paused. The invariants under test:
//
//   * An unexpired ticket sealed under a rotated-out key keeps working for
//     its whole drain window — zero hard failures for old-ticket holders.
//     (Transport exhaustion under heavy faults is failing CLOSED and is
//     allowed; a terminal authentication verdict against a valid old ticket
//     is a hard failure and must never happen.)
//   * A password change or rotation either applies exactly once or fails
//     closed — never half-applies, never applies twice across retries,
//     duplicates, or splices.
//   * After recovery (faults cleared, kprop cycles run), every replica
//     holds the same key rings, no replica ever held a half-applied ring,
//     and a crash+recover rebuild of the primary's durable store matches
//     the live database.
//
// Everything runs on the seeded PRNG and virtual clock: a report is a
// deterministic function of its config, which the guard test relies on.

#ifndef SRC_ATTACKS_ROTATION_H_
#define SRC_ATTACKS_ROTATION_H_

#include <cstdint>

#include "src/sim/faults.h"
#include "src/sim/retry.h"

namespace kattack {

struct RotationConfig {
  uint64_t seed = 20260807;
  int exchanges = 60;  // old-ticket mail calls driven through the chaos loop

  // Per-call fault probabilities (symmetric request/reply, as in B12).
  double drop = 0;
  double duplicate = 0;
  double reorder = 0;
  double corrupt = 0;
  ksim::Duration delay = 5 * ksim::kMillisecond;
  ksim::Duration delay_jitter = 20 * ksim::kMillisecond;

  // Deployment shape.
  int kdc_slaves = 1;
  bool primary_blackout = false;  // KDC+kadmin host dark for the middle third
  bool kprop_paused = false;      // no propagation cycles until recovery
  ksim::RetryPolicy retry;
  ksim::Duration kdc_reply_cache_window = 30 * ksim::kSecond;

  // Admin workload spread evenly across the run.
  int password_changes = 3;   // oper changes bob's password
  int service_rotations = 3;  // oper rotates the mail service key
};

struct RotationReport {
  // Goodput of the OLD ticket: alice fetched her mail ticket before the
  // first rotation and never refreshes it.
  uint64_t old_ticket_calls = 0;
  uint64_t old_ticket_successes = 0;
  uint64_t old_ticket_failed_closed = 0;  // transport/corruption exhaustion
  uint64_t old_ticket_hard_failures = 0;  // terminal auth verdict — must be 0
  uint64_t old_key_accepts = 0;           // mail server drain-window unseals

  // Fresh sessions (login + new service ticket) riding the same chaos.
  uint64_t fresh_calls = 0;
  uint64_t fresh_successes = 0;
  uint64_t fresh_failed_closed = 0;
  uint64_t fresh_hard_failures = 0;  // must also be 0
  // Replies accepted with non-honest bytes when corruption is configured:
  // V4 application payload is plaintext after the mutual-auth proof, so a
  // corrupted payload can reach the caller (the paper's KRB_SAFE/KRB_PRIV
  // gap). With corrupt == 0 such a reply is a forgery and counts as a
  // hard failure instead.
  uint64_t payload_corruptions = 0;

  // Admin-plane outcomes during the chaotic phase.
  uint64_t changes_attempted = 0;
  uint64_t changes_applied = 0;
  uint64_t changes_failed_closed = 0;
  uint64_t rotations_attempted = 0;
  uint64_t rotations_applied = 0;
  uint64_t rotations_failed_closed = 0;
  uint64_t admin_hard_failures = 0;  // terminal denial of a legitimate op — must be 0
  uint64_t ack_replays = 0;          // exactly-once cache hits across retries

  uint32_t bob_kvno = 0;   // final key versions at the primary
  uint32_t mail_kvno = 0;

  // Post-chaos probes, run with faults cleared; each must end up true.
  bool replay_served_from_cache = false;  // byte-identical replay: same bytes, no re-apply
  bool stale_replay_rejected = false;     // replay after the windows close
  bool intercept_rejected = false;        // honest bytes re-sent from eve's host
  bool tamper_rejected = false;           // bit-flipped sealed body
  bool splice_no_apply = false;           // nonce reuse with a different body
  bool old_password_rejected = false;     // pre-change password stops working
  bool new_password_accepted = false;     // exactly one live password, a changed one

  // Replica and durability consistency.
  bool rotation_atomic = false;      // no half-applied ring on any replica (pre-catchup)
  bool replicas_converged = false;   // post-propagation rings identical everywhere
  bool recovery_consistent = false;  // crash+recover rebuild == live primary db

  uint64_t kdc_divergences = 0;  // double-issue detector at KDC hosts — must be 0
  uint64_t schedule_digest = 0;  // FaultyNetwork schedule FNV (rerun-stable)
  ksim::FaultyNetwork::Stats net;
  ksim::RetryStats retry;  // alice's exchanger
};

// True when every invariant the harness checks held.
bool RotationInvariantsHold(const RotationReport& report);

RotationReport RunRotationStudy(const RotationConfig& config);

}  // namespace kattack

#endif  // SRC_ATTACKS_ROTATION_H_
