// Thread-safe V4 KDC serving core.
//
// The protocol logic of the V4 authentication and ticket-granting servers,
// factored out of the network-facing Kdc4 wrapper so two drivers can share
// it:
//   * the deterministic simulation (src/krb4/kdc.h) drives it with ONE
//     KdcContext on one thread, producing byte-identical replies to the
//     pre-split handlers (pinned by tests/integration/kdc_capture_test.cc);
//   * the parallel bench harness (src/attacks/kdcload.h) drives it with a
//     KERB_KDC_THREADS worker pool, one KdcContext per worker.
//
// The serving shell around the exchanges — counters, key and reply caches,
// trace events, PK enablement — is KdcShell (src/krb4/kdcshell.h), shared
// with the V5 core.

#ifndef SRC_KRB4_KDCCORE_H_
#define SRC_KRB4_KDCCORE_H_

#include <string>

#include "src/krb4/database.h"
#include "src/krb4/kdcshell.h"
#include "src/krb4/messages.h"
#include "src/sim/clock.h"
#include "src/sim/network.h"

namespace krb4 {

struct KdcOptions {
  ksim::Duration max_ticket_lifetime = 8 * ksim::kHour;
  ksim::Duration clock_skew_limit = ksim::kDefaultClockSkewLimit;
  // Retransmit-safe reply cache: a request whose (source, bytes) pair was
  // answered within this window returns the stored reply instead of minting
  // a second ticket with a fresh session key. Zero disables. Off by default
  // because V4 AS requests carry no nonce — two *distinct* logins inside
  // the window are byte-identical, and experiments that model repeated
  // logins expect fresh issuance. Enable it (kept to retransmission
  // timescales, seconds not minutes) wherever clients retry: the chaos
  // testbeds do.
  ksim::Duration reply_cache_window = 0;
};

class KdcCore4 : public KdcShell {
 public:
  KdcCore4(ksim::HostClock clock, std::string realm, KdcDatabase db, KdcOptions options);

  // Serves one AS request (password or PK-preauthenticated, kAsPkRequest,
  // once EnablePkPreauth has run) or one TGS request.
  kerb::Result<kerb::Bytes> HandleAs(const ksim::Message& msg, KdcContext& ctx);
  kerb::Result<kerb::Bytes> HandleTgs(const ksim::Message& msg, KdcContext& ctx);

  const KdcOptions& options() const { return options_; }

 private:
  kerb::Result<kerb::Bytes> ServeAs(const ksim::Message& msg, KdcContext& ctx);
  kerb::Result<kerb::Bytes> ServeAsPk(const ksim::Message& msg, const AsPkRequest4& req,
                                      KdcContext& ctx);
  kerb::Result<kerb::Bytes> ServeTgs(const ksim::Message& msg, KdcContext& ctx);

  // The issuing half every exchange shares: mints a session key, seals a
  // ticket for (`service`, `client`, `client_addr`) under `ticket_key` into
  // scratch.ticket_sealed, and writes the reply body around it into
  // scratch.body_plain for the caller to seal.
  void IssueTicket(const Principal& service, const Principal& client, uint32_t client_addr,
                   ksim::Duration lifetime, const kcrypto::DesKey& ticket_key, ksim::Time now,
                   KdcContext& ctx);

  KdcOptions options_;
};

}  // namespace krb4

#endif  // SRC_KRB4_KDCCORE_H_
