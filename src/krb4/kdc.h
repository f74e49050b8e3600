// The Kerberos V4 key distribution center: authentication server (AS) and
// ticket-granting server (TGS).
//
// Protocol behaviour is V4-faithful, including the weaknesses under study:
// the AS answers any plaintext request with material encrypted in the named
// user's password key (no preauthentication, no rate limiting), and the TGS
// trusts timestamps within the configured skew window.
//
// This class is the network-facing wrapper: it binds the AS/TGS addresses
// and drives a KdcCore4 (src/krb4/kdccore.h) with a single KdcContext, so
// the deterministic simulation sees exactly the single-threaded behaviour
// it always has. The parallel serving harness drives the same core with one
// context per worker instead.

#ifndef SRC_KRB4_KDC_H_
#define SRC_KRB4_KDC_H_

#include <string>

#include "src/krb4/database.h"
#include "src/krb4/kdccore.h"
#include "src/krb4/messages.h"
#include "src/sim/clock.h"
#include "src/sim/network.h"

namespace krb4 {

class Kdc4 {
 public:
  Kdc4(ksim::Network* net, const ksim::NetAddress& as_addr, const ksim::NetAddress& tgs_addr,
       ksim::HostClock clock, std::string realm, KdcDatabase db, kcrypto::Prng prng,
       KdcOptions options = {});

  const std::string& realm() const { return core_.realm(); }
  KdcDatabase& database() { return core_.database(); }
  const ksim::NetAddress& as_address() const { return as_addr_; }
  const ksim::NetAddress& tgs_address() const { return tgs_addr_; }

  KdcCore4& core() { return core_; }

  // Request counters, visible to the rate-limiting and harvesting
  // experiments.
  uint64_t as_requests_served() const { return core_.as_requests_served(); }
  uint64_t tgs_requests_served() const { return core_.tgs_requests_served(); }

 private:
  ksim::NetAddress as_addr_;
  ksim::NetAddress tgs_addr_;
  KdcCore4 core_;
  KdcContext ctx_;
};

}  // namespace krb4

#endif  // SRC_KRB4_KDC_H_
