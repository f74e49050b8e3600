// session_v5: one thread, 32 client actors, full V5 sessions.
//
// Each op is what a user does to reach a service: a preauthenticated Login
// (AS), a GetServiceTicket (TGS) and a mutual-auth CallService (AP), along
// Client5 → ksim::Network → KdcCore5 → AppServer5. The realm is Testbed5
// plus 32 users; the working set fits every per-context cache. The sim
// clock advances a fixed step per op so the app servers' replay-cache
// windows roll over during a run.

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/spans.h"
#include "src/attacks/testbed5.h"

namespace perfbench {
namespace {

constexpr size_t kActors = 32;
constexpr size_t kOpsPregenerated = size_t{1} << 18;
constexpr ksim::Duration kStep = 50 * ksim::kMillisecond;

std::string MakePassword(kcrypto::Prng& prng) {
  static constexpr char kAlphabet[] = "abcdefghijkmnpqrstuvwxyzABCDEFGHJKLMNPQRSTUVWXYZ23456789";
  std::string pw = "pw-";
  for (int i = 0; i < 12; ++i) {
    pw += kAlphabet[prng.NextBelow(sizeof(kAlphabet) - 1)];
  }
  return pw;
}

class SessionV5 : public Workload {
 public:
  explicit SessionV5(uint64_t seed) {
    kattack::Testbed5Config config;
    config.seed = SubSeed(seed, 1);
    config.kdc_policy.require_preauth = true;
    config.client_options.use_preauth = true;
    config.server_options.replay_cache = true;
    bed_ = std::make_unique<kattack::Testbed5>(config);

    kcrypto::Prng prng(SubSeed(seed, 2));
    for (size_t i = 0; i < kActors; ++i) {
      krb5::Principal user =
          krb5::Principal::User("user" + std::to_string(100 + i), bed_->realm);
      passwords_[i] = MakePassword(prng);
      bed_->kdc().database().AddUser(user, passwords_[i]);
      const ksim::NetAddress addr{0x0a000200u + static_cast<uint32_t>(i), 1023};
      clients_[i] = bed_->MakeClient(user, addr, config.client_options);
      user_names_[i] = user.ToString();
    }

    services_ = {
        Service{Testbed5Address(0), bed_->mail_principal(), &bed_->mail_log(), "mail-ok: ",
                "mail-check"},
        Service{Testbed5Address(1), bed_->file_principal(), &bed_->file_log(), "file-ok: ",
                "mount-home"},
        Service{Testbed5Address(2), bed_->backup_principal(), &bed_->backup_log(),
                "backup-ok: ", "list-archives"},
    };

    ops_.resize(kOpsPregenerated);
    for (Op& op : ops_) {
      op.actor = static_cast<uint8_t>(prng.NextBelow(kActors));
      op.service = static_cast<uint8_t>(prng.NextBelow(services_.size()));
    }
  }

  unsigned threads() const override { return 1; }
  OpClass headline() const override { return OpClass::kSession; }

  void AttachNetworkTracer(Tracer* tracer) override {
    adversary_ = std::make_unique<NetSpanAdversary>(tracer, /*v5=*/true);
    bed_->world().network().SetAdversary(adversary_.get());
  }
  bool network_traced() const override { return adversary_ != nullptr; }

  void RunThread(unsigned t, Loop& loop, ThreadStats& stats, Tracer* tracer) override {
    (void)t;
    while (loop.Next()) {
      const Op& op = ops_[next_op_++ % ops_.size()];
      bed_->world().clock().Advance(kStep);
      if (tracer != nullptr) {
        tracer->BeginOp();
      }
      SpanScope root(tracer, Layer::kSession5Op);
      krb5::Client5& client = *clients_[op.actor];
      const Service& svc = services_[op.service];

      const int64_t t0 = NowNs();
      kerb::Status login = client.Login(passwords_[op.actor]);
      const int64_t t1 = NowNs();
      if (!login.ok()) {
        stats.Finish(false, "login: " + login.error().ToString());
        continue;
      }
      client.DropServiceCredentials();
      auto ticket = client.GetServiceTicket(svc.principal);
      if (!ticket.ok()) {
        stats.Finish(false, "tgs: " + ticket.error().ToString());
        continue;
      }
      const size_t log_before = svc.log->size();
      auto call = client.CallService(svc.addr, svc.principal, /*want_mutual=*/true);
      const int64_t t3 = NowNs();
      if (!call.ok()) {
        stats.Finish(false, "ap: " + call.error().ToString());
        continue;
      }
      // Mutual auth is verified inside CallService; the server must also
      // have run the operation exactly once, for this user.
      const std::string reply = kerb::ToString(call.value().app_reply);
      const bool ok = svc.log->size() == log_before + 1 &&
                      svc.log->back() == svc.verb + " by " + user_names_[op.actor] &&
                      reply == svc.reply_prefix + svc.verb;
      if (ok) {
        stats.Add(OpClass::kAs, t1 - t0);
        stats.Add(OpClass::kSession, t3 - t0);
      }
      stats.Finish(ok, "server log or reply mismatch");
    }
  }

 private:
  struct Op {
    uint8_t actor;
    uint8_t service;
  };
  struct Service {
    ksim::NetAddress addr;
    krb5::Principal principal;
    const std::vector<std::string>* log;
    std::string reply_prefix;
    std::string verb;
  };

  static ksim::NetAddress Testbed5Address(int i) {
    static constexpr std::array<ksim::NetAddress, 3> kAddrs = {
        kattack::Testbed5::kMailAddr, kattack::Testbed5::kFileAddr,
        kattack::Testbed5::kBackupAddr};
    return kAddrs[static_cast<size_t>(i)];
  }

  std::unique_ptr<kattack::Testbed5> bed_;
  std::array<std::unique_ptr<krb5::Client5>, kActors> clients_;
  std::array<std::string, kActors> passwords_;
  std::array<std::string, kActors> user_names_;
  std::vector<Service> services_;
  std::vector<Op> ops_;
  size_t next_op_ = 0;
  std::unique_ptr<NetSpanAdversary> adversary_;
};

}  // namespace

std::unique_ptr<Workload> MakeSessionV5(uint64_t seed) {
  return std::make_unique<SessionV5>(seed);
}

}  // namespace perfbench
