// admin_churn_v4: V4 sessions interleaved with operator password changes.
//
// Testbed4 with the kadmin plane, one slave KDC (so the primary journals
// every change through kstore) and 1,000 extra users. Fifteen of every
// sixteen ops are V4 sessions (Login, GetServiceTicket, mutual-auth
// CallService) for a Zipf-drawn user. The sixteenth is an operator
// ChangePassword for a Zipf-drawn user; the op right after it is a session
// for that user with the new password, which proves the change took. Every
// eighth change runs a kprop cycle and every 64th compacts the journal, so
// this is the one workload that drives the admin → KdcDatabase key ring →
// WAL/SimDevice → kprop path, and the one whose writes keep clearing the
// KDC's key caches.

#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/spans.h"
#include "src/attacks/testbed.h"
#include "src/cluster/population.h"

namespace perfbench {
namespace {

constexpr int kExtraUsers = 1000;
constexpr size_t kOpsPregenerated = size_t{1} << 18;
constexpr size_t kAdminEvery = 16;
constexpr uint64_t kPropagateEvery = 8;
constexpr uint64_t kCompactEvery = 64;
constexpr ksim::Duration kStep = 50 * ksim::kMillisecond;

// No vowels, so a generated password never contains a user's name (the
// admin policy refuses those).
std::string MakePassword(kcrypto::Prng& prng) {
  static constexpr char kAlphabet[] = "bcdfghjkmnpqrstvwxyzBCDFGHJKLMNPQRSTVWXYZ23456789";
  std::string pw = "pw-";
  for (int i = 0; i < 12; ++i) {
    pw += kAlphabet[prng.NextBelow(sizeof(kAlphabet) - 1)];
  }
  return pw;
}

class AdminChurnV4 : public Workload {
 public:
  explicit AdminChurnV4(uint64_t seed) {
    kattack::TestbedConfig config;
    config.seed = SubSeed(seed, 1);
    config.extra_users = kExtraUsers;
    config.server_replay_cache = true;
    config.kdc_slaves = 1;
    config.enable_kadmin = true;
    bed_ = std::make_unique<kattack::Testbed4>(config);

    const auto& users = bed_->users();
    for (size_t i = 0; i < users.size(); ++i) {
      const ksim::NetAddress addr{0x0a010000u + static_cast<uint32_t>(i), 1023};
      clients_.push_back(bed_->MakeClient(users[i].first, addr));
      passwords_.push_back(users[i].second);
      kvnos_.push_back(bed_->kdc().database().Kvno(users[i].first));
      user_names_.push_back(users[i].first.ToString());
    }
    oper_ = bed_->MakeClient(bed_->oper_principal(), kattack::Testbed4::kOperAddr);
    admin_ = bed_->MakeAdminClient(*oper_);
    changed_.assign(users.size(), false);

    services_ = {
        Service{kattack::Testbed4::kMailAddr, bed_->mail_principal(), &bed_->mail_log(),
                "You have 3 messages.", "mail-check "},
        Service{kattack::Testbed4::kFileAddr, bed_->file_principal(), &bed_->file_log(),
                "ok: mount-home", "mount-home by "},
        Service{kattack::Testbed4::kBackupAddr, bed_->backup_principal(), &bed_->backup_log(),
                "backup-ok: list-archives", "list-archives by "},
    };

    kcluster::ZipfSampler zipf(users.size(), 1.0);
    kcrypto::Prng prng(SubSeed(seed, 2));
    ops_.resize(kOpsPregenerated);
    for (size_t i = 0; i < ops_.size(); ++i) {
      Op& op = ops_[i];
      op.user = static_cast<uint16_t>(zipf.Sample(prng));
      op.service = static_cast<uint8_t>(prng.NextBelow(services_.size()));
      op.admin = i % kAdminEvery == kAdminEvery - 1;
      if (op.admin) {
        op.new_password = MakePassword(prng);
      } else if (i > 0 && ops_[i - 1].admin) {
        op.user = ops_[i - 1].user;  // log in with the password just set
      }
    }
    if (ops_.back().admin) {
      ops_.front().user = ops_.back().user;  // the sequence wraps in long runs
    }
  }

  unsigned threads() const override { return 1; }
  OpClass headline() const override { return OpClass::kAdmin; }

  void AttachNetworkTracer(Tracer* tracer) override {
    adversary_ = std::make_unique<NetSpanAdversary>(tracer, /*v5=*/false);
    bed_->world().network().SetAdversary(adversary_.get());
  }

  void RunThread(unsigned t, Loop& loop, ThreadStats& stats, Tracer* tracer) override {
    (void)t;
    while (loop.Next()) {
      const Op& op = ops_[next_op_++ % ops_.size()];
      bed_->world().clock().Advance(kStep);
      if (tracer != nullptr) {
        tracer->BeginOp();
      }
      std::string why;
      if (op.admin) {
        const int64_t t0 = NowNs();
        const bool ok = ChangePassword(op, tracer, &why);
        if (ok) {
          stats.Add(OpClass::kAdmin, NowNs() - t0);
        }
        stats.Finish(ok, why);
      } else {
        int64_t as_ns = 0;
        const int64_t t0 = NowNs();
        const bool ok = Session(op, tracer, &as_ns, &why);
        if (ok) {
          stats.Add(OpClass::kAs, as_ns);
          stats.Add(OpClass::kSession, NowNs() - t0);
        }
        stats.Finish(ok, why);
      }
    }
  }

  uint64_t FinalCheck(std::string* why) override {
    uint64_t failures = 0;
    // A change made by the very last op has not been used for a login yet.
    const Op& last = ops_[(next_op_ + ops_.size() - 1) % ops_.size()];
    if (next_op_ > 0 && last.admin) {
      if (!clients_[last.user]->Login(passwords_[last.user]).ok()) {
        ++failures;
        *why = "login with the last new password failed";
      }
    }
    // After one more kprop cycle the slave must hold the primary's current
    // key for every principal whose password changed.
    bed_->kdc_replicas().Propagate();
    krb4::KdcDatabase& primary = bed_->kdc().database();
    krb4::KdcDatabase& slave = bed_->kdc_replicas().slave(0).database();
    const auto& users = bed_->users();
    for (size_t u = 0; u < users.size(); ++u) {
      if (!changed_[u]) {
        continue;
      }
      auto p = primary.LookupEntry(users[u].first);
      auto s = slave.LookupEntry(users[u].first);
      if (!p.ok() || !s.ok() || p.value().kvno() != s.value().kvno() ||
          !(p.value().keys.front().key == s.value().keys.front().key)) {
        if (failures++ == 0) {
          *why = "slave key differs from primary for " + user_names_[u];
        }
      }
    }
    return failures;
  }

  bool network_traced() const override { return adversary_ != nullptr; }
  uint64_t admin_changes() const override { return changes_; }

 private:
  struct Op {
    uint16_t user = 0;
    uint8_t service = 0;
    bool admin = false;
    std::string new_password;
  };
  struct Service {
    ksim::NetAddress addr;
    krb4::Principal principal;
    const std::vector<std::string>* log;
    std::string reply;
    std::string log_prefix;
  };

  bool Session(const Op& op, Tracer* tracer, int64_t* as_ns, std::string* why) {
    SpanScope root(tracer, Layer::kSession4Op);
    krb4::Client4& client = *clients_[op.user];
    const Service& svc = services_[op.service];
    const int64_t t0 = NowNs();
    kerb::Status login = client.Login(passwords_[op.user]);
    *as_ns = NowNs() - t0;
    if (!login.ok()) {
      *why = "login " + user_names_[op.user] + ": " + login.error().ToString();
      return false;
    }
    client.DropServiceCredentials();
    auto ticket = client.GetServiceTicket(svc.principal);
    if (!ticket.ok()) {
      *why = "tgs: " + ticket.error().ToString();
      return false;
    }
    const size_t log_before = svc.log->size();
    auto reply = client.CallService(svc.addr, svc.principal, /*want_mutual=*/true);
    if (!reply.ok()) {
      *why = "ap: " + reply.error().ToString();
      return false;
    }
    // CallService verified the mutual-auth reply; the server must have run
    // the operation once, for this user.
    if (svc.log->size() != log_before + 1 ||
        svc.log->back() != svc.log_prefix + user_names_[op.user] ||
        kerb::ToString(reply.value()) != svc.reply) {
      *why = "server log or reply mismatch";
      return false;
    }
    return true;
  }

  bool ChangePassword(const Op& op, Tracer* tracer, std::string* why) {
    SpanScope root(tracer, Layer::kAdminOp);
    // The operator authenticates afresh for every change, as kpasswd does.
    kerb::Status login = oper_->Login(kattack::Testbed4::kOperPassword);
    if (!login.ok()) {
      *why = "operator login: " + login.error().ToString();
      return false;
    }
    oper_->DropServiceCredentials();
    const krb4::Principal& target = bed_->users()[op.user].first;
    auto ack = admin_->ChangePassword(target, op.new_password);
    if (!ack.ok()) {
      *why = "change password: " + ack.error().ToString();
      return false;
    }
    if (ack.value().kvno != kvnos_[op.user] + 1) {
      *why = "acked kvno did not rise by one";
      return false;
    }
    kvnos_[op.user] = ack.value().kvno;
    passwords_[op.user] = op.new_password;
    changed_[op.user] = true;
    ++changes_;
    if (changes_ % kPropagateEvery == 0) {
      SpanScope span(tracer, Layer::kPropagate);
      bed_->kdc_replicas().Propagate();
    }
    if (changes_ % kCompactEvery == 0) {
      SpanScope span(tracer, Layer::kCompact);
      bed_->kdc_replicas().propagation()->Compact();
    }
    return true;
  }

  std::unique_ptr<kattack::Testbed4> bed_;
  std::vector<std::unique_ptr<krb4::Client4>> clients_;
  std::vector<std::string> passwords_;
  std::vector<uint32_t> kvnos_;
  std::vector<std::string> user_names_;
  std::vector<bool> changed_;
  std::unique_ptr<krb4::Client4> oper_;
  std::unique_ptr<kadmin::AdminClient> admin_;
  std::vector<Service> services_;
  std::vector<Op> ops_;
  size_t next_op_ = 0;
  uint64_t changes_ = 0;
  std::unique_ptr<NetSpanAdversary> adversary_;
};

}  // namespace

std::unique_ptr<Workload> MakeAdminChurnV4(uint64_t seed) {
  return std::make_unique<AdminChurnV4>(seed);
}

}  // namespace perfbench
