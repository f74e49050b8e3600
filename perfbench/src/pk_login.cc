// pk_login_mt: four threads of public-key preauthenticated V4 logins.
//
// KdcCore4::EnablePkPreauth over Oakley group 1 (768-bit); every op is one
// kattack::DoPkLogin4 exchange — fresh client DH pair, proof-of-possession
// padata, KDC modexp, and the client's validation and two-layer unseal of
// the reply. Modexp dominates this workload and hardly appears in any
// other, so a modexp change should move only this one.

#include <memory>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/spans.h"
#include "src/attacks/kdcload.h"
#include "src/cluster/population.h"
#include "src/crypto/dh.h"
#include "src/krb4/kdccore.h"

namespace perfbench {
namespace {

constexpr unsigned kThreads = 4;
constexpr size_t kUsers = 1000;
constexpr size_t kDrawsPerThread = 4096;
constexpr const char* kRealm = "ATHENA.SIM";

struct ThreadState {
  explicit ThreadState(uint64_t seed) : ctx(kcrypto::Prng(seed)), client_prng(SubSeed(seed, 1)) {}

  krb4::KdcContext ctx;
  kcrypto::Prng client_prng;
  std::vector<uint16_t> users;
  ksim::NetAddress addr;
  size_t next = 0;
};

class PkLoginMt : public Workload {
 public:
  explicit PkLoginMt(uint64_t seed)
      : population_(kcluster::PopulationConfig{SubSeed(seed, 1), kUsers, 0, kRealm}) {
    clock_.Set(1000000 * ksim::kSecond);
    krb4::KdcDatabase db;
    population_.Install(db);
    core_ = std::make_unique<krb4::KdcCore4>(ksim::HostClock(&clock_), kRealm, std::move(db),
                                             krb4::KdcOptions{});
    core_->EnablePkPreauth(kcrypto::OakleyGroup1());
    for (size_t i = 0; i < kUsers; ++i) {
      principals_.push_back(population_.UserPrincipal(i));
      keys_.push_back(population_.UserKey(i));
    }
    for (unsigned t = 0; t < kThreads; ++t) {
      auto state = std::make_unique<ThreadState>(SubSeed(seed, 10 + t));
      kcrypto::Prng draws(SubSeed(seed, 20 + t));
      state->users.resize(kDrawsPerThread);
      for (uint16_t& u : state->users) {
        u = static_cast<uint16_t>(draws.NextBelow(kUsers));
      }
      state->addr = ksim::NetAddress{0x0a200000u + t, static_cast<uint16_t>(40000 + t)};
      threads_.push_back(std::move(state));
    }
  }

  unsigned threads() const override { return kThreads; }
  OpClass headline() const override { return OpClass::kPkLogin; }

  void RunThread(unsigned t, Loop& loop, ThreadStats& stats, Tracer* tracer) override {
    ThreadState& s = *threads_[t];
    // The KDC side of each exchange, wrapped so a traced run can time it.
    const kattack::KdcHandler handler = [this, tracer](const ksim::Message& msg,
                                                       krb4::KdcContext& ctx) {
      SpanScope span(tracer, Layer::kKrb4KdcPkAs);
      return core_->HandleAs(msg, ctx);
    };
    const ksim::Time now = clock_.Now();
    while (loop.Next()) {
      const uint16_t user = s.users[s.next++ % kDrawsPerThread];
      if (tracer != nullptr) {
        tracer->BeginOp();
      }
      SpanScope op(tracer, Layer::kPkLoginOp);
      const int64_t t0 = NowNs();
      auto body = kattack::DoPkLogin4(handler, principals_[user], keys_[user],
                                      kcrypto::OakleyGroup1(), now, s.ctx, s.client_prng, s.addr);
      const int64_t t1 = NowNs();
      if (!body.ok()) {
        stats.Finish(false, "pk login: " + body.error().ToString());
        continue;
      }
      // DoPkLogin4 validated the server's DH value and opened both layers;
      // the body must also describe a ticket issued now.
      const bool ok = body.value().issued_at == now && body.value().lifetime > 0 &&
                      !body.value().sealed_tgt.empty();
      if (ok) {
        stats.Add(OpClass::kPkLogin, t1 - t0);
        stats.Add(OpClass::kAs, t1 - t0);
      }
      stats.Finish(ok, "pk login reply body mismatch");
    }
  }

 private:
  ksim::SimClock clock_;
  kcluster::Population population_;
  std::unique_ptr<krb4::KdcCore4> core_;
  std::vector<krb4::Principal> principals_;
  std::vector<kcrypto::DesKey> keys_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

}  // namespace

std::unique_ptr<Workload> MakePkLoginMt(uint64_t seed) {
  return std::make_unique<PkLoginMt>(seed);
}

}  // namespace perfbench
