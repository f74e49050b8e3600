// kdc_mt_1m: four client threads against one shared KdcCore5 holding a
// million users.
//
// The realm (1,000,000 users and 64 services, preauthentication required)
// is installed by kcluster::Population, whose per-user keys re-derive from
// (seed, index). Every thread owns a KdcContext, a PRNG and a credential
// cache, and calls HandleAs/HandleTgs directly: requests are built and
// replies verified with the krb5 message and enclayer functions, without a
// sim network. Users are drawn Zipf(1.0); a user whose TGT the thread still
// holds goes straight to TGS, others log in first. The working set
// overflows the KDC's 64-slot key cache and 16-slot unseal memo, so the
// principal store and its shard locks carry the load.

#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/spans.h"
#include "src/cluster/population.h"
#include "src/krb5/kdccore.h"
#include "src/krb5/messages.h"

namespace perfbench {
namespace {

constexpr unsigned kThreads = 4;
constexpr size_t kUsers = 1000000;
constexpr size_t kServices = 64;
constexpr size_t kDrawsPerThread = size_t{1} << 19;
// Each thread's credential cache: direct-mapped by user index.
constexpr size_t kTgtSlots = size_t{1} << 16;
constexpr const char* kRealm = "ATHENA.MIT.EDU";

struct Tgt {
  uint32_t user = 0;
  bool used = false;
  kcrypto::DesKey session_key;
  kerb::Bytes sealed_tgt;
};

struct ThreadState {
  explicit ThreadState(uint64_t seed) : ctx(kcrypto::Prng(seed)), prng(SubSeed(seed, 1)) {}

  krb4::KdcContext ctx;
  kcrypto::Prng prng;
  std::vector<uint32_t> users;
  std::vector<uint8_t> services;
  std::vector<Tgt> tgts;
  ksim::NetAddress addr;
  size_t next = 0;
  bool tgs_pending = false;  // the current draw logged in; its TGS is next
};

class KdcMt1m : public Workload {
 public:
  explicit KdcMt1m(uint64_t seed)
      : population_(kcluster::PopulationConfig{SubSeed(seed, 1), kUsers, kServices, kRealm}),
        tgs_principal_(krb4::TgsPrincipal(kRealm)) {
    clock_.Set(1000000 * ksim::kSecond);
    krb4::KdcDatabase db;
    population_.Install(db);
    krb5::KdcPolicy5 policy;
    policy.require_preauth = true;
    enc_ = policy.enc;
    core_ = std::make_unique<krb5::KdcCore5>(ksim::HostClock(&clock_), kRealm, std::move(db),
                                             policy);
    tgs_key_ = population_.TgsKey();
    for (size_t j = 0; j < kServices; ++j) {
      service_principals_.push_back(population_.ServicePrincipal(j));
      service_keys_.push_back(population_.ServiceKey(j));
    }

    kcluster::ZipfSampler zipf(kUsers, 1.0);
    for (unsigned t = 0; t < kThreads; ++t) {
      auto state = std::make_unique<ThreadState>(SubSeed(seed, 10 + t));
      kcrypto::Prng draws(SubSeed(seed, 20 + t));
      state->users.resize(kDrawsPerThread);
      state->services.resize(kDrawsPerThread);
      for (size_t i = 0; i < kDrawsPerThread; ++i) {
        state->users[i] = static_cast<uint32_t>(zipf.Sample(draws));
        state->services[i] = static_cast<uint8_t>(draws.NextBelow(kServices));
      }
      state->tgts.resize(kTgtSlots);
      state->addr = ksim::NetAddress{0x0a100000u + t, static_cast<uint16_t>(40000 + t)};
      threads_.push_back(std::move(state));
    }
  }

  unsigned threads() const override { return kThreads; }
  OpClass headline() const override { return OpClass::kTgs; }

  void RunThread(unsigned t, Loop& loop, ThreadStats& stats, Tracer* tracer) override {
    ThreadState& s = *threads_[t];
    while (loop.Next()) {
      const size_t draw = s.next % kDrawsPerThread;
      const uint32_t user = s.users[draw];
      Tgt& tgt = s.tgts[user % kTgtSlots];
      if (tracer != nullptr) {
        tracer->BeginOp();
      }
      const int64_t t0 = NowNs();
      if (!s.tgs_pending && !(tgt.used && tgt.user == user)) {
        std::string why;
        const bool ok = AsExchange(s, user, tgt, tracer, &why);
        if (ok) {
          stats.Add(OpClass::kAs, NowNs() - t0);
          s.tgs_pending = true;
        } else {
          ++s.next;
        }
        stats.Finish(ok, why);
        continue;
      }
      std::string why;
      const bool ok = TgsExchange(s, user, s.services[draw], tgt, tracer, &why);
      if (ok) {
        stats.Add(OpClass::kTgs, NowNs() - t0);
      }
      stats.Finish(ok, why);
      s.tgs_pending = false;
      ++s.next;
    }
  }

 private:
  bool AsExchange(ThreadState& s, uint32_t user, Tgt& tgt, Tracer* tracer, std::string* why) {
    SpanScope op(tracer, Layer::kAsOp);
    const krb4::Principal client = population_.UserPrincipal(user);
    const kcrypto::DesKey user_key = population_.UserKey(user);

    krb5::AsRequest5 req;
    req.client = client;
    req.service_realm = kRealm;
    req.lifetime = 8 * ksim::kHour;
    req.nonce = s.prng.NextU64();
    {
      SpanScope span(tracer, Layer::kSeal);
      kenc::TlvMessage preauth(krb5::kMsgPreauth);
      preauth.SetU64(krb5::tag::kNonce, req.nonce);
      preauth.SetU64(krb5::tag::kTimestamp, static_cast<uint64_t>(clock_.Now()));
      req.padata = krb5::SealTlv(user_key, preauth, enc_, s.prng);
    }
    ksim::Message msg;
    msg.src = s.addr;
    {
      SpanScope span(tracer, Layer::kEncode);
      msg.payload = req.ToTlv().Encode();
    }
    kerb::Result<kerb::Bytes> reply = [&] {
      SpanScope span(tracer, Layer::kKrb5KdcAs);
      return core_->HandleAs(msg, s.ctx);
    }();
    if (!reply.ok()) {
      *why = "as: " + reply.error().ToString();
      return false;
    }
    kerb::Result<krb5::AsReply5> rep = [&]() -> kerb::Result<krb5::AsReply5> {
      SpanScope span(tracer, Layer::kDecode);
      auto tlv = kenc::TlvMessage::DecodeExpecting(krb5::kMsgAsRep, reply.value());
      if (!tlv.ok()) {
        return tlv.error();
      }
      return krb5::AsReply5::FromTlv(tlv.value());
    }();
    if (!rep.ok()) {
      *why = "as reply: " + rep.error().ToString();
      return false;
    }
    kerb::Result<kenc::TlvMessage> part_tlv = [&] {
      SpanScope span(tracer, Layer::kUnseal);
      return krb5::UnsealTlv(user_key, krb5::kMsgEncAsRepPart, rep.value().sealed_enc_part, enc_);
    }();
    if (!part_tlv.ok()) {
      *why = "as enc-part: " + part_tlv.error().ToString();
      return false;
    }
    kerb::Result<krb5::EncAsRepPart5> part = [&] {
      SpanScope span(tracer, Layer::kDecode);
      return krb5::EncAsRepPart5::FromTlv(part_tlv.value());
    }();
    if (!part.ok() || part.value().nonce != req.nonce) {
      *why = "as enc-part nonce mismatch";
      return false;
    }
    // The TGT must name this user and carry the session key we were given.
    kerb::Result<krb5::Ticket5> ticket = [&] {
      SpanScope span(tracer, Layer::kUnseal);
      return krb5::Ticket5::Unseal(tgs_key_, rep.value().sealed_tgt, enc_);
    }();
    if (!ticket.ok() || !(ticket.value().client == client) ||
        !(ticket.value().service == tgs_principal_) ||
        ticket.value().session_key != part.value().tgs_session_key) {
      *why = "as ticket does not match the request";
      return false;
    }
    tgt.user = user;
    tgt.used = true;
    tgt.session_key = kcrypto::DesKey(part.value().tgs_session_key);
    tgt.sealed_tgt = std::move(rep.value().sealed_tgt);
    return true;
  }

  bool TgsExchange(ThreadState& s, uint32_t user, uint8_t service, const Tgt& tgt,
                   Tracer* tracer, std::string* why) {
    SpanScope op(tracer, Layer::kTgsOp);
    const krb4::Principal client = population_.UserPrincipal(user);
    const krb4::Principal& server = service_principals_[service];

    krb5::TgsRequest5 req;
    req.service = server;
    req.lifetime = 8 * ksim::kHour;
    req.nonce = s.prng.NextU64();
    req.tgt_realm = kRealm;
    req.sealed_tgt = tgt.sealed_tgt;
    {
      SpanScope span(tracer, Layer::kSeal);
      krb5::Authenticator5 auth;
      auth.client = client;
      auth.timestamp = clock_.Now();
      auth.checksum_type = kcrypto::ChecksumType::kCrc32;
      auth.request_checksum = kcrypto::ComputeChecksum(kcrypto::ChecksumType::kCrc32,
                                                       req.ChecksumInput(), tgt.session_key);
      req.sealed_authenticator = auth.Seal(tgt.session_key, enc_, s.prng);
    }
    ksim::Message msg;
    msg.src = s.addr;
    {
      SpanScope span(tracer, Layer::kEncode);
      msg.payload = req.ToTlv().Encode();
    }
    kerb::Result<kerb::Bytes> reply = [&] {
      SpanScope span(tracer, Layer::kKrb5KdcTgs);
      return core_->HandleTgs(msg, s.ctx);
    }();
    if (!reply.ok()) {
      *why = "tgs: " + reply.error().ToString();
      return false;
    }
    kerb::Result<krb5::TgsReply5> rep = [&]() -> kerb::Result<krb5::TgsReply5> {
      SpanScope span(tracer, Layer::kDecode);
      auto tlv = kenc::TlvMessage::DecodeExpecting(krb5::kMsgTgsRep, reply.value());
      if (!tlv.ok()) {
        return tlv.error();
      }
      return krb5::TgsReply5::FromTlv(tlv.value());
    }();
    if (!rep.ok()) {
      *why = "tgs reply: " + rep.error().ToString();
      return false;
    }
    kerb::Result<kenc::TlvMessage> part_tlv = [&] {
      SpanScope span(tracer, Layer::kUnseal);
      return krb5::UnsealTlv(tgt.session_key, krb5::kMsgEncTgsRepPart,
                             rep.value().sealed_enc_part, enc_);
    }();
    if (!part_tlv.ok()) {
      *why = "tgs enc-part: " + part_tlv.error().ToString();
      return false;
    }
    kerb::Result<krb5::EncTgsRepPart5> part = [&] {
      SpanScope span(tracer, Layer::kDecode);
      return krb5::EncTgsRepPart5::FromTlv(part_tlv.value());
    }();
    if (!part.ok() || part.value().nonce != req.nonce) {
      *why = "tgs enc-part nonce mismatch";
      return false;
    }
    // The service ticket must open under the service's key and name this
    // user, this service and the session key in the enc-part.
    kerb::Result<krb5::Ticket5> ticket = [&] {
      SpanScope span(tracer, Layer::kUnseal);
      return krb5::Ticket5::Unseal(service_keys_[service], rep.value().sealed_ticket, enc_);
    }();
    if (!ticket.ok() || !(ticket.value().client == client) ||
        !(ticket.value().service == server) ||
        ticket.value().session_key != part.value().session_key) {
      *why = "service ticket does not match the request";
      return false;
    }
    return true;
  }

  ksim::SimClock clock_;
  kcluster::Population population_;
  krb4::Principal tgs_principal_;
  krb5::EncLayerConfig enc_;
  std::unique_ptr<krb5::KdcCore5> core_;
  kcrypto::DesKey tgs_key_;
  std::vector<krb4::Principal> service_principals_;
  std::vector<kcrypto::DesKey> service_keys_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

}  // namespace

std::unique_ptr<Workload> MakeKdcMt1m(uint64_t seed) { return std::make_unique<KdcMt1m>(seed); }

}  // namespace perfbench
