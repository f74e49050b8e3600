// Error-path coverage for the V4 KDC and application server.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/attacks/testbed.h"

namespace krb4 {
namespace {

using kattack::Testbed4;

TEST(ErrorPaths4Test, GarbageToEveryPort) {
  Testbed4 bed;
  kcrypto::Prng prng(1);
  for (const auto& addr :
       {Testbed4::kAsAddr, Testbed4::kTgsAddr, Testbed4::kMailAddr, Testbed4::kFileAddr}) {
    for (int i = 0; i < 50; ++i) {
      EXPECT_FALSE(
          bed.world().network().Call(Testbed4::kEveAddr, addr, prng.NextBytes(80)).ok());
    }
  }
}

TEST(ErrorPaths4Test, WrongMessageTypeToAsPort) {
  Testbed4 bed;
  // A well-formed TGS request delivered to the AS port.
  TgsRequest4 req;
  req.service = bed.mail_principal();
  auto reply = bed.world().network().Call(Testbed4::kAliceAddr, Testbed4::kAsAddr,
                                          Frame4(MsgType::kTgsRequest, req.Encode()));
  EXPECT_EQ(reply.code(), kerb::ErrorCode::kBadFormat);
}

TEST(ErrorPaths4Test, TgsRejectsAuthenticatorClientMismatch) {
  // A valid TGT for alice presented with an authenticator claiming bob —
  // only possible for someone who knows the TGT session key, but the check
  // must exist regardless.
  Testbed4 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  const auto& creds = *bed.alice().tgs_credentials();

  Authenticator4 auth;
  auth.client = bed.bob_principal();  // mismatch
  auth.client_addr = Testbed4::kAliceAddr.host;
  auth.timestamp = bed.world().clock().Now();

  TgsRequest4 req;
  req.service = bed.mail_principal();
  req.sealed_tgt = creds.sealed_tgt;
  req.sealed_auth = auth.Seal(creds.session_key);
  req.lifetime = ksim::kHour;
  auto reply = bed.world().network().Call(Testbed4::kAliceAddr, Testbed4::kTgsAddr,
                                          Frame4(MsgType::kTgsRequest, req.Encode()));
  EXPECT_EQ(reply.code(), kerb::ErrorCode::kAuthFailed);
}

TEST(ErrorPaths4Test, TgsRejectsStaleAuthenticator) {
  Testbed4 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  const auto& creds = *bed.alice().tgs_credentials();
  Authenticator4 auth;
  auth.client = bed.alice_principal();
  auth.client_addr = Testbed4::kAliceAddr.host;
  auth.timestamp = bed.world().clock().Now() - ksim::kHour;  // stale
  TgsRequest4 req;
  req.service = bed.mail_principal();
  req.sealed_tgt = creds.sealed_tgt;
  req.sealed_auth = auth.Seal(creds.session_key);
  req.lifetime = ksim::kHour;
  auto reply = bed.world().network().Call(Testbed4::kAliceAddr, Testbed4::kTgsAddr,
                                          Frame4(MsgType::kTgsRequest, req.Encode()));
  EXPECT_EQ(reply.code(), kerb::ErrorCode::kSkew);
}

TEST(ErrorPaths4Test, TgsRejectsWrongSourceAddress) {
  Testbed4 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  const auto& creds = *bed.alice().tgs_credentials();
  Authenticator4 auth;
  auth.client = bed.alice_principal();
  auth.client_addr = Testbed4::kAliceAddr.host;
  auth.timestamp = bed.world().clock().Now();
  TgsRequest4 req;
  req.service = bed.mail_principal();
  req.sealed_tgt = creds.sealed_tgt;
  req.sealed_auth = auth.Seal(creds.session_key);
  req.lifetime = ksim::kHour;
  // Honest delivery from eve's own host: the address binding fires.
  auto reply = bed.world().network().Call(Testbed4::kEveAddr, Testbed4::kTgsAddr,
                                          Frame4(MsgType::kTgsRequest, req.Encode()));
  EXPECT_EQ(reply.code(), kerb::ErrorCode::kAuthFailed);
}

TEST(ErrorPaths4Test, ServerRejectsTicketSealedWithWrongKey) {
  Testbed4 bed;
  kcrypto::Prng prng(2);
  Ticket4 forged;
  forged.service = bed.mail_principal();
  forged.client = bed.alice_principal();
  forged.client_addr = Testbed4::kAliceAddr.host;
  forged.issued_at = bed.world().clock().Now();
  forged.lifetime = ksim::kHour;
  forged.session_key = prng.NextDesKey().bytes();

  kcrypto::DesKey session(forged.session_key);
  Authenticator4 auth;
  auth.client = bed.alice_principal();
  auth.client_addr = Testbed4::kAliceAddr.host;
  auth.timestamp = bed.world().clock().Now();

  ApRequest4 req;
  req.sealed_ticket = forged.Seal(prng.NextDesKey());  // not the mail key
  req.sealed_auth = auth.Seal(session);
  auto verdict = bed.mail_server().VerifyApRequest(req, Testbed4::kAliceAddr.host);
  EXPECT_EQ(verdict.code(), kerb::ErrorCode::kAuthFailed);
}

TEST(ErrorPaths4Test, ForgedTicketWithRealKeyWouldWork_KerckhoffsBaseline) {
  // Sanity check of the threat model: the ONLY thing protecting tickets is
  // the service key. An adversary holding it forges freely — "Kerberos is
  // secure if and only if ... these client and server keys are secret."
  Testbed4 bed;
  kcrypto::Prng prng(3);
  Ticket4 forged;
  forged.service = bed.mail_principal();
  forged.client = krb4::Principal::User("made-up-user", bed.realm);
  forged.client_addr = Testbed4::kEveAddr.host;
  forged.issued_at = bed.world().clock().Now();
  forged.lifetime = ksim::kHour;
  forged.session_key = prng.NextDesKey().bytes();

  kcrypto::DesKey session(forged.session_key);
  Authenticator4 auth;
  auth.client = forged.client;
  auth.client_addr = Testbed4::kEveAddr.host;
  auth.timestamp = bed.world().clock().Now();

  ApRequest4 req;
  req.sealed_ticket = forged.Seal(bed.mail_key());  // the compromised key
  req.sealed_auth = auth.Seal(session);
  auto verdict = bed.mail_server().VerifyApRequest(req, Testbed4::kEveAddr.host);
  EXPECT_TRUE(verdict.ok());
  EXPECT_EQ(verdict.value().client.name, "made-up-user");
}

// Garbage times of the kind a corrupted TGS reply that still decodes leaves
// in the credential cache (seen under chaos): their sum overflows int64.
constexpr int64_t kGarbageIssuedAt = 6896223737596148167;
constexpr int64_t kGarbageLifetime = 6896222819656169091;

TEST(ErrorPaths4Test, CachedTicketWithOverflowingEndIsRefetched) {
  // A stand-in TGS seals a reply under the client's real TGT session key,
  // with times chosen per test phase. A cached credential whose end
  // overflows must read as expired (the Ticket4::Expired rule), not wrap.
  Testbed4 bed;
  const ksim::NetAddress fake_tgs{0x0a0000fe, 750};
  Client4 client(&bed.world().network(), {0x0a000199, 1023}, bed.world().MakeHostClock(0),
                 bed.alice_principal(), Testbed4::kAsAddr, fake_tgs);
  int served = 0;
  ksim::Time issued_at = 0;
  ksim::Duration lifetime = 0;
  bed.world().network().Bind(fake_tgs, [&](const ksim::Message&) -> kerb::Result<kerb::Bytes> {
    ++served;
    TgsReplyBody4 body;
    body.session_key = kcrypto::DesKey(0x0123456789abcdefull).bytes();
    body.sealed_ticket = kerb::Bytes(16, 0xab);
    body.issued_at = issued_at;
    body.lifetime = lifetime;
    return Frame4(MsgType::kTgsReply,
                  Seal4(client.tgs_credentials()->session_key, body.Encode()));
  });
  ASSERT_TRUE(client.Login(Testbed4::kAlicePassword).ok());

  // Control: a sane credential is served from the cache.
  issued_at = bed.world().clock().Now();
  lifetime = ksim::kHour;
  ASSERT_TRUE(client.GetServiceTicket(bed.mail_principal()).ok());
  ASSERT_TRUE(client.GetServiceTicket(bed.mail_principal()).ok());
  EXPECT_EQ(served, 1);

  client.DropServiceCredentials();
  issued_at = kGarbageIssuedAt;
  lifetime = kGarbageLifetime;
  ASSERT_TRUE(client.GetServiceTicket(bed.mail_principal()).ok());
  ASSERT_TRUE(client.GetServiceTicket(bed.mail_principal()).ok());
  EXPECT_EQ(served, 3) << "an overflowing end must count as expired and force a re-fetch";
}

}  // namespace
}  // namespace krb4
