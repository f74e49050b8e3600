#include "src/krb5/messages.h"

#include <gtest/gtest.h>

namespace krb5 {
namespace {

Principal Alice() { return Principal::User("alice", "ATHENA.SIM"); }
Principal Payroll() { return Principal::Service("payroll", "hr-host", "SALES.CORP"); }

TEST(Ticket5Test, TlvRoundTripAllFields) {
  kcrypto::Prng prng(1);
  Ticket5 t;
  t.service = Payroll();
  t.client = Alice();
  t.flags = kFlagForwardable | kFlagForwarded;
  t.client_addr = 0x0a000001;
  t.issued_at = 55 * ksim::kSecond;
  t.lifetime = ksim::kHour;
  t.session_key = prng.NextDesKey().bytes();
  t.transited = {"ENG.CORP", "CORP"};

  auto back = Ticket5::FromTlv(t.ToTlv());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().service == t.service);
  EXPECT_TRUE(back.value().client == t.client);
  EXPECT_EQ(back.value().flags, t.flags);
  EXPECT_EQ(back.value().client_addr, t.client_addr);
  EXPECT_EQ(back.value().session_key, t.session_key);
  EXPECT_EQ(back.value().transited, t.transited);
}

TEST(Ticket5Test, AddressOmissionSurvivesRoundTrip) {
  kcrypto::Prng prng(2);
  Ticket5 t;
  t.service = Payroll();
  t.client = Alice();
  t.session_key = prng.NextDesKey().bytes();
  // no client_addr
  auto back = Ticket5::FromTlv(t.ToTlv());
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back.value().client_addr.has_value());
}

TEST(Ticket5Test, SealUnsealAndTypeSeparation) {
  kcrypto::Prng prng(3);
  kcrypto::DesKey key = prng.NextDesKey();
  EncLayerConfig config;
  Ticket5 t;
  t.service = Payroll();
  t.client = Alice();
  t.session_key = prng.NextDesKey().bytes();
  kerb::Bytes sealed = t.Seal(key, config, prng);
  ASSERT_TRUE(Ticket5::Unseal(key, sealed, config).ok());
  // A sealed ticket must not unseal as an authenticator.
  EXPECT_FALSE(Authenticator5::Unseal(key, sealed, config).ok());
}

TEST(Authenticator5Test, OptionalFieldsRoundTrip) {
  kcrypto::Prng prng(4);
  Authenticator5 a;
  a.client = Alice();
  a.timestamp = 9 * ksim::kSecond;
  a.checksum_type = kcrypto::ChecksumType::kMd4Des;
  a.request_checksum = prng.NextBytes(16);
  a.subkey = prng.NextDesKey().bytes();
  a.initial_seq = 0xdeadbeef;
  a.service_name_check = "nfs.fileserver@ATHENA.SIM";

  auto back = Authenticator5::FromTlv(a.ToTlv());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().checksum_type, a.checksum_type);
  EXPECT_EQ(back.value().request_checksum, a.request_checksum);
  EXPECT_EQ(back.value().subkey, a.subkey);
  EXPECT_EQ(back.value().initial_seq, a.initial_seq);
  EXPECT_EQ(back.value().service_name_check, a.service_name_check);
}

TEST(Authenticator5Test, MinimalFieldsRoundTrip) {
  Authenticator5 a;
  a.client = Alice();
  a.timestamp = 1;
  auto back = Authenticator5::FromTlv(a.ToTlv());
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back.value().subkey.has_value());
  EXPECT_FALSE(back.value().request_checksum.has_value());
}

TEST(AsMessages5Test, RequestRoundTripWithPadata) {
  kcrypto::Prng prng(5);
  AsRequest5 req;
  req.client = Alice();
  req.service_realm = "ATHENA.SIM";
  req.lifetime = ksim::kHour;
  req.options = kOptOmitAddress;
  req.nonce = 777;
  req.padata = prng.NextBytes(24);
  auto back = AsRequest5::FromTlv(req.ToTlv());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().options, kOptOmitAddress);
  EXPECT_EQ(back.value().nonce, 777u);
  EXPECT_EQ(back.value().padata, req.padata);
}

TEST(TgsMessages5Test, ChecksumInputCoversRewritableFields) {
  // Changing any adversary-visible field must change the checksum input.
  TgsRequest5 req;
  req.service = Payroll();
  req.lifetime = ksim::kHour;
  req.options = 0;
  req.nonce = 1;
  req.tgt_realm = "ATHENA.SIM";
  req.additional_ticket = kerb::ToBytes("TICKET");
  req.authorization_data = kerb::ToBytes("AUTHZ");
  kerb::Bytes base = req.ChecksumInput();

  TgsRequest5 changed = req;
  changed.options = kOptEncTktInSkey;
  EXPECT_NE(changed.ChecksumInput(), base);

  changed = req;
  changed.additional_ticket = kerb::ToBytes("OTHER");
  EXPECT_NE(changed.ChecksumInput(), base);

  changed = req;
  changed.authorization_data = kerb::ToBytes("AUTHZ2");
  EXPECT_NE(changed.ChecksumInput(), base);

  changed = req;
  changed.service.name = "other";
  EXPECT_NE(changed.ChecksumInput(), base);
}

TEST(TgsMessages5Test, FullRoundTrip) {
  kcrypto::Prng prng(6);
  TgsRequest5 req;
  req.service = Payroll();
  req.lifetime = ksim::kHour;
  req.options = kOptEncTktInSkey | kOptOmitAddress;
  req.nonce = 42;
  req.tgt_realm = "CORP";
  req.additional_ticket = prng.NextBytes(48);
  req.additional_ticket_service = Principal::Service("nfs", "fs", "ATHENA.SIM");
  req.authorization_data = prng.NextBytes(12);
  req.sealed_tgt = prng.NextBytes(64);
  req.sealed_authenticator = prng.NextBytes(40);

  auto back = TgsRequest5::FromTlv(req.ToTlv());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().options, req.options);
  EXPECT_EQ(back.value().tgt_realm, "CORP");
  EXPECT_EQ(back.value().additional_ticket, req.additional_ticket);
  ASSERT_TRUE(back.value().additional_ticket_service.has_value());
  EXPECT_TRUE(*back.value().additional_ticket_service == *req.additional_ticket_service);
  EXPECT_EQ(back.value().authorization_data, req.authorization_data);
}

TEST(ApMessages5Test, RoundTripWithChallengeResponse) {
  kcrypto::Prng prng(7);
  ApRequest5 req;
  req.sealed_ticket = prng.NextBytes(32);
  req.sealed_authenticator = prng.NextBytes(32);
  req.want_mutual = true;
  req.app_data = kerb::ToBytes("GET /inbox");
  req.challenge_response = prng.NextBytes(16);
  auto back = ApRequest5::FromTlv(req.ToTlv());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().want_mutual);
  EXPECT_EQ(back.value().challenge_response, req.challenge_response);
}

TEST(ApMessages5Test, EncApRepPartRoundTrip) {
  kcrypto::Prng prng(8);
  EncApRepPart5 part;
  part.timestamp = 12 * ksim::kSecond;
  part.subkey = prng.NextDesKey().bytes();
  part.initial_seq = 99;
  auto back = EncApRepPart5::FromTlv(part.ToTlv());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().timestamp, part.timestamp);
  EXPECT_EQ(back.value().subkey, part.subkey);
  EXPECT_EQ(back.value().initial_seq, part.initial_seq);
}

TEST(KrbError5Test, RoundTrip) {
  KrbError5 err;
  err.code = kErrMethod;
  err.text = "challenge/response required";
  err.e_data = kerb::Bytes{1, 2, 3};
  auto back = KrbError5::FromTlv(err.ToTlv());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().code, kErrMethod);
  EXPECT_EQ(back.value().e_data, err.e_data);
}

// ------------------------------------------------------------------------
// Fail-closed optional fields: an optional integer field that is present
// but not 4 bytes long is a malformed message, never "field absent". Read
// as absent, a mangled kAddress would switch off the KDC's and the app
// server's address checks, and a mangled kOptions would read as 0.

kenc::TlvMessage WithMisSized(kenc::TlvMessage msg, uint16_t tag) {
  msg.SetBytes(tag, kerb::Bytes{1, 2, 3});
  return msg;
}

TEST(FailClosed5Test, MisSizedAddressFailsTheTicket) {
  kcrypto::Prng prng(21);
  Ticket5 t;
  t.service = Payroll();
  t.client = Alice();
  t.client_addr = 0x0a000001;
  t.session_key = prng.NextDesKey().bytes();
  auto back = Ticket5::FromTlv(WithMisSized(t.ToTlv(), tag::kAddress));
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code, kerb::ErrorCode::kBadFormat);

  // Sealed under the service key, the same ticket does not unseal, so no
  // server ever sees it as an address-free ticket.
  kcrypto::DesKey key = prng.NextDesKey();
  EncLayerConfig config;
  kerb::Bytes sealed = SealTlv(key, WithMisSized(t.ToTlv(), tag::kAddress), config, prng);
  auto unsealed = Ticket5::Unseal(key, sealed, config);
  ASSERT_FALSE(unsealed.ok());
  EXPECT_EQ(unsealed.error().code, kerb::ErrorCode::kBadFormat);
}

TEST(FailClosed5Test, MisSizedChecksumTypeFailsTheAuthenticator) {
  Authenticator5 a;
  a.client = Alice();
  a.timestamp = 1;
  a.checksum_type = kcrypto::ChecksumType::kMd4;
  a.request_checksum = kerb::Bytes(16, 7);
  auto back = Authenticator5::FromTlv(WithMisSized(a.ToTlv(), tag::kChecksumType));
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code, kerb::ErrorCode::kBadFormat);
}

TEST(FailClosed5Test, MisSizedSeqNumberFailsAuthenticatorAndApRepPart) {
  Authenticator5 a;
  a.client = Alice();
  a.timestamp = 1;
  a.initial_seq = 5;
  auto auth = Authenticator5::FromTlv(WithMisSized(a.ToTlv(), tag::kSeqNumber));
  ASSERT_FALSE(auth.ok());
  EXPECT_EQ(auth.error().code, kerb::ErrorCode::kBadFormat);

  EncApRepPart5 part;
  part.timestamp = 1;
  part.initial_seq = 5;
  auto rep = EncApRepPart5::FromTlv(WithMisSized(part.ToTlv(), tag::kSeqNumber));
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.error().code, kerb::ErrorCode::kBadFormat);
}

TEST(FailClosed5Test, MisSizedOptionsFailsAsAndPkAsRequests) {
  AsRequest5 req;
  req.client = Alice();
  req.service_realm = "ATHENA.SIM";
  req.options = kOptOmitAddress;
  auto as = AsRequest5::FromTlv(WithMisSized(req.ToTlv(), tag::kOptions));
  ASSERT_FALSE(as.ok());
  EXPECT_EQ(as.error().code, kerb::ErrorCode::kBadFormat);

  AsPkRequest5 pk;
  pk.client = Alice();
  pk.service_realm = "ATHENA.SIM";
  pk.options = kOptOmitAddress;
  pk.client_pub = kerb::Bytes{9};
  auto pk_back = AsPkRequest5::FromTlv(WithMisSized(pk.ToTlv(), tag::kOptions));
  ASSERT_FALSE(pk_back.ok());
  EXPECT_EQ(pk_back.error().code, kerb::ErrorCode::kBadFormat);
}

TEST(FailClosed5Test, AbsentOptionalFieldsStillReadAsAbsent) {
  Ticket5 t;
  t.service = Payroll();
  t.client = Alice();
  kenc::TlvMessage msg = t.ToTlv();
  ASSERT_FALSE(msg.Has(tag::kAddress));
  auto back = Ticket5::FromTlv(msg);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back.value().client_addr.has_value());

  AsRequest5 req;
  req.client = Alice();
  kenc::TlvMessage as = req.ToTlv();
  as.Remove(tag::kOptions);
  auto as_back = AsRequest5::FromTlv(as);
  ASSERT_TRUE(as_back.ok());
  EXPECT_EQ(as_back.value().options, 0u);
}

}  // namespace
}  // namespace krb5
