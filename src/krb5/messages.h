// Kerberos Version 5 Draft 3 message model.
//
// Everything is a tagged TLV message (src/encoding/tlv.h) — the paper's
// recommendation (b), which Draft 3 adopted via ASN.1: "all encrypted data
// is labeled with the message type prior to encryption." Encrypted parts go
// through the Draft 3 encryption layer (src/krb5/enclayer.h).
//
// Draft 3 behaviours preserved for study:
//   * the TGS request's additional-tickets and authorization-data fields
//     travel OUTSIDE the encryption, protected only by a checksum sealed in
//     the authenticator (the Appendix's cut-and-paste surface, E9);
//   * the ENC-TKT-IN-SKEY and REUSE-SKEY options;
//   * tickets may omit the client network address;
//   * ticket forwarding with a FORWARDED flag but no original source;
//   * a transited-realms list for hierarchical inter-realm authentication.

#ifndef SRC_KRB5_MESSAGES_H_
#define SRC_KRB5_MESSAGES_H_

#include <optional>
#include <string>
#include <vector>

#include "src/crypto/checksum.h"
#include "src/encoding/tlv.h"
#include "src/krb4/principal.h"
#include "src/krb5/enclayer.h"
#include "src/sim/clock.h"

namespace krb5 {

using krb4::Principal;

// Message types (the context labels sealed inside encryptions).
enum MsgType5 : uint16_t {
  kMsgTicket = 1,
  kMsgAuthenticator = 2,
  kMsgAsReq = 10,
  kMsgAsRep = 11,
  kMsgTgsReq = 12,
  kMsgTgsRep = 13,
  kMsgApReq = 14,
  kMsgApRep = 15,
  kMsgEncAsRepPart = 25,
  kMsgEncTgsRepPart = 26,
  kMsgEncApRepPart = 27,
  kMsgSafe = 20,
  kMsgPriv = 21,
  kMsgError = 30,
  kMsgPreauth = 40,    // padata: {nonce, timestamp}K_c
  kMsgChallenge = 41,  // challenge/response AP option payloads
  kMsgAsPkReq = 42,    // public-key preauthenticated AS request
  kMsgAsPkRep = 43,    // its reply
  kMsgPkEncWrap = 44,  // DH-layer wrapper around the sealed enc-part
  // Clustered serving (src/cluster): the V5 spelling of the referral reply.
  // Carries one kClusterBody field holding an encoded kcluster::ReferralBody
  // (the same bytes the V4 frame carries), so both protocol stacks share a
  // single referral codec.
  kMsgClusterReferral = 45,
};

// Field tags.
namespace tag {
constexpr uint16_t kCname = 1;
constexpr uint16_t kCinstance = 2;
constexpr uint16_t kCrealm = 3;
constexpr uint16_t kSname = 4;
constexpr uint16_t kSinstance = 5;
constexpr uint16_t kSrealm = 6;
constexpr uint16_t kAddress = 7;
constexpr uint16_t kIssuedAt = 8;
constexpr uint16_t kLifetime = 9;
constexpr uint16_t kSessionKey = 10;
constexpr uint16_t kNonce = 11;
constexpr uint16_t kTimestamp = 12;
constexpr uint16_t kChecksum = 13;
constexpr uint16_t kChecksumType = 14;
constexpr uint16_t kFlags = 15;
constexpr uint16_t kOptions = 16;
constexpr uint16_t kAdditionalTicket = 17;
constexpr uint16_t kAuthorizationData = 18;
constexpr uint16_t kPadata = 19;
constexpr uint16_t kTransited = 20;
constexpr uint16_t kSubkey = 21;
constexpr uint16_t kSeqNumber = 22;
constexpr uint16_t kEData = 23;
constexpr uint16_t kTicketBlob = 24;
constexpr uint16_t kAuthBlob = 25;
constexpr uint16_t kErrorCode = 26;
constexpr uint16_t kErrorText = 27;
constexpr uint16_t kAppData = 28;
constexpr uint16_t kMutual = 29;
constexpr uint16_t kSealedPart = 30;
constexpr uint16_t kServiceNameCheck = 31;
constexpr uint16_t kDirection = 32;
constexpr uint16_t kTgtRealm = 33;
constexpr uint16_t kAname = 34;
constexpr uint16_t kAinstance = 35;
constexpr uint16_t kArealm = 36;
constexpr uint16_t kChallengeResponse = 37;
constexpr uint16_t kPkPublic = 38;
constexpr uint16_t kClusterBody = 39;  // encoded kcluster::ReferralBody
}  // namespace tag

// Ticket flags.
constexpr uint32_t kFlagForwardable = 1u << 0;
constexpr uint32_t kFlagForwarded = 1u << 1;

// TGS request options.
constexpr uint32_t kOptEncTktInSkey = 1u << 0;
constexpr uint32_t kOptReuseSkey = 1u << 1;
constexpr uint32_t kOptForward = 1u << 2;
constexpr uint32_t kOptOmitAddress = 1u << 3;

// KRB_ERROR codes used by the model.
constexpr uint32_t kErrMethod = 48;  // KRB_AP_ERR_METHOD: use another auth method

// Helpers for principals in TLV messages.
void PutClient(kenc::TlvMessage& msg, const Principal& p);
void PutServer(kenc::TlvMessage& msg, const Principal& p);
kerb::Result<Principal> GetClient(const kenc::TlvMessage& msg);
kerb::Result<Principal> GetServer(const kenc::TlvMessage& msg);

// ---------------------------------------------------------------------------
struct Ticket5 {
  Principal service;
  Principal client;
  uint32_t flags = 0;
  std::optional<uint32_t> client_addr;  // V5 may omit the address
  ksim::Time issued_at = 0;
  ksim::Duration lifetime = 0;
  kcrypto::DesBlock session_key{};
  std::vector<std::string> transited;  // realms crossed, oldest first

  kenc::TlvMessage ToTlv() const;
  // Streams the same bytes as ToTlv().Encode() without building a field map.
  void AppendTlvTo(kenc::Writer& w) const;
  static kerb::Result<Ticket5> FromTlv(const kenc::TlvMessage& msg);

  kerb::Bytes Seal(const kcrypto::DesKey& key, const EncLayerConfig& config,
                   kcrypto::Prng& prng) const;
  static kerb::Result<Ticket5> Unseal(const kcrypto::DesKey& key, kerb::BytesView sealed,
                                      const EncLayerConfig& config);

  // A sum that overflows can only come from garbage fields; it counts as
  // expired rather than wrapping into the validity window.
  bool Expired(ksim::Time now) const {
    ksim::Time end;
    return __builtin_add_overflow(issued_at, lifetime, &end) || now > end;
  }
};

// ---------------------------------------------------------------------------
struct Authenticator5 {
  Principal client;
  ksim::Time timestamp = 0;
  // Checksum over the unencrypted request fields (TGS request) — the seal
  // whose strength experiment E9 probes.
  std::optional<kcrypto::ChecksumType> checksum_type;
  std::optional<kerb::Bytes> request_checksum;
  // Recommendation (e): material for negotiating a true session key.
  std::optional<kcrypto::DesBlock> subkey;
  // Appendix: initial sequence number for KRB_SAFE/KRB_PRIV channels.
  std::optional<uint32_t> initial_seq;
  // The fix for REUSE-SKEY redirection: name the intended service.
  std::optional<std::string> service_name_check;

  kenc::TlvMessage ToTlv() const;
  static kerb::Result<Authenticator5> FromTlv(const kenc::TlvMessage& msg);

  kerb::Bytes Seal(const kcrypto::DesKey& key, const EncLayerConfig& config,
                   kcrypto::Prng& prng) const;
  static kerb::Result<Authenticator5> Unseal(const kcrypto::DesKey& key, kerb::BytesView sealed,
                                             const EncLayerConfig& config);
};

// ---------------------------------------------------------------------------
// AS exchange.
struct AsRequest5 {
  Principal client;
  std::string service_realm;
  ksim::Duration lifetime = 0;
  uint32_t options = 0;  // e.g. kOptOmitAddress
  uint64_t nonce = 0;    // Draft 3's server-to-client challenge/response
  // Optional preauthentication data (padata): recommendation (g). When
  // present it is {nonce}K_c, proving the requester knows the password key.
  std::optional<kerb::Bytes> padata;

  kenc::TlvMessage ToTlv() const;
  static kerb::Result<AsRequest5> FromTlv(const kenc::TlvMessage& msg);
};

struct EncAsRepPart5 {
  kcrypto::DesBlock tgs_session_key{};
  uint64_t nonce = 0;  // must echo the request nonce
  ksim::Time issued_at = 0;
  ksim::Duration lifetime = 0;

  kenc::TlvMessage ToTlv() const;
  void AppendTlvTo(kenc::Writer& w) const;
  static kerb::Result<EncAsRepPart5> FromTlv(const kenc::TlvMessage& msg);
};

struct AsReply5 {
  kerb::Bytes sealed_tgt;       // {Ticket5}K_tgs
  kerb::Bytes sealed_enc_part;  // {EncAsRepPart5}K_c

  kenc::TlvMessage ToTlv() const;
  static kerb::Result<AsReply5> FromTlv(const kenc::TlvMessage& msg);
};

// ---------------------------------------------------------------------------
// Public-key preauthenticated AS exchange (V5 shape of the paper's
// exponential-key-exchange fix). The client's TLV carries a fresh DH
// public value; the reply wraps the ordinary {EncAsRepPart5}K_c in one
// extra layer keyed by the negotiated DH secret, so the password-keyed
// ciphertext that drives offline guessing never crosses the wire bare.
//
// The DH wrapper alone only hides the inner layer from *passive*
// eavesdroppers; an active attacker could supply their own ephemeral key
// and strip it. The padata — {nonce, timestamp, md4(g^a)}K_c, a kMsgPreauth
// TLV sealed under the client's key — is therefore mandatory on this path
// regardless of KdcPolicy5::require_preauth: it proves possession of K_c
// and binds the attacker-controllable DH public to that proof.
struct AsPkRequest5 {
  Principal client;
  std::string service_realm;
  ksim::Duration lifetime = 0;
  uint32_t options = 0;
  uint64_t nonce = 0;
  kerb::Bytes client_pub;  // big-endian g^a mod p
  // Sealed kMsgPreauth TLV: kNonce (== nonce), kTimestamp, kChecksum =
  // md4(client_pub). Optional in the codec, required by the KDC.
  std::optional<kerb::Bytes> padata;

  kenc::TlvMessage ToTlv() const;
  static kerb::Result<AsPkRequest5> FromTlv(const kenc::TlvMessage& msg);
};

struct AsPkReply5 {
  kerb::Bytes server_pub;   // big-endian g^b mod p, plaintext
  kerb::Bytes sealed_tgt;   // {Ticket5}K_tgs, as in the ordinary reply
  // {kMsgPkEncWrap{ {EncAsRepPart5}K_c }}K_dh
  kerb::Bytes sealed_wrap;

  kenc::TlvMessage ToTlv() const;
  static kerb::Result<AsPkReply5> FromTlv(const kenc::TlvMessage& msg);
};

// ---------------------------------------------------------------------------
// TGS exchange. The checksum-bearing fields are canonically encoded by
// ChecksumInput(): exactly the unencrypted fields an adversary can rewrite.
struct TgsRequest5 {
  Principal service;
  ksim::Duration lifetime = 0;
  uint32_t options = 0;
  uint64_t nonce = 0;
  // Realm whose TGS sealed the enclosed TGT. Equal to the serving realm for
  // local requests; names the previous hop for inter-realm requests.
  std::string tgt_realm;
  kerb::Bytes additional_ticket;  // sealed ticket: ENC-TKT-IN-SKEY / REUSE-SKEY
  // Service whose key seals `additional_ticket` (REUSE-SKEY key lookup).
  std::optional<Principal> additional_ticket_service;
  kerb::Bytes authorization_data;  // free-form, outside the encryption
  kerb::Bytes sealed_tgt;            // {Ticket5}K_tgs
  kerb::Bytes sealed_authenticator;  // {Authenticator5}K_c,tgs

  // Canonical bytes covered by the authenticator's request checksum.
  kerb::Bytes ChecksumInput() const;

  kenc::TlvMessage ToTlv() const;
  static kerb::Result<TgsRequest5> FromTlv(const kenc::TlvMessage& msg);
};

struct EncTgsRepPart5 {
  kcrypto::DesBlock session_key{};
  uint64_t nonce = 0;
  ksim::Time issued_at = 0;
  ksim::Duration lifetime = 0;

  kenc::TlvMessage ToTlv() const;
  void AppendTlvTo(kenc::Writer& w) const;
  static kerb::Result<EncTgsRepPart5> FromTlv(const kenc::TlvMessage& msg);
};

struct TgsReply5 {
  kerb::Bytes sealed_ticket;    // {Ticket5}K_s (or K_skey under ENC-TKT-IN-SKEY)
  kerb::Bytes sealed_enc_part;  // {EncTgsRepPart5}K_c,tgs

  kenc::TlvMessage ToTlv() const;
  static kerb::Result<TgsReply5> FromTlv(const kenc::TlvMessage& msg);
};

// ---------------------------------------------------------------------------
// AP exchange.
struct ApRequest5 {
  kerb::Bytes sealed_ticket;
  kerb::Bytes sealed_authenticator;
  bool want_mutual = false;
  kerb::Bytes app_data;
  // Present on the second leg of the challenge/response option: the
  // server's nonce + 1, sealed under the ticket's session key.
  std::optional<kerb::Bytes> challenge_response;

  kenc::TlvMessage ToTlv() const;
  static kerb::Result<ApRequest5> FromTlv(const kenc::TlvMessage& msg);
};

struct EncApRepPart5 {
  ksim::Time timestamp = 0;            // echoes the authenticator
  std::optional<kcrypto::DesBlock> subkey;  // server half of key negotiation
  std::optional<uint32_t> initial_seq;

  kenc::TlvMessage ToTlv() const;
  static kerb::Result<EncApRepPart5> FromTlv(const kenc::TlvMessage& msg);
};

// ---------------------------------------------------------------------------
// KRB_ERROR.
struct KrbError5 {
  uint32_t code = 0;
  std::string text;
  kerb::Bytes e_data;  // e.g. challenge material for KRB_AP_ERR_METHOD

  kenc::TlvMessage ToTlv() const;
  static kerb::Result<KrbError5> FromTlv(const kenc::TlvMessage& msg);
};

}  // namespace krb5

#endif  // SRC_KRB5_MESSAGES_H_
