#include "src/cluster/cluster.h"

#include <algorithm>
#include <utility>

#include "src/crypto/str2key.h"
#include "src/encoding/io.h"
#include "src/encoding/tlv.h"
#include "src/krb4/messages.h"
#include "src/krb5/messages.h"
#include "src/obs/kobs.h"
#include "src/store/snapshot.h"

namespace kcluster {

namespace {

kcrypto::DesKey PropKey(const std::string& realm) {
  // Same derivation kprop uses, so the cluster data plane and the classic
  // replica sets speak under the same realm-derived key.
  return kcrypto::StringToKey("kprop/" + realm, realm);
}

}  // namespace

// --- ClusterNode ------------------------------------------------------------

ClusterNode::ClusterNode(ksim::World* world, const ClusterConfig& config,
                         uint64_t node_id, uint32_t host, krb4::KdcDatabase slice,
                         uint64_t base_lsn)
    : world_(world),
      config_(config),
      node_id_(node_id),
      host_(host),
      prng_(config.seed ^ (node_id * 0x9e3779b97f4a7c15ull)),
      ctx_(prng_.Fork()),
      ctl_key_(ClusterKey(config.realm)),
      prop_key_(PropKey(config.realm)),
      ring_(config.ring) {
  if (config_.protocol == Protocol::kV4) {
    krb4::KdcOptions options;
    options.reply_cache_window = config_.reply_cache_window;
    core4_.emplace(world_->MakeHostClock(), config_.realm, std::move(slice), options);
  } else {
    krb5::KdcPolicy5 policy;
    policy.reply_cache_window = config_.reply_cache_window;
    core5_.emplace(world_->MakeHostClock(), config_.realm, std::move(slice), policy);
  }
  store_ = std::make_unique<kstore::KStore>(prng_.Fork(), kstore::KStoreOptions{},
                                            krb4::SnapshotDatabase(db(), base_lsn));
  MakeSink(base_lsn);
}

void ClusterNode::MakeSink(uint64_t applied_lsn) {
  sink_ = std::make_unique<kstore::PropagationSink>(
      prop_key_, applied_lsn,
      [this](uint8_t op, kerb::BytesView payload) { return ApplyRecord(op, payload); },
      [this](const kstore::Snapshot& snapshot) { return LoadWholesale(snapshot); });
}

void ClusterNode::Bind() {
  ksim::Network& net = world_->network();
  net.Bind({host_, config_.as_port},
           [this](const ksim::Message& msg) { return HandleKdc(false, msg); });
  net.Bind({host_, config_.tgs_port},
           [this](const ksim::Message& msg) { return HandleKdc(true, msg); });
  net.Bind({host_, config_.ctl_port},
           [this](const ksim::Message& msg) { return HandleCtl(msg); });
  net.Bind({host_, config_.prop_port},
           [this](const ksim::Message& msg) -> kerb::Result<kerb::Bytes> {
             if (crashed_) {
               return kerb::MakeError(kerb::ErrorCode::kTransport, "cluster node down");
             }
             return sink_->Handle(msg);
           });
}

bool ClusterNode::OwnedOrInfra(const krb4::Principal& p) const {
  if (IsInfraPrincipal(p)) {
    return true;
  }
  if (ring_.empty()) {
    return true;  // no view yet — serve everything rather than black-hole
  }
  const RingMember* owner = ring_.OwnerOfPrincipal(p);
  return owner != nullptr && owner->node_id == node_id_;
}

bool ClusterNode::ExtractRoutingPrincipal(bool tgs, kerb::BytesView payload,
                                          krb4::Principal* out) const {
  (void)tgs;  // the frame type, not the port, names the routing field
  if (config_.protocol == Protocol::kV4) {
    auto framed = krb4::Unframe4(payload);
    if (!framed.ok()) {
      return false;
    }
    switch (framed.value().first) {
      case krb4::MsgType::kAsRequest: {
        auto req = krb4::AsRequest4::Decode(framed.value().second);
        if (!req.ok()) {
          return false;
        }
        *out = req.value().client;
        return true;
      }
      case krb4::MsgType::kAsPkRequest: {
        auto req = krb4::AsPkRequest4::Decode(framed.value().second);
        if (!req.ok()) {
          return false;
        }
        *out = req.value().client;
        return true;
      }
      case krb4::MsgType::kTgsRequest: {
        auto req = krb4::TgsRequest4::Decode(framed.value().second);
        if (!req.ok()) {
          return false;
        }
        *out = req.value().service;
        return true;
      }
      default:
        return false;
    }
  }
  auto tlv = kenc::TlvMessage::Decode(payload);
  if (!tlv.ok()) {
    return false;
  }
  switch (tlv.value().type()) {
    case krb5::kMsgAsReq: {
      auto req = krb5::AsRequest5::FromTlv(tlv.value());
      if (!req.ok()) {
        return false;
      }
      *out = req.value().client;
      return true;
    }
    case krb5::kMsgAsPkReq: {
      auto req = krb5::AsPkRequest5::FromTlv(tlv.value());
      if (!req.ok()) {
        return false;
      }
      *out = req.value().client;
      return true;
    }
    case krb5::kMsgTgsReq: {
      auto req = krb5::TgsRequest5::FromTlv(tlv.value());
      if (!req.ok()) {
        return false;
      }
      *out = req.value().service;
      return true;
    }
    default:
      return false;
  }
}

kerb::Bytes ClusterNode::ReferralReply(const krb4::Principal& p) {
  ReferralBody body;
  body.view = *view_;
  const RingMember* owner = ring_.OwnerOfPrincipal(p);
  body.owner_node_id = owner != nullptr ? owner->node_id : 0;
  ++referrals_sent_;
  kobs::EmitNow(kobs::kSrcCluster, kobs::Ev::kClusterReferral, node_id_,
                body.owner_node_id);
  const kerb::Bytes encoded = EncodeReferralBody(body);
  if (config_.protocol == Protocol::kV4) {
    return krb4::Frame4(krb4::MsgType::kClusterReferral, encoded);
  }
  kenc::TlvMessage msg(krb5::kMsgClusterReferral);
  msg.SetBytes(krb5::tag::kClusterBody, encoded);
  return msg.Encode();
}

kerb::Result<kerb::Bytes> ClusterNode::HandleKdc(bool tgs, const ksim::Message& msg) {
  if (crashed_) {
    return kerb::MakeError(kerb::ErrorCode::kTransport, "cluster node down");
  }
  krb4::Principal routing;
  if (view_.has_value() && !ring_.empty() &&
      ExtractRoutingPrincipal(tgs, msg.payload, &routing) && !OwnedOrInfra(routing)) {
    // Not ours: teach the client the current view. Undecodable requests
    // fall through to the core, which rejects them itself — routing must
    // never mask a fail-closed parse.
    return ReferralReply(routing);
  }
  busy_us_ += config_.node_service_time;
  if (config_.advance_clock_per_request) {
    world_->clock().Advance(config_.node_service_time);
  }
  ++requests_served_;
  if (core4_.has_value()) {
    return tgs ? core4_->HandleTgs(msg, ctx_) : core4_->HandleAs(msg, ctx_);
  }
  return tgs ? core5_->HandleTgs(msg, ctx_) : core5_->HandleAs(msg, ctx_);
}

kerb::Result<kerb::Bytes> ClusterNode::HandleCtl(const ksim::Message& msg) {
  if (crashed_) {
    return kerb::MakeError(kerb::ErrorCode::kTransport, "cluster node down");
  }
  auto opened = OpenCtlFrame(ctl_key_, msg.payload);
  if (!opened.ok()) {
    return opened.error();
  }
  switch (opened.value().first) {
    case kCtlPing: {
      auto from = ParsePingBody(opened.value().second);
      if (!from.ok()) {
        return from.error();
      }
      return EncodePongFrame(ctl_key_, {node_id_, view_epoch(), sink_->applied_lsn()});
    }
    case kCtlRing: {
      auto announce = ParseRingBody(opened.value().second);
      if (!announce.ok()) {
        return announce.error();
      }
      if (!view_.has_value() || announce.value().epoch > view_->epoch) {
        AdoptView(announce.value());
      }
      return EncodeRingAckFrame(ctl_key_, {node_id_, view_epoch()});
    }
    case kCtlLoad: {
      auto load = ParseLoadBody(opened.value().second);
      if (!load.ok()) {
        return load.error();
      }
      if (load.value().epoch != view_epoch()) {
        return kerb::MakeError(kerb::ErrorCode::kReplay, "cluster: stale load epoch");
      }
      // Decode everything before applying anything — a load lands whole or
      // not at all. Loads are deliberately NOT journaled locally (that
      // would break the local-LSN == controller-LSN correspondence); a
      // crash loses them, and the always-wholesale rejoin restores them.
      std::vector<std::pair<krb4::Principal, krb4::PrincipalEntry>> pending;
      pending.reserve(load.value().entries.size());
      for (const kerb::Bytes& record : load.value().entries) {
        kenc::Reader r(record);
        auto decoded = krb4::DecodePrincipalEntry(r);
        if (!decoded.ok()) {
          return decoded.error();
        }
        if (!r.AtEnd()) {
          return kerb::MakeError(kerb::ErrorCode::kBadFormat,
                                 "cluster: trailing load-entry bytes");
        }
        pending.push_back(std::move(decoded).value());
      }
      for (const auto& [principal, entry] : pending) {
        db().ApplyEntry(principal, entry);
      }
      kobs::EmitNow(kobs::kSrcCluster, kobs::Ev::kClusterOp, pending.size(), 2);
      return EncodeLoadAckFrame(ctl_key_, static_cast<uint32_t>(pending.size()));
    }
    default:
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: unexpected ctl frame");
  }
}

kerb::Status ClusterNode::ApplyRecord(uint8_t op, kerb::BytesView payload) {
  // Exactly one local append per controller record — owned records verbatim,
  // everything else as a cluster-mark placeholder — so the local WAL LSN
  // tracks the controller LSN one-for-one.
  if (op == kstore::kWalOpClusterMark) {
    store_->Append(op, payload);
    return kerb::Status::Ok();
  }
  kenc::Reader r(payload);
  if (op == kstore::kWalOpDelete) {
    auto principal = krb4::Principal::DecodeFrom(r);
    if (!principal.ok()) {
      return principal.error();
    }
    if (!r.AtEnd()) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat,
                             "cluster: trailing delete bytes");
    }
    if (!OwnedOrInfra(principal.value())) {
      store_->Append(kstore::kWalOpClusterMark, {});
      return kerb::Status::Ok();
    }
    store_->Append(op, payload);
    db().Remove(principal.value());
    return kerb::Status::Ok();
  }
  if (op != kstore::kWalOpUpsert) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: unknown record op");
  }
  auto decoded = krb4::DecodePrincipalEntry(r);
  if (!decoded.ok()) {
    return decoded.error();
  }
  if (!r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: trailing upsert bytes");
  }
  if (!OwnedOrInfra(decoded.value().first)) {
    store_->Append(kstore::kWalOpClusterMark, {});
    return kerb::Status::Ok();
  }
  store_->Append(op, payload);
  if (!db().ApplyEntry(decoded.value().first, decoded.value().second)) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "cluster: entry rejected");
  }
  return kerb::Status::Ok();
}

kerb::Status ClusterNode::LoadWholesale(const kstore::Snapshot& snapshot) {
  auto loaded = krb4::LoadSnapshotEntries(db(), snapshot);
  if (!loaded.ok()) {
    return loaded;
  }
  // The received slice becomes the new durable base: the local WAL restarts
  // at the snapshot's (controller) LSN. Compact() cannot do this — it
  // requires snapshot.lsn == the local last_lsn, and a catch-up snapshot is
  // by definition ahead of it.
  store_ = std::make_unique<kstore::KStore>(prng_.Fork(), kstore::KStoreOptions{},
                                            snapshot);
  return kerb::Status::Ok();
}

void ClusterNode::AdoptView(const RingAnnounce& view) {
  view_ = view;
  ring_ = HashRing(view.ring);
  ring_.SetMembers(view.epoch, view.members);
  // Prune what the new view assigns elsewhere. Not journaled: local WAL
  // records stay a 1:1 image of the controller feed, and the rejoin
  // wholesale re-prunes anything a recovery resurrects.
  std::vector<krb4::Principal> drop;
  db().ForEachEntry([&](const krb4::Principal& p, const krb4::PrincipalEntry& entry) {
    (void)entry;
    if (!OwnedOrInfra(p)) {
      drop.push_back(p);
    }
  });
  for (const krb4::Principal& p : drop) {
    db().Remove(p);
  }
}

void ClusterNode::Crash() {
  crashed_ = true;
  store_->Crash();
}

kerb::Status ClusterNode::Recover() {
  auto recovered = store_->Recover();
  if (!recovered.ok()) {
    return recovered.error();
  }
  auto loaded = krb4::LoadSnapshotEntries(db(), recovered.value().base);
  if (!loaded.ok()) {
    return loaded;
  }
  for (const kstore::WalRecord& record : recovered.value().records) {
    if (record.op == kstore::kWalOpClusterMark) {
      continue;
    }
    auto applied = krb4::ApplyStoreRecord(db(), record.op, record.payload);
    if (!applied.ok()) {
      return applied;
    }
  }
  MakeSink(recovered.value().last_lsn);
  // The pre-crash ring view is stale by assumption; drop it and let the
  // controller re-teach on rejoin (pong reports epoch 0, which forces a
  // wholesale re-sync even when membership never changed).
  view_.reset();
  ring_ = HashRing(config_.ring);
  crashed_ = false;
  return kerb::Status::Ok();
}

// --- ClusterController ------------------------------------------------------

ClusterController::ClusterController(ksim::World* world, ClusterConfig config)
    : world_(world),
      config_(std::move(config)),
      prng_(config_.seed),
      ctl_key_(ClusterKey(config_.realm)),
      prop_key_(PropKey(config_.realm)),
      ring_(config_.ring) {}

std::vector<RingMember> ClusterController::UpMembers() const {
  std::vector<RingMember> up;
  up.reserve(nodes_.size());
  for (const NodeState& ns : nodes_) {
    if (ns.up) {
      up.push_back(ns.member);
    }
  }
  return up;
}

bool ClusterController::OwnedByOrInfra(uint64_t node_id, const krb4::Principal& p) const {
  if (IsInfraPrincipal(p)) {
    return true;
  }
  const RingMember* owner = ring_.OwnerOfPrincipal(p);
  return owner != nullptr && owner->node_id == node_id;
}

void ClusterController::Bootstrap(const std::vector<RingMember>& members) {
  epoch_ = 1;
  ring_ = HashRing(config_.ring);
  ring_.SetMembers(epoch_, members);
  store_ = std::make_unique<kstore::KStore>(prng_.Fork(), kstore::KStoreOptions{},
                                            krb4::SnapshotDatabase(logical_, 0));
  logical_.AttachJournal(store_.get());
  nodes_.reserve(members.size());
  // View() derives its member list from nodes_, which is still empty here —
  // splice in the bootstrap membership explicitly.
  RingAnnounce view = View();
  view.members = members;
  for (const RingMember& member : members) {
    krb4::KdcDatabase slice;
    slice.Reserve(logical_.size() / std::max<size_t>(members.size(), 1) +
                  logical_.size() / (4 * std::max<size_t>(members.size(), 1)) + 16);
    logical_.ForEachEntry(
        [&](const krb4::Principal& p, const krb4::PrincipalEntry& entry) {
          if (OwnedByOrInfra(member.node_id, p)) {
            slice.ApplyEntry(p, entry);
          }
        });
    NodeState ns;
    ns.member = member;
    ns.node = std::make_unique<ClusterNode>(world_, config_, member.node_id, member.host,
                                            std::move(slice), 0);
    ns.node->Bind();
    // Bootstrap is setup, not protocol: install the view directly instead
    // of racing the first ring frame against a chaos plan's link faults.
    ns.node->AdoptView(view);
    ns.synced_epoch = epoch_;
    ns.acked_lsn = store_->last_lsn();
    nodes_.push_back(std::move(ns));
  }
}

RingAnnounce ClusterController::View() const {
  RingAnnounce view;
  view.epoch = epoch_;
  view.ring = config_.ring;
  view.as_port = config_.as_port;
  view.tgs_port = config_.tgs_port;
  view.ctl_port = config_.ctl_port;
  view.members = UpMembers();
  return view;
}

void ClusterController::AppendEpochMark() {
  kenc::Writer w;
  w.PutU32(epoch_);
  store_->Append(kstore::kWalOpClusterMark, w.Peek());
}

bool ClusterController::Ping(NodeState& ns, PongInfo* pong) {
  const ksim::NetAddress src{config_.controller_host, config_.ctl_port};
  const ksim::NetAddress dst{ns.member.host, config_.ctl_port};
  // Two attempts so one dropped datagram on a faulty link is not read as a
  // node loss; a real outage fails both deterministically.
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto reply = world_->network().Call(src, dst, EncodePingFrame(ctl_key_, 0));
    if (!reply.ok()) {
      ++stats_.probe_failures;
      continue;
    }
    auto opened = OpenCtlFrame(ctl_key_, reply.value());
    if (!opened.ok() || opened.value().first != kCtlPong) {
      ++stats_.probe_failures;
      continue;
    }
    auto info = ParsePongBody(opened.value().second);
    if (!info.ok() || info.value().node_id != ns.member.node_id) {
      ++stats_.probe_failures;
      continue;
    }
    *pong = info.value();
    return true;
  }
  return false;
}

bool ClusterController::ShipRing(NodeState& ns) {
  const ksim::NetAddress src{config_.controller_host, config_.ctl_port};
  const ksim::NetAddress dst{ns.member.host, config_.ctl_port};
  auto reply = world_->network().Call(src, dst, EncodeRingFrame(ctl_key_, View()));
  if (!reply.ok()) {
    return false;
  }
  auto opened = OpenCtlFrame(ctl_key_, reply.value());
  if (!opened.ok() || opened.value().first != kCtlRingAck) {
    return false;
  }
  auto ack = ParseRingAckBody(opened.value().second);
  if (!ack.ok() || ack.value().node_id != ns.member.node_id ||
      ack.value().epoch != epoch_) {
    return false;
  }
  ns.synced_epoch = epoch_;
  return true;
}

uint64_t ClusterController::ShipGained(NodeState& ns, const HashRing& prev) {
  std::vector<kerb::Bytes> gained;
  logical_.ForEachEntry([&](const krb4::Principal& p, const krb4::PrincipalEntry& entry) {
    if (IsInfraPrincipal(p)) {
      return;  // replicated everywhere already
    }
    const uint64_t hash = krb4::PrincipalStore::Hash(p);
    const RingMember* now = ring_.OwnerOf(hash);
    if (now == nullptr || now->node_id != ns.member.node_id) {
      return;
    }
    const RingMember* before = prev.OwnerOf(hash);
    if (before != nullptr && before->node_id == ns.member.node_id) {
      return;
    }
    gained.push_back(krb4::EncodePrincipalEntry(p, entry));
  });
  const ksim::NetAddress src{config_.controller_host, config_.ctl_port};
  const ksim::NetAddress dst{ns.member.host, config_.ctl_port};
  uint64_t shipped = 0;
  for (size_t start = 0; start < gained.size(); start += config_.load_chunk_entries) {
    LoadFrame frame;
    frame.epoch = epoch_;
    const size_t end = std::min(gained.size(),
                                start + static_cast<size_t>(config_.load_chunk_entries));
    frame.entries.assign(gained.begin() + static_cast<ptrdiff_t>(start),
                         gained.begin() + static_cast<ptrdiff_t>(end));
    auto reply = world_->network().Call(src, dst, EncodeLoadFrame(ctl_key_, frame));
    bool ok = reply.ok();
    if (ok) {
      auto opened = OpenCtlFrame(ctl_key_, reply.value());
      ok = opened.ok() && opened.value().first == kCtlLoadAck;
      if (ok) {
        auto count = ParseLoadAckBody(opened.value().second);
        ok = count.ok() && count.value() == frame.entries.size();
      }
    }
    if (!ok) {
      // A lost or rejected load leaves the node short of its new range —
      // flag it for the wholesale hammer rather than guessing what landed.
      ns.needs_wholesale = true;
      break;
    }
    shipped += frame.entries.size();
  }
  stats_.entries_shipped += shipped;
  return shipped;
}

kstore::Snapshot ClusterController::SliceSnapshot(uint64_t node_id, uint64_t lsn) const {
  std::vector<std::pair<krb4::Principal, kerb::Bytes>> entries;
  logical_.ForEachEntry([&](const krb4::Principal& p, const krb4::PrincipalEntry& entry) {
    if (OwnedByOrInfra(node_id, p)) {
      entries.emplace_back(p, krb4::EncodePrincipalEntry(p, entry));
    }
  });
  // Canonical order, matching SnapshotDatabase, so slice equivalence can be
  // checked bytewise.
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  kstore::Snapshot snapshot;
  snapshot.lsn = lsn;
  snapshot.entries.reserve(entries.size());
  for (auto& [principal, record] : entries) {
    (void)principal;
    snapshot.entries.push_back(std::move(record));
  }
  return snapshot;
}

bool ClusterController::SyncNode(NodeState& ns) {
  const ksim::NetAddress src{config_.controller_host, config_.prop_port};
  const ksim::NetAddress dst{ns.member.host, config_.prop_port};
  while (ns.needs_wholesale || ns.acked_lsn < store_->last_lsn()) {
    kerb::Bytes frame;
    uint64_t frame_to = 0;
    std::vector<kstore::WalRecord> delta;
    if (!ns.needs_wholesale && store_->Delta(ns.acked_lsn, &delta)) {
      if (delta.empty()) {
        return true;
      }
      if (delta.size() > config_.delta_chunk_records) {
        delta.resize(config_.delta_chunk_records);
      }
      frame_to = delta.back().lsn;
      frame = kstore::EncodeDeltaFrame(prop_key_, ns.acked_lsn, frame_to, delta);
    } else {
      // Wholesale: the node's current ring slice at the controller's LSN.
      // A mark keeps last_lsn strictly above the node's applied LSN so the
      // sink's rollback stale-guard cannot reject the catch-up.
      if (store_->last_lsn() <= ns.acked_lsn) {
        AppendEpochMark();
      }
      frame_to = store_->last_lsn();
      frame = kstore::EncodeWholesaleFrame(
          prop_key_, kstore::EncodeSnapshot(SliceSnapshot(ns.member.node_id, frame_to)));
      ++stats_.wholesale_transfers;
    }
    auto reply = world_->network().Call(src, dst, frame);
    if (!reply.ok()) {
      return false;
    }
    auto ack = kstore::ParseAckFrame(prop_key_, reply.value());
    if (!ack.ok() || ack.value() < frame_to || ack.value() <= ns.acked_lsn) {
      return false;  // no progress — bail rather than loop
    }
    ns.acked_lsn = ack.value();
    ns.needs_wholesale = false;
  }
  return true;
}

void ClusterController::Rebalance(const HashRing& prev) {
  ++stats_.rebalances;
  // 1. Flush the delta tail to healthy nodes so the additive loads below
  //    are computed against fully-applied data.
  for (NodeState& ns : nodes_) {
    if (ns.up && !ns.needs_wholesale) {
      SyncNode(ns);
    }
  }
  // 2. Teach every up node the new ring (they prune on adopt).
  for (NodeState& ns : nodes_) {
    if (ns.up) {
      ShipRing(ns);
    }
  }
  // 3. Ship each gaining node the ranges that moved to it — only the
  //    affected hash ranges, never the whole database.
  uint64_t shipped = 0;
  for (NodeState& ns : nodes_) {
    if (ns.up && !ns.needs_wholesale && ns.synced_epoch == epoch_) {
      shipped += ShipGained(ns, prev);
    }
  }
  // 4. Wholesale catch-up for rejoiners and anyone a load failed on.
  for (NodeState& ns : nodes_) {
    if (ns.up && ns.needs_wholesale && ns.synced_epoch == epoch_) {
      SyncNode(ns);
    }
  }
  kobs::EmitNow(kobs::kSrcCluster, kobs::Ev::kClusterRebalance, epoch_, shipped);
}

bool ClusterController::ProbeAll() {
  bool changed = false;
  for (NodeState& ns : nodes_) {
    PongInfo pong;
    const bool alive = Ping(ns, &pong);
    if (ns.up && !alive) {
      ns.up = false;
      ++stats_.nodes_lost;
      ++epoch_;
      const HashRing prev = ring_;
      ring_.SetMembers(epoch_, UpMembers());
      AppendEpochMark();
      kobs::EmitNow(kobs::kSrcCluster, kobs::Ev::kClusterNodeDown, ns.member.node_id,
                    epoch_);
      Rebalance(prev);
      changed = true;
    } else if (!ns.up && alive) {
      ns.up = true;
      ++stats_.nodes_rejoined;
      ++epoch_;
      const HashRing prev = ring_;
      ring_.SetMembers(epoch_, UpMembers());
      AppendEpochMark();
      ns.acked_lsn = pong.applied_lsn;
      ns.synced_epoch = 0;
      ns.needs_wholesale = true;
      kobs::EmitNow(kobs::kSrcCluster, kobs::Ev::kClusterNodeUp, ns.member.node_id,
                    epoch_);
      Rebalance(prev);
      changed = true;
    } else if (ns.up && alive && pong.epoch != epoch_) {
      // Up but amnesiac: the node recovered in place (crash + restart
      // between probes) and dropped its view. Membership is unchanged — no
      // epoch bump — but the node needs the ring back and a wholesale
      // re-sync (un-journaled range loads may be lost).
      ns.acked_lsn = pong.applied_lsn;
      ns.needs_wholesale = true;
      if (ShipRing(ns)) {
        SyncNode(ns);
      }
    }
  }
  return changed;
}

void ClusterController::PropagateAll() {
  for (NodeState& ns : nodes_) {
    if (ns.up) {
      SyncNode(ns);
    }
  }
}

void ClusterController::Maintain() {
  for (NodeState& ns : nodes_) {
    if (!ns.up) {
      continue;
    }
    if (ns.synced_epoch != epoch_) {
      if (!ShipRing(ns)) {
        continue;
      }
      // The node missed a rebalance's loads or prunes; wholesale covers
      // whatever state the partial update left behind.
      ns.needs_wholesale = true;
    }
    if (ns.needs_wholesale || ns.acked_lsn < store_->last_lsn()) {
      SyncNode(ns);
    }
  }
}

bool ClusterController::NodeSliceConsistent(uint64_t node_id) const {
  const NodeState* found = nullptr;
  for (const NodeState& ns : nodes_) {
    if (ns.member.node_id == node_id) {
      found = &ns;
      break;
    }
  }
  if (found == nullptr) {
    return false;
  }
  std::vector<kerb::Bytes> want;
  logical_.ForEachEntry([&](const krb4::Principal& p, const krb4::PrincipalEntry& entry) {
    if (OwnedByOrInfra(node_id, p)) {
      want.push_back(krb4::EncodePrincipalEntry(p, entry));
    }
  });
  std::vector<kerb::Bytes> have;
  found->node->database().ForEachEntry(
      [&](const krb4::Principal& p, const krb4::PrincipalEntry& entry) {
        have.push_back(krb4::EncodePrincipalEntry(p, entry));
      });
  // Principals are unique on each side, so the canonical entry order makes
  // equal entry sets equal sequences.
  auto by_principal = [](const kerb::Bytes& a, const kerb::Bytes& b) {
    return krb4::ComparePrincipalEntries(a, b) < 0;
  };
  std::sort(want.begin(), want.end(), by_principal);
  std::sort(have.begin(), have.end(), by_principal);
  return want == have;
}

bool ClusterController::AllSlicesConsistent() const {
  for (const NodeState& ns : nodes_) {
    if (ns.up && !NodeSliceConsistent(ns.member.node_id)) {
      return false;
    }
  }
  return true;
}

ClusterNode* ClusterController::node(uint64_t node_id) {
  for (NodeState& ns : nodes_) {
    if (ns.member.node_id == node_id) {
      return ns.node.get();
    }
  }
  return nullptr;
}

bool ClusterController::node_up(uint64_t node_id) const {
  for (const NodeState& ns : nodes_) {
    if (ns.member.node_id == node_id) {
      return ns.up;
    }
  }
  return false;
}

std::vector<uint64_t> ClusterController::node_ids() const {
  std::vector<uint64_t> ids;
  ids.reserve(nodes_.size());
  for (const NodeState& ns : nodes_) {
    ids.push_back(ns.member.node_id);
  }
  return ids;
}

}  // namespace kcluster
