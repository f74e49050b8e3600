// Authenticated incremental database propagation — the kprop/kpropd
// analogue.
//
// The paper: "The Kerberos master database resides on a single machine...
// copies of the database are distributed to slave servers", and the
// propagation channel is itself a target — a network adversary who can
// splice, replay, or reorder transfers controls what the slaves believe.
// This module ships WAL deltas (src/store/wal.h) from the primary to each
// slave over the simulated network, sealed so exactly those attacks fail:
//
//   * Every frame carries a DES CBC-MAC (zero IV) under a propagation key
//     shared by primary and slaves — fabrication and tampering are
//     kIntegrity rejections.
//   * Every delta names its (from_lsn, to_lsn] window. A slave applies a
//     delta only when from_lsn equals its applied LSN: replays and
//     reordered frames are stale (idempotently re-acked, no state change)
//     and gapped frames are kReplay rejections — a splice can therefore
//     remove only a SUFFIX of the history, never an interior chunk, so a
//     slave is always at a consistent prefix of the primary's history.
//   * When a slave is behind the primary's compaction horizon, the primary
//     falls back to a wholesale snapshot transfer, versioned by its LSN so
//     an old snapshot cannot roll a slave back.
//
// Frames, big-endian, MAC over everything before the 8-byte trailer:
//   delta     := u32 'KPR1' | u8 1 | u64 from_lsn | u64 to_lsn |
//                u32 count | count * (u8 op | lp(payload)) | mac8
//   ack       := u32 'KPR1' | u8 2 | u64 applied_lsn | mac8
//   wholesale := u32 'KPR1' | u8 3 | lp(snapshot_image) | mac8

#ifndef SRC_STORE_KPROP_H_
#define SRC_STORE_KPROP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/crypto/des.h"
#include "src/sim/network.h"
#include "src/store/kstore.h"
#include "src/store/snapshot.h"
#include "src/store/wal.h"

namespace kstore {

constexpr uint32_t kPropMagic = 0x4b505231;  // "KPR1"
constexpr uint8_t kPropDelta = 1;
constexpr uint8_t kPropAck = 2;
constexpr uint8_t kPropWholesale = 3;
constexpr uint16_t kPropPort = 754;  // historical kprop service port
constexpr uint32_t kMaxPropRecords = 1u << 16;

kerb::Bytes EncodeDeltaFrame(const kcrypto::DesKey& key, uint64_t from_lsn,
                             uint64_t to_lsn, const std::vector<WalRecord>& records);
kerb::Bytes EncodeWholesaleFrame(const kcrypto::DesKey& key, kerb::BytesView snapshot_image);
kerb::Bytes EncodeAckFrame(const kcrypto::DesKey& key, uint64_t applied_lsn);

// MAC-checks and decodes an ack; the primary's view of a slave's reply.
kerb::Result<uint64_t> ParseAckFrame(const kcrypto::DesKey& key, kerb::BytesView frame);

// Slave-side endpoint: verifies, orders, and applies propagation frames.
// Database mutations go through the two callbacks so this layer stays free
// of protocol types:
//   applier(op, payload) applies one WAL record;
//   loader(snapshot)     replaces the database wholesale.
class PropagationSink {
 public:
  using Applier = std::function<kerb::Status(uint8_t op, kerb::BytesView payload)>;
  using Loader = std::function<kerb::Status(const Snapshot& snapshot)>;

  PropagationSink(kcrypto::DesKey key, uint64_t applied_lsn, Applier applier, Loader loader)
      : key_(key), applied_(applied_lsn), applier_(std::move(applier)),
        loader_(std::move(loader)) {}

  // Network handler body. Returns the ack frame on success; errors
  // propagate to the caller as the handler result. Atomic per frame: a
  // delta is fully parsed and verified before any record is applied.
  kerb::Result<kerb::Bytes> Handle(const ksim::Message& msg);

  uint64_t applied_lsn() const { return applied_; }

 private:
  kerb::Result<kerb::Bytes> HandleDelta(kenc::Reader& r);
  kerb::Result<kerb::Bytes> HandleWholesale(kenc::Reader& r);
  kerb::Bytes Ack() const;

  kcrypto::DesKey key_;
  uint64_t applied_;
  Applier applier_;
  Loader loader_;
};

// Primary-side driver: tracks each slave's acknowledged LSN and pushes
// chunked deltas (or a wholesale snapshot when the delta history is
// compacted away) until every slave matches the primary.
class Propagator {
 public:
  struct Options {
    uint16_t port = kPropPort;
    // Records per delta frame. Small chunks mean an interrupted cycle
    // still lands complete prefixes on the slave.
    uint32_t chunk_records = 4;
  };

  struct CycleReport {
    uint64_t frames_sent = 0;
    uint64_t bytes_sent = 0;
    uint64_t records_shipped = 0;
    uint64_t wholesale_transfers = 0;
    uint64_t wholesale_bytes = 0;
    uint64_t failures = 0;  // transport or rejection; cycle moved on
    bool slaves_converged = false;
  };

  // `order` is the key order of the store's entries. A slave behind the
  // compaction horizon gets a wholesale transfer of the store's fold
  // (KStore::Fold) at last_lsn().
  Propagator(ksim::Network* net, KStore* store, kcrypto::DesKey key,
             uint32_t primary_host, Options options, EntryOrder order)
      : net_(net), store_(store), key_(key), primary_host_(primary_host),
        options_(options), order_(order) {}

  // Binds `sink`'s handler at {slave_host, options.port} and registers the
  // slave for propagation. The sink must outlive the propagator.
  void AddSlave(uint32_t slave_host, PropagationSink* sink);

  // One propagation cycle: advance every slave toward last_lsn(). A failed
  // frame abandons that slave for this cycle (it stays at its last
  // acknowledged prefix) and the cycle continues with the next slave.
  CycleReport Propagate();

  size_t slave_count() const { return slaves_.size(); }

 private:
  struct SlaveState {
    uint32_t host = 0;
    uint64_t acked_lsn = 0;
  };

  bool AdvanceSlave(SlaveState& slave, uint64_t target, CycleReport& report);

  ksim::Network* net_;
  KStore* store_;
  kcrypto::DesKey key_;
  uint32_t primary_host_;
  Options options_;
  EntryOrder order_;
  std::vector<SlaveState> slaves_;
};

}  // namespace kstore

#endif  // SRC_STORE_KPROP_H_
