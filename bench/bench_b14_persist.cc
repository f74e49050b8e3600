// B14 — durable-store throughput: WAL append rate, recovery replay rate,
// and the incremental-vs-wholesale propagation byte cost.
//
// The quantitative side of the kstore subsystem (src/store): how fast the
// primary can journal registrations, how fast a crashed KDC replays its
// log back into a serving database, and the wire-size argument for kprop
// deltas — shipping the few records a slave is missing instead of the
// whole database. bench_baseline.py records all four numbers into the
// BENCH_*.json "persist" section; the delta/wholesale ratio is the
// headline (acceptance: strictly below 1 for small changes).

#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/crypto/prng.h"
#include "src/krb4/database.h"
#include "src/krb4/kdcstore.h"
#include "src/sim/clock.h"
#include "src/sim/network.h"
#include "src/store/kstore.h"

namespace {

using krb4::KdcDatabase;
using krb4::Principal;

constexpr int kBaseUsers = 64;  // population snapshotted before journaling

KdcDatabase PopulatedDatabase() {
  KdcDatabase db;
  for (int i = 0; i < kBaseUsers; ++i) {
    db.AddUser(Principal::User("user" + std::to_string(i), "R"), "pw" + std::to_string(i));
  }
  return db;
}

void PrintExperimentReport() {
  kbench::Header("B14", "durable KDC database: WAL, recovery, and kprop transfer cost");
  kbench::Line("  BM_WalAppend journals principal upserts (frame + CRC + flush) on an");
  kbench::Line("  honest simulated device. BM_WalRecover replays a durable snapshot +");
  kbench::Line("  WAL suffix back into a serving database. BM_PropDelta runs full kprop");
  kbench::Line("  cycles and exports the delta vs wholesale bytes for a one-user change");
  kbench::Line("  against a " + std::to_string(kBaseUsers) + "-user database.");
}

void BM_WalAppend(benchmark::State& state) {
  KdcDatabase db = PopulatedDatabase();
  kstore::KStore store(kcrypto::Prng(0xb14), {}, krb4::SnapshotDatabase(db, 0));
  db.AttachJournal(&store);
  kcrypto::Prng prng(0x5eedb14);
  const kcrypto::DesKey key = prng.NextDesKey();
  uint64_t bytes = 0;
  uint64_t i = 0;
  for (auto _ : state) {
    db.ApplyUpsert(Principal::User("user" + std::to_string(i % kBaseUsers), "R"), key,
                   krb4::PrincipalKind::kUser);
    ++i;
    // Bound log growth: the append path is the cost under test, an
    // ever-longer live window is not.
    if (store.last_lsn() % 4096 == 0) {
      bytes += store.device().durable_size("kdb.wal");
      store.Compact(store.Fold(&krb4::ComparePrincipalEntries).value());
    }
  }
  benchmark::DoNotOptimize(bytes);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_WalAppend)->Unit(benchmark::kMicrosecond);

void BM_WalRecover(benchmark::State& state) {
  const int64_t records = state.range(0);
  KdcDatabase db = PopulatedDatabase();
  kstore::KStore store(kcrypto::Prng(0xb14), {}, krb4::SnapshotDatabase(db, 0));
  db.AttachJournal(&store);
  kcrypto::Prng prng(0x5eedb14);
  for (int64_t i = 0; i < records; ++i) {
    db.ApplyUpsert(Principal::User("user" + std::to_string(i % kBaseUsers), "R"),
                   prng.NextDesKey(), krb4::PrincipalKind::kUser);
  }
  for (auto _ : state) {
    auto recovered = store.Recover();
    if (!recovered.ok()) {
      state.SkipWithError(recovered.error().detail.c_str());
      return;
    }
    KdcDatabase rebuilt;
    if (!krb4::LoadSnapshotEntries(rebuilt, recovered.value().base).ok()) {
      state.SkipWithError("snapshot load failed");
      return;
    }
    for (const kstore::WalRecord& record : recovered.value().records) {
      if (!krb4::ApplyStoreRecord(rebuilt, record.op, record.payload).ok()) {
        state.SkipWithError("record replay failed");
        return;
      }
    }
    benchmark::DoNotOptimize(rebuilt.size());
  }
  // Rate of WAL records replayed (the snapshot-load cost is amortised into
  // the same loop, matching what a real restart pays).
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * records);
}
BENCHMARK(BM_WalRecover)->Arg(64)->Arg(1024)->Unit(benchmark::kMicrosecond);

// One full kprop cycle per iteration, alternating a one-record delta cycle
// with a compaction-forced wholesale cycle so both costs are measured on
// the same database. The registered counters are what bench_baseline.py
// distills into the persist section.
void BM_PropDelta(benchmark::State& state) {
  ksim::SimClock clock;
  ksim::Network net(&clock);
  KdcDatabase primary = PopulatedDatabase();
  KdcDatabase slave = primary;
  krb4::ReplicaPropagation prop(&net, "R", &primary, /*primary_host=*/0x0a000058);
  prop.AddSlave(0x0a000059, &slave);

  const Principal carol = Principal::User("carol", "R");
  uint64_t delta_bytes = 0, wholesale_bytes = 0, delta_records = 0, cycles = 0;
  kcrypto::Prng prng(0x5eedb14);
  for (auto _ : state) {
    // Delta cycle: one new registration, shipped incrementally.
    primary.ApplyUpsert(carol, prng.NextDesKey(), krb4::PrincipalKind::kUser);
    auto report = prop.Propagate();
    if (!report.slaves_converged) {
      state.SkipWithError("delta cycle failed to converge");
      return;
    }
    delta_bytes += report.bytes_sent;
    delta_records += report.records_shipped;

    // Wholesale cycle: remove it again, compact past the slave's ack.
    primary.Remove(carol);
    prop.Compact();
    report = prop.Propagate();
    if (!report.slaves_converged || report.wholesale_transfers == 0) {
      state.SkipWithError("wholesale cycle failed to converge");
      return;
    }
    wholesale_bytes += report.wholesale_bytes;
    ++cycles;
  }
  state.counters["delta_bytes"] = static_cast<double>(delta_bytes) / cycles;
  state.counters["wholesale_bytes"] = static_cast<double>(wholesale_bytes) / cycles;
  state.counters["delta_records"] = static_cast<double>(delta_records) / cycles;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);  // cycles
}
BENCHMARK(BM_PropDelta)->Unit(benchmark::kMicrosecond);

}  // namespace

KERB_BENCH_MAIN()
