// Compaction as a log fold, checked against the live-store walk.
//
// ReplicaPropagation::Compact() installs base ⊕ WAL(base.lsn, n] instead of
// re-walking the KDC database. That is exact only because every mutation of
// the primary is journaled through KdcDatabase's single funnel, so these
// tests drive randomized churn through that funnel — registration and
// re-registration, RotateKey with drain windows and ring pruning, Remove —
// and after every compaction require the installed image to equal
// EncodeSnapshot(SnapshotDatabase(primary, lsn)) byte for byte. The walk
// includes crash + recovery of the primary's store and a slave blacked out
// past the compaction horizon, which must converge from the folded
// wholesale snapshot.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/attacks/testbed.h"
#include "src/krb4/kdcstore.h"
#include "src/store/snapshot.h"

namespace {

using krb4::Principal;

kerb::Bytes B(const std::string& s) { return kerb::ToBytes(s); }

// Test order for the kstore-level checks: an entry's key is its first byte.
int FirstByteOrder(kerb::BytesView a, kerb::BytesView b) {
  return static_cast<int>(a.empty() ? 0 : a[0]) - static_cast<int>(b.empty() ? 0 : b[0]);
}

kstore::WalRecord Rec(uint64_t lsn, uint8_t op, const std::string& payload) {
  return kstore::WalRecord{lsn, op, B(payload)};
}

TEST(FoldSnapshotTest, LastRecordPerKeyWinsAndOtherOpsOnlyAdvanceTheLsn) {
  kstore::Snapshot base;
  base.lsn = 10;
  base.entries = {B("a1"), B("c1"), B("e1")};
  const std::vector<kstore::WalRecord> records = {
      Rec(11, kstore::kWalOpUpsert, "b1"),      // insert between base entries
      Rec(12, kstore::kWalOpUpsert, "a2"),      // replace
      Rec(13, kstore::kWalOpDelete, "c"),       // drop
      Rec(14, kstore::kWalOpClusterMark, "x"),  // no entry change
      Rec(15, kstore::kWalOpUpsert, "f1"),      // insert past the end
      Rec(16, kstore::kWalOpDelete, "f"),       // ...and drop it again
      Rec(17, kstore::kWalOpUpsert, "a3"),      // the later upsert wins
      Rec(18, kstore::kWalOpDelete, "z"),       // deleting an absent key
  };
  auto folded = kstore::FoldSnapshot(kstore::EncodeSnapshot(base), records, &FirstByteOrder);
  ASSERT_TRUE(folded.ok()) << folded.error().ToString();

  kstore::Snapshot want;
  want.lsn = 18;
  want.entries = {B("a3"), B("b1"), B("e1")};
  EXPECT_EQ(folded.value(), kstore::EncodeSnapshot(want));

  auto empty = kstore::FoldSnapshot(kstore::EncodeSnapshot(base), {}, &FirstByteOrder);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value(), kstore::EncodeSnapshot(base)) << "no records: the base itself";
}

TEST(FoldSnapshotTest, FailsClosedOnMalformedBaseOrDiscontinuousRecords) {
  kstore::Snapshot base;
  base.lsn = 4;
  base.entries = {B("a1"), B("b1")};
  const kerb::Bytes image = kstore::EncodeSnapshot(base);

  auto gap = kstore::FoldSnapshot(image, {Rec(6, kstore::kWalOpUpsert, "c1")}, &FirstByteOrder);
  EXPECT_EQ(gap.code(), kerb::ErrorCode::kBadFormat) << "records must start at base.lsn + 1";
  auto stale =
      kstore::FoldSnapshot(image, {Rec(4, kstore::kWalOpUpsert, "c1")}, &FirstByteOrder);
  EXPECT_EQ(stale.code(), kerb::ErrorCode::kBadFormat);

  for (size_t cut = 0; cut < image.size(); ++cut) {
    const kerb::BytesView truncated(image.data(), cut);
    EXPECT_FALSE(kstore::FoldSnapshot(truncated, {}, &FirstByteOrder).ok()) << "cut " << cut;
  }
  kerb::Bytes bad_magic = image;
  bad_magic[0] ^= 0x80;
  EXPECT_FALSE(kstore::FoldSnapshot(bad_magic, {}, &FirstByteOrder).ok());
}

TEST(FoldSnapshotTest, PrincipalOrderMatchesPrincipalLess) {
  // The byte-level comparator must agree with Principal::operator< — the
  // order SnapshotDatabase writes — including prefixes and high bytes.
  const std::vector<Principal> principals = {
      Principal{"", "", ""},          Principal{"a", "", "R"},     Principal{"a", "", "RR"},
      Principal{"a", "x", "R"},       Principal{"ab", "", "R"},    Principal{"b", "", "A"},
      Principal{"\xff", "", "R"},     Principal{"a\x01", "", "R"}, Principal{"krbtgt", "R", "R"},
      Principal{"krbtgt", "RR", "R"},
  };
  for (const Principal& x : principals) {
    for (const Principal& y : principals) {
      const int c = krb4::ComparePrincipalEntries(krb4::EncodePrincipalDelete(x),
                                                  krb4::EncodePrincipalDelete(y));
      EXPECT_EQ(c < 0, x < y) << x.ToString() << " vs " << y.ToString();
      EXPECT_EQ(c == 0, x == y) << x.ToString() << " vs " << y.ToString();
    }
  }
}

// The installed base image — what the primary's device holds durably.
kerb::Bytes InstalledImage(krb4::ReplicaPropagation& prop) {
  return prop.store().device().ReadAll(kstore::KStoreOptions{}.snapshot_file);
}

kerb::Bytes OracleImage(const krb4::KdcDatabase& db, uint64_t lsn) {
  return kstore::EncodeSnapshot(krb4::SnapshotDatabase(db, lsn));
}

TEST(FoldOracleTest, RandomChurnCompactsToTheLiveSnapshot) {
  kattack::TestbedConfig config;
  config.kdc_slaves = 2;
  config.extra_users = 40;
  config.faults = ksim::FaultPlan{};
  kattack::Testbed4 tb(config);
  krb4::KdcDatabase& primary = tb.kdc().database();
  krb4::ReplicaPropagation& prop = *tb.kdc_replicas().propagation();
  // Slave 1 goes dark for stretches of the walk, falling behind the
  // compaction horizon; slave 0 stays reachable throughout.
  const uint32_t lagging_host = kattack::Testbed4::kAsAddr.host + 2;
  auto& lagging_db = tb.kdc_replicas().slave(1).database();

  kcrypto::Prng prng(0xf01d);
  ksim::Time now = tb.world().clock().Now();
  auto pick = [&] {
    return Principal::User("churn" + std::to_string(prng.NextBelow(24)), tb.realm);
  };
  int compactions = 0, crashes = 0, rotations = 0, removals = 0, wholesale_catchups = 0;
  bool dark = false;
  for (int step = 0; step < 1500; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    now += static_cast<ksim::Time>(prng.NextBelow(900)) * ksim::kSecond;
    const uint64_t dice = prng.NextBelow(100);
    if (dice < 30) {
      primary.AddUser(pick(), "pw" + std::to_string(prng.NextU64()));  // (re-)registration
    } else if (dice < 55) {
      // Rotation: a drain window up to two hours (ring grows, old
      // versions expire and are pruned), or none at all.
      const Principal p = pick();
      const ksim::Time retain =
          prng.NextBelow(4) == 0 ? 0
                                 : now + static_cast<ksim::Time>(prng.NextBelow(7200)) *
                                             ksim::kSecond;
      if (primary.Has(p)) {
        ASSERT_TRUE(primary.RotateKey(p, prng.NextDesKey(), now, retain).ok());
        ++rotations;
      }
    } else if (dice < 65) {
      if (primary.Remove(pick())) {
        ++removals;
      }
    } else if (dice < 75) {
      const bool was_dark = dark;
      dark = prng.NextBelow(3) == 0;
      tb.world().faults()->plan().per_host[lagging_host].drop_request = dark ? 1.0 : 0.0;
      const kstore::Propagator::CycleReport report = prop.Propagate();
      if (!dark) {
        ASSERT_TRUE(report.slaves_converged);
        ASSERT_EQ(OracleImage(lagging_db, 0), OracleImage(primary, 0))
            << "a reachable slave must match the primary after a cycle";
        if (was_dark && report.wholesale_transfers > 0) {
          ++wholesale_catchups;
        }
      }
    } else if (dice < 90) {
      ASSERT_TRUE(prop.Compact().ok());
      ++compactions;
      ASSERT_EQ(prop.store().snapshot_lsn(), prop.store().last_lsn());
      ASSERT_EQ(InstalledImage(prop), OracleImage(primary, prop.store().last_lsn()))
          << "compaction " << compactions << ": fold differs from the live snapshot";
    } else {
      // Power loss on the primary's store. Every append flushed on an
      // honest device, so recovery lands on the full history and the next
      // fold starts from the recovered base.
      prop.store().Crash();
      auto recovered = prop.store().Recover();
      ASSERT_TRUE(recovered.ok()) << recovered.error().ToString();
      ASSERT_EQ(recovered.value().last_lsn, prop.store().last_lsn());
      ++crashes;
    }
  }
  tb.world().faults()->plan().per_host[lagging_host].drop_request = 0.0;
  ASSERT_TRUE(prop.Compact().ok());
  ASSERT_EQ(InstalledImage(prop), OracleImage(primary, prop.store().last_lsn()));
  ASSERT_TRUE(prop.Propagate().slaves_converged);
  EXPECT_EQ(OracleImage(lagging_db, 0), OracleImage(primary, 0));

  // The walk must have exercised every transition it claims to.
  EXPECT_GT(compactions, 100);
  EXPECT_GT(crashes, 50);
  EXPECT_GT(rotations, 200);
  EXPECT_GT(removals, 50);
  EXPECT_GT(wholesale_catchups, 5);
}

}  // namespace
