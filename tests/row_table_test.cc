// Tests for the MVCC row store: version visibility, snapshot isolation of
// reads, deletes, vacuum, copy semantics, and the zero-copy heap scan
// (differential against per-rid reads, plus a concurrent vacuum stress).

#include <atomic>
#include <map>
#include <thread>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/row_table.h"

namespace hattrick {
namespace {

Schema TwoCol() {
  return Schema({{"k", DataType::kInt64}, {"v", DataType::kString}});
}

Row MakeRow(int64_t k, const std::string& v) { return Row{k, v}; }

TEST(RowTableTest, InsertAssignsSequentialRids) {
  RowTable table(TwoCol());
  EXPECT_EQ(table.Insert(MakeRow(1, "a"), 10, nullptr), 0u);
  EXPECT_EQ(table.Insert(MakeRow(2, "b"), 10, nullptr), 1u);
  EXPECT_EQ(table.NumSlots(), 2u);
}

TEST(RowTableTest, RowInvisibleBeforeItsBeginTs) {
  RowTable table(TwoCol());
  const Rid rid = table.Insert(MakeRow(1, "a"), /*begin_ts=*/10, nullptr);
  Row out;
  EXPECT_FALSE(table.Read(rid, /*snapshot=*/9, &out, nullptr));
  EXPECT_TRUE(table.Read(rid, 10, &out, nullptr));
  EXPECT_EQ(out[1].AsString(), "a");
}

TEST(RowTableTest, VersionChainSnapshotReads) {
  RowTable table(TwoCol());
  const Rid rid = table.Insert(MakeRow(1, "v1"), 10, nullptr);
  ASSERT_TRUE(table.AddVersion(rid, MakeRow(1, "v2"), 20, nullptr).ok());
  ASSERT_TRUE(table.AddVersion(rid, MakeRow(1, "v3"), 30, nullptr).ok());

  Row out;
  ASSERT_TRUE(table.Read(rid, 15, &out, nullptr));
  EXPECT_EQ(out[1].AsString(), "v1");
  ASSERT_TRUE(table.Read(rid, 20, &out, nullptr));
  EXPECT_EQ(out[1].AsString(), "v2");
  ASSERT_TRUE(table.Read(rid, 29, &out, nullptr));
  EXPECT_EQ(out[1].AsString(), "v2");
  ASSERT_TRUE(table.Read(rid, 1000, &out, nullptr));
  EXPECT_EQ(out[1].AsString(), "v3");
}

TEST(RowTableTest, ReadLatestIgnoresSnapshot) {
  RowTable table(TwoCol());
  const Rid rid = table.Insert(MakeRow(1, "v1"), 10, nullptr);
  ASSERT_TRUE(table.AddVersion(rid, MakeRow(1, "v2"), 20, nullptr).ok());
  Row out;
  ASSERT_TRUE(table.ReadLatest(rid, &out, nullptr));
  EXPECT_EQ(out[1].AsString(), "v2");
}

TEST(RowTableTest, DeleteTerminatesVisibility) {
  RowTable table(TwoCol());
  const Rid rid = table.Insert(MakeRow(1, "a"), 10, nullptr);
  ASSERT_TRUE(table.MarkDeleted(rid, 20, nullptr).ok());
  Row out;
  EXPECT_TRUE(table.Read(rid, 19, &out, nullptr));
  EXPECT_FALSE(table.Read(rid, 20, &out, nullptr));
  EXPECT_FALSE(table.ReadLatest(rid, &out, nullptr));
}

TEST(RowTableTest, LatestVersionTs) {
  RowTable table(TwoCol());
  const Rid rid = table.Insert(MakeRow(1, "a"), 10, nullptr);
  EXPECT_EQ(table.LatestVersionTs(rid), 10u);
  ASSERT_TRUE(table.AddVersion(rid, MakeRow(1, "b"), 25, nullptr).ok());
  EXPECT_EQ(table.LatestVersionTs(rid), 25u);
  EXPECT_EQ(table.LatestVersionTs(999), 0u);  // out of range
}

TEST(RowTableTest, AddVersionOutOfRangeFails) {
  RowTable table(TwoCol());
  EXPECT_EQ(table.AddVersion(5, MakeRow(1, "x"), 10, nullptr).code(),
            StatusCode::kNotFound);
}

TEST(RowTableTest, ScanSeesConsistentSnapshot) {
  RowTable table(TwoCol());
  const Rid r0 = table.Insert(MakeRow(1, "a"), 10, nullptr);
  table.Insert(MakeRow(2, "b"), 20, nullptr);
  ASSERT_TRUE(table.AddVersion(r0, MakeRow(1, "a2"), 30, nullptr).ok());

  std::vector<std::string> at15;
  table.Scan(15,
             [&](Rid, const Row& row) {
               at15.push_back(row[1].AsString());
               return true;
             },
             nullptr);
  EXPECT_EQ(at15, std::vector<std::string>({"a"}));

  std::vector<std::string> at30;
  table.Scan(30,
             [&](Rid, const Row& row) {
               at30.push_back(row[1].AsString());
               return true;
             },
             nullptr);
  EXPECT_EQ(at30, std::vector<std::string>({"a2", "b"}));
}

TEST(RowTableTest, ScanEarlyStop) {
  RowTable table(TwoCol());
  for (int i = 0; i < 10; ++i) table.Insert(MakeRow(i, "x"), 1, nullptr);
  int count = 0;
  table.Scan(10, [&](Rid, const Row&) { return ++count < 4; }, nullptr);
  EXPECT_EQ(count, 4);
}

TEST(RowTableTest, MeterCountsReadsWritesHops) {
  RowTable table(TwoCol());
  WorkMeter meter;
  const Rid rid = table.Insert(MakeRow(1, "a"), 10, &meter);
  EXPECT_EQ(meter.rows_written, 1u);
  ASSERT_TRUE(table.AddVersion(rid, MakeRow(1, "b"), 20, &meter).ok());
  EXPECT_EQ(meter.rows_written, 2u);
  WorkMeter read_meter;
  Row out;
  // Reading the old snapshot traverses past the newest version.
  ASSERT_TRUE(table.Read(rid, 15, &out, &read_meter));
  EXPECT_EQ(read_meter.rows_read, 1u);
  EXPECT_EQ(read_meter.version_hops, 2u);
}

TEST(RowTableTest, VacuumDropsOnlyDeadVersions) {
  RowTable table(TwoCol());
  const Rid rid = table.Insert(MakeRow(1, "v1"), 10, nullptr);
  ASSERT_TRUE(table.AddVersion(rid, MakeRow(1, "v2"), 20, nullptr).ok());
  ASSERT_TRUE(table.AddVersion(rid, MakeRow(1, "v3"), 30, nullptr).ok());
  EXPECT_EQ(table.NumVersions(), 3u);

  // Horizon 15: v1 ended at 20 > 15, nothing to drop.
  EXPECT_EQ(table.Vacuum(15), 0u);
  // Horizon 25: v1 (ended 20) is invisible to any snapshot >= 25.
  EXPECT_EQ(table.Vacuum(25), 1u);
  EXPECT_EQ(table.NumVersions(), 2u);
  Row out;
  ASSERT_TRUE(table.Read(rid, 25, &out, nullptr));
  EXPECT_EQ(out[1].AsString(), "v2");
  // Newest version always survives.
  EXPECT_EQ(table.Vacuum(kMaxTs - 1), 1u);
  EXPECT_EQ(table.NumVersions(), 1u);
  ASSERT_TRUE(table.ReadLatest(rid, &out, nullptr));
  EXPECT_EQ(out[1].AsString(), "v3");
}

TEST(RowTableTest, CopyFromDeepCopies) {
  RowTable table(TwoCol());
  const Rid rid = table.Insert(MakeRow(1, "a"), 10, nullptr);
  ASSERT_TRUE(table.AddVersion(rid, MakeRow(1, "b"), 20, nullptr).ok());

  RowTable copy(TwoCol());
  copy.CopyFrom(table);
  EXPECT_EQ(copy.NumSlots(), 1u);
  EXPECT_EQ(copy.NumVersions(), 2u);

  // Mutating the copy does not affect the original.
  ASSERT_TRUE(copy.AddVersion(0, MakeRow(1, "c"), 30, nullptr).ok());
  Row out;
  ASSERT_TRUE(table.ReadLatest(0, &out, nullptr));
  EXPECT_EQ(out[1].AsString(), "b");
}

// Property: random interleavings of inserts/updates produce version
// chains whose visibility matches a per-snapshot reference model.
class RowTableVisibilityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RowTableVisibilityTest, SnapshotsMatchReference) {
  Rng rng(GetParam());
  RowTable table(TwoCol());
  // reference[rid] = list of (ts, value) in ts order.
  std::vector<std::vector<std::pair<Ts, std::string>>> reference;

  Ts ts = 1;
  for (int step = 0; step < 500; ++step) {
    ts += 1 + static_cast<Ts>(rng.Uniform(0, 3));
    if (reference.empty() || rng.Bernoulli(0.3)) {
      const std::string v = "v" + std::to_string(step);
      table.Insert(MakeRow(step, v), ts, nullptr);
      reference.push_back({{ts, v}});
    } else {
      const size_t rid = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(reference.size()) - 1));
      const std::string v = "u" + std::to_string(step);
      ASSERT_TRUE(
          table.AddVersion(rid, MakeRow(step, v), ts, nullptr).ok());
      reference[rid].emplace_back(ts, v);
    }
  }

  // Check random snapshots.
  for (int probe = 0; probe < 200; ++probe) {
    const Ts snapshot = static_cast<Ts>(rng.Uniform(0, static_cast<int64_t>(ts)));
    for (size_t rid = 0; rid < reference.size(); ++rid) {
      const auto& versions = reference[rid];
      std::string expected;
      bool visible = false;
      for (const auto& [vts, value] : versions) {
        if (vts <= snapshot) {
          expected = value;
          visible = true;
        }
      }
      Row out;
      const bool got = table.Read(rid, snapshot, &out, nullptr);
      ASSERT_EQ(got, visible) << "rid=" << rid << " snap=" << snapshot;
      if (visible) EXPECT_EQ(out[1].AsString(), expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowTableVisibilityTest,
                         ::testing::Values(11, 22, 33, 44));

// --------------------------------------------------------------------------
// Zero-copy heap scans
// --------------------------------------------------------------------------

Schema ThreeCol() {
  return Schema({{"k", DataType::kInt64},
                 {"v", DataType::kDouble},
                 {"s", DataType::kString}});
}

Row Wide(int64_t k, double v, const std::string& s) { return Row{k, v, s}; }

/// ScanRange over [begin, end) at `snapshot`, copied out per rid.
std::map<Rid, Row> ScanCopies(const RowTable& table, Ts snapshot, Rid begin,
                              Rid end) {
  std::map<Rid, Row> seen;
  table.ScanRange(
      snapshot, begin, end,
      [&](Rid rid, const Row& row) {
        EXPECT_TRUE(seen.emplace(rid, row).second) << "rid visited twice";
        return true;
      },
      nullptr);
  return seen;
}

// The scan visitor sees, for every rid, exactly the row a per-rid read
// folds at the same snapshot — whether the scan hands out the version
// node's payload in place or a folded copy.
TEST(RowTableScanTest, ScanRowsEqualReadsAtEverySnapshot) {
  RowTable table(ThreeCol());
  const void* owner = &table;
  // rid 0: a lone full version.
  table.Insert(Wide(0, 1.5, "lone"), 2, nullptr);
  // rid 1: committed deltas installed out of cts order (the head is the
  // oldest delta); double sums differ by order, so only a cts-ordered
  // fold reproduces the expected value.
  table.Insert(Wide(1, 0.1, "deltas"), 2, nullptr);
  for (const auto& [inc, cts] : std::vector<std::pair<double, Ts>>{
           {1e16, 7}, {0.7, 4}, {-1e16, 9}, {0.2, 5}}) {
    ASSERT_TRUE(table.AddDeltaVersion(1, 1, Value(inc), cts, nullptr).ok());
  }
  // rid 2: more deltas than the fold's inline buffer holds.
  table.Insert(Wide(2, 0.0, "spill"), 2, nullptr);
  for (int i = 0; i < 20; ++i) {
    const Ts cts = 3 + static_cast<Ts>((i * 7) % 20);  // a permutation
    ASSERT_TRUE(
        table.AddDeltaVersion(2, 1, Value(0.1 * (i + 1)), cts, nullptr).ok());
  }
  // rid 3: a pending head above a committed full version.
  table.Insert(Wide(3, 3.0, "pending"), 2, nullptr);
  ASSERT_NE(table.TryInstallFull(3, Wide(3, -1, "uncommitted"), owner, 2,
                                 nullptr),
            nullptr);
  // rid 4: an aborted head.
  table.Insert(Wide(4, 4.0, "aborted"), 2, nullptr);
  mvcc::VersionNode* aborted =
      table.TryInstallFull(4, Wide(4, -1, "withdrawn"), owner, 2, nullptr);
  ASSERT_NE(aborted, nullptr);
  mvcc::Withdraw(aborted);
  // rid 5: a tombstone at cts 6.
  table.Insert(Wide(5, 5.0, "deleted"), 2, nullptr);
  ASSERT_TRUE(table.MarkDeleted(5, 6, nullptr).ok());
  // rid 6: versions newer than most snapshots, plus a delta on top.
  table.Insert(Wide(6, 6.0, "old"), 2, nullptr);
  ASSERT_TRUE(table.AddVersion(6, Wide(6, 60.0, "new"), 8, nullptr).ok());
  ASSERT_TRUE(table.AddDeltaVersion(6, 1, Value(0.5), 30, nullptr).ok());
  // rid 7: created after most snapshots.
  table.Insert(Wide(7, 7.0, "late"), 25, nullptr);

  for (const Ts snapshot : {Ts{0}, Ts{1}, Ts{2}, Ts{4}, Ts{5}, Ts{6}, Ts{7},
                            Ts{8}, Ts{9}, Ts{12}, Ts{25}, Ts{30},
                            kMaxTs - 1}) {
    SCOPED_TRACE("snapshot=" + std::to_string(snapshot));
    const std::map<Rid, Row> seen = ScanCopies(table, snapshot, 0, kMaxTs);
    for (Rid rid = 0; rid < table.NumSlots(); ++rid) {
      Row read;
      const bool visible = table.Read(rid, snapshot, &read, nullptr);
      const auto it = seen.find(rid);
      ASSERT_EQ(it != seen.end(), visible) << "rid=" << rid;
      if (visible) {
        EXPECT_EQ(it->second, read) << "rid=" << rid;
      }
    }
    // A sub-range visits exactly the same rows for its rids.
    const std::map<Rid, Row> part = ScanCopies(table, snapshot, 2, 6);
    for (const auto& [rid, row] : part) {
      ASSERT_GE(rid, 2u);
      ASSERT_LT(rid, 6u);
      EXPECT_EQ(row, seen.at(rid));
    }
  }

  // Spot-check the folds against their definitions.
  const std::map<Rid, Row> latest = ScanCopies(table, kMaxTs - 1, 0, kMaxTs);
  double rid1 = 0.1;
  for (const double inc : {0.7, 0.2, 1e16, -1e16}) rid1 += inc;  // cts order
  EXPECT_EQ(latest.at(1)[1].AsDouble(), rid1);
  double rid2 = 0.0;
  std::map<Ts, double> by_cts;
  for (int i = 0; i < 20; ++i) by_cts[3 + (i * 7) % 20] = 0.1 * (i + 1);
  for (const auto& [cts, inc] : by_cts) rid2 += inc;
  EXPECT_EQ(latest.at(2)[1].AsDouble(), rid2);
  EXPECT_EQ(latest.at(3)[2].AsString(), "pending");
  EXPECT_EQ(latest.at(4)[2].AsString(), "aborted");
  EXPECT_EQ(latest.count(5), 0u);
  EXPECT_EQ(latest.at(6)[1].AsDouble(), 60.5);
}

TEST(RowTableScanTest, VisitorStopsEarly) {
  RowTable table(ThreeCol());
  for (int i = 0; i < 10; ++i) {
    table.Insert(Wide(i, i, "r" + std::to_string(i)), 1, nullptr);
  }
  ASSERT_TRUE(table.MarkDeleted(1, 2, nullptr).ok());
  ASSERT_TRUE(table.AddDeltaVersion(2, 1, Value(0.5), 2, nullptr).ok());
  std::vector<Rid> visited;
  WorkMeter meter;
  table.ScanRange(
      5, 0, kMaxTs,
      [&](Rid rid, const Row& row) {
        EXPECT_EQ(row[0].AsInt(), static_cast<int64_t>(rid));
        visited.push_back(rid);
        return visited.size() < 3;
      },
      &meter);
  EXPECT_EQ(visited, (std::vector<Rid>{0, 2, 3}));
  EXPECT_EQ(meter.rows_read, 3u);
}

// A scanner reads the version payloads it is handed in place while a
// writer keeps installing versions and Vacuum unlinks and retires the
// superseded ones. The epoch guard ScanRange holds across the visit must
// keep every referenced node alive (ThreadSanitizer and AddressSanitizer
// flag a premature free); the row invariants catch torn or recycled
// payloads in any build.
TEST(RowTableScanTest, PayloadReferencesSurviveConcurrentVacuum) {
  constexpr int kRows = 64;
  constexpr int kVersions = 4000;
  RowTable table(ThreeCol());
  const auto label = [](int64_t rid) {
    // Long enough to live on the heap, so a freed payload is detectable.
    return "row-" + std::to_string(rid) + std::string(40, '.');
  };
  for (int i = 0; i < kRows; ++i) {
    table.Insert(Wide(i, 0, label(i)), 1, nullptr);
  }
  Ts cts = 1;  // written by the writer only
  std::atomic<bool> done{false};
  std::atomic<int> scanners_started{0};

  std::thread writer([&] {
    // Start writing only once both scanners run, so the two overlap.
    while (scanners_started.load() < 2) std::this_thread::yield();
    Rng rng(5);
    for (int n = 0; n < kVersions; ++n) {
      const Rid rid = static_cast<Rid>(rng.Uniform(0, kRows - 1));
      const int64_t k = static_cast<int64_t>(rid);
      ++cts;
      if (n % 5 == 0) {
        EXPECT_TRUE(table.AddDeltaVersion(rid, 1, Value(1.0), cts, nullptr)
                        .ok());
      } else {
        EXPECT_TRUE(
            table.AddVersion(rid, Wide(k, n, label(k)), cts, nullptr).ok());
      }
      if (n % 50 == 0) table.Vacuum(cts);
    }
    done.store(true);
  });

  const auto scan = [&] {
    scanners_started.fetch_add(1);
    do {
      // Latest snapshot: Vacuum(cts) never unlinks the version it
      // resolves to, only superseded versions the scan may be holding.
      size_t rows = 0;
      table.ScanRange(
          kMaxTs - 1, 0, kMaxTs,
          [&](Rid rid, const Row& row) {
            EXPECT_EQ(row[0].AsInt(), static_cast<int64_t>(rid));
            std::this_thread::yield();  // widen the window for Vacuum
            EXPECT_EQ(row[2].AsString(), label(static_cast<int64_t>(rid)));
            EXPECT_GE(row[1].AsDouble(), 0.0);
            ++rows;
            return true;
          },
          nullptr);
      EXPECT_EQ(rows, static_cast<size_t>(kRows));
    } while (!done.load());
  };
  std::thread scanner_a(scan);
  std::thread scanner_b(scan);
  writer.join();
  scanner_a.join();
  scanner_b.join();
  table.Vacuum(cts);
}

}  // namespace
}  // namespace hattrick
