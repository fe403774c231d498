// Tests for the MVCC row store: version visibility, snapshot isolation of
// reads, deletes, vacuum, seal and rewind, the zero-copy heap scan and
// rid visits (differential against per-rid reads for every head kind,
// plus a concurrent vacuum stress),
// and fold memos (differential against a naive resolver, plus a
// concurrent memo/vacuum stress).

#include <algorithm>
#include <atomic>
#include <iterator>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
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
  // rid 5: a full version replaced at cts 6.
  table.Insert(Wide(5, 5.0, "original"), 2, nullptr);
  ASSERT_TRUE(table.AddVersion(5, Wide(5, 50.0, "replaced"), 6, nullptr).ok());
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
  EXPECT_EQ(latest.at(5)[2].AsString(), "replaced");
  EXPECT_EQ(latest.at(6)[1].AsDouble(), 60.5);
}

TEST(RowTableScanTest, VisitorStopsEarly) {
  RowTable table(ThreeCol());
  // rid 1 is created after the scan's snapshot, so the scan skips it.
  for (int i = 0; i < 10; ++i) {
    table.Insert(Wide(i, i, "r" + std::to_string(i)), i == 1 ? 9 : 1,
                 nullptr);
  }
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
// writer keeps installing versions and Vacuum unlinks and frees the
// superseded ones. The table latch ScanRange holds across the visit must
// keep every referenced node alive (ThreadSanitizer and AddressSanitizer
// flag a premature free); the row invariants catch torn or recycled
// payloads in any build. The scanners' loops are bounded: the writer's
// exclusive Vacuum can wait behind back-to-back scans (glibc's
// shared_mutex prefers readers), and only the writer ends the loop.
TEST(RowTableScanTest, PayloadReferencesSurviveConcurrentVacuum) {
  constexpr int kRows = 64;
  constexpr int kVersions = 4000;
  constexpr int kMaxScans = 200;  // per scanner
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
    int scans = 0;
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
    } while (++scans < kMaxScans && !done.load());
  };
  std::thread scanner_a(scan);
  std::thread scanner_b(scan);
  writer.join();
  scanner_a.join();
  scanner_b.join();
  table.Vacuum(cts);
}

// --------------------------------------------------------------------------
// Fold memos
// --------------------------------------------------------------------------

Schema DeltaCols() {
  return Schema({{"k", DataType::kInt64},
                 {"v", DataType::kDouble},
                 {"n", DataType::kInt64}});
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

/// Bit-exact row equality: doubles compare by bit pattern.
void ExpectSameBits(const Row& got, const Row& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t c = 0; c < got.size(); ++c) {
    if (want[c].is_double()) {
      ASSERT_TRUE(got[c].is_double()) << "col " << c;
      EXPECT_EQ(Bits(got[c].AsDouble()), Bits(want[c].AsDouble()))
          << "col " << c << ": " << got[c].AsDouble() << " vs "
          << want[c].AsDouble();
    } else {
      EXPECT_EQ(got[c], want[c]) << "col " << c;
    }
  }
}

/// A test-local model of one row's physical chain and a naive resolver
/// over it: no memos, no early stops. Nodes are in install order (back
/// is the head).
struct NaiveNode {
  mvcc::VersionStatus status;
  Ts cts = 0;
  bool delta = false;
  uint32_t column = 0;
  Row payload;
  const void* owner = nullptr;
  mvcc::VersionNode* handle = nullptr;  // pending nodes only
};

struct NaiveRead {
  bool visible = false;
  Row row;
  mvcc::FoldObservation obs;
  uint64_t hops = 0;
  uint64_t rows_read = 0;
};

bool Committed(const NaiveNode& n) {
  return n.status == mvcc::VersionStatus::kCommitted ||
         n.status == mvcc::VersionStatus::kCommittedDelta;
}

/// Collects the visible deltas above the first visible full version,
/// sorts them by cts (equal cts in install order) and applies them over
/// it; one hop per node walked.
NaiveRead NaiveResolve(const std::vector<NaiveNode>& chain, Ts snapshot) {
  NaiveRead r;
  std::vector<const NaiveNode*> deltas;  // newest first
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    ++r.hops;
    if (!Committed(*it) || it->cts > snapshot) continue;
    if (it->delta) {
      deltas.push_back(&*it);
      continue;
    }
    r.visible = true;
    r.rows_read = 1;
    r.row = it->payload;
    r.obs.full_cts = r.obs.any_cts = it->cts;
    std::reverse(deltas.begin(), deltas.end());
    std::stable_sort(deltas.begin(), deltas.end(),
                     [](const NaiveNode* a, const NaiveNode* b) {
                       return a->cts < b->cts;
                     });
    for (const NaiveNode* d : deltas) {
      mvcc::ApplyDeltaValue(&r.row[d->column], d->payload[0]);
      r.obs.any_cts = std::max(r.obs.any_cts, d->cts);
    }
    return r;
  }
  return r;
}

bool NaiveValidateRead(const std::vector<NaiveNode>& chain, Ts observed,
                       const void* owner) {
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (it->status == mvcc::VersionStatus::kPending) {
      if (!it->delta && it->owner != owner) return false;
      continue;
    }
    if (it->status == mvcc::VersionStatus::kCommitted) {
      return it->cts == observed;
    }
  }
  return observed == 0;
}

/// True iff TryInstallFull(owner, base_ts) must succeed.
bool NaiveCanInstallFull(const std::vector<NaiveNode>& chain,
                         const void* owner, Ts base_ts) {
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (it->status == mvcc::VersionStatus::kAborted) continue;
    if (it->status == mvcc::VersionStatus::kPending) {
      if (it->owner != owner) return false;
      continue;
    }
    if (it->cts > base_ts) return false;
    if (it->status == mvcc::VersionStatus::kCommitted) break;
  }
  return true;
}

/// True iff TryInstallDelta(owner) must succeed.
bool NaiveCanInstallDelta(const std::vector<NaiveNode>& chain,
                          const void* owner) {
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (it->status == mvcc::VersionStatus::kPending && !it->delta &&
        it->owner != owner) {
      return false;
    }
    if (it->status == mvcc::VersionStatus::kCommitted) break;
  }
  return true;
}

/// RowTable::Vacuum's unlink rule, applied to the model of a sealed
/// slot: its oldest node, the load version, always stays.
void NaiveVacuum(std::vector<NaiveNode>* chain, Ts horizon) {
  std::vector<NaiveNode> kept;  // newest first
  bool superseded = false;
  for (auto it = chain->rbegin(); it != chain->rend(); ++it) {
    const bool load_version = std::next(it) == chain->rend();
    if (it->status == mvcc::VersionStatus::kAborted ||
        (superseded && Committed(*it) && !load_version)) {
      continue;
    }
    if (it->status == mvcc::VersionStatus::kCommitted && it->cts <= horizon) {
      superseded = true;
    }
    kept.push_back(*it);
  }
  chain->assign(kept.rbegin(), kept.rend());
}

/// A double increment whose rounding depends on the order it is added
/// in: magnitudes span 1e-3 .. 1e15.
double OrderSensitiveIncrement(Rng* rng) {
  const double scale[] = {1e-3, 0.1, 1.0, 7.3, 1e6, 1e15};
  const double sign = rng->Bernoulli(0.3) ? -1.0 : 1.0;
  return sign * scale[rng->Uniform(0, 5)] * (1.0 + rng->NextDouble());
}

// Seal marks the loaded slots; Rewind cuts every sealed chain back to
// its load version, freeing the pending, aborted and delta nodes above it
// (and the fold memos on them), and drops the slots appended since.
// Vacuum at any horizon keeps the load versions, so every snapshot of the
// rewound table reads, meters and validates like a fresh load.
TEST(RowTableTest, SealRewindRestoresLoadState) {
  constexpr int kLoaded = 4;
  const auto load = [](RowTable* t) {
    for (int i = 0; i < kLoaded; ++i) {
      t->Insert(Row{int64_t{i}, 0.5 * i, int64_t{0}}, /*begin_ts=*/1,
                nullptr);
    }
    t->Seal();
  };
  RowTable fresh(DeltaCols());
  load(&fresh);
  RowTable table(DeltaCols());
  load(&table);
  const int owner = 0;
  const Ts snapshots[] = {0, 1, 2, 12, 20, 30, kMaxTs - 1, kMaxTs};
  for (const Ts horizon : {Ts{0}, Ts{1}, Ts{12}, Ts{25}, kMaxTs - 1}) {
    SCOPED_TRACE("horizon=" + std::to_string(horizon));
    // Row 0: a run of deltas long enough that the read leaves a memo.
    for (Ts cts = 2; cts < 2 + 2 * mvcc::kMemoMinDeltas; ++cts) {
      ASSERT_TRUE(table.AddDeltaVersion(0, 1, Value(0.1 * cts), cts, nullptr)
                      .ok());
    }
    Row row;
    ASSERT_TRUE(table.ReadLatest(0, &row, nullptr));
    // Row 1: overwritten twice.
    ASSERT_TRUE(table.AddVersion(1, Row{int64_t{1}, 9.0, int64_t{9}}, 20,
                                 nullptr).ok());
    ASSERT_TRUE(table.AddVersion(1, Row{int64_t{1}, 8.0, int64_t{8}}, 21,
                                 nullptr).ok());
    // Row 2: an aborted delta under a pending full version.
    mvcc::VersionNode* aborted =
        table.TryInstallDelta(2, 1, Value(1.0), &owner, nullptr);
    ASSERT_NE(aborted, nullptr);
    mvcc::Withdraw(aborted);
    ASSERT_NE(table.TryInstallFull(2, Row{int64_t{2}, 7.0, int64_t{7}},
                                   &owner, kMaxTs, nullptr),
              nullptr);
    // Row 3: a full version with a delta above it.
    ASSERT_TRUE(table.AddVersion(3, Row{int64_t{3}, 3.0, int64_t{3}}, 22,
                                 nullptr).ok());
    ASSERT_TRUE(table.AddDeltaVersion(3, 2, Value(int64_t{5}), 23, nullptr)
                    .ok());
    // Two slots appended after the seal.
    table.Insert(Row{int64_t{4}, 4.0, int64_t{4}}, 24, nullptr);
    table.Insert(Row{int64_t{5}, 5.0, int64_t{5}}, 24, nullptr);

    table.Vacuum(horizon);
    for (Rid rid = 0; rid < kLoaded; ++rid) {
      Row got;
      Row want;
      ASSERT_TRUE(table.Read(rid, 1, &got, nullptr)) << "rid " << rid;
      ASSERT_TRUE(fresh.Read(rid, 1, &want, nullptr));
      ExpectSameBits(got, want);
    }

    table.Rewind();
    EXPECT_EQ(table.NumSlots(), static_cast<size_t>(kLoaded));
    EXPECT_EQ(table.NumVersions(), table.NumSlots());
    for (Rid rid = 0; rid < kLoaded + 2; ++rid) {
      EXPECT_EQ(table.LatestVersionTs(rid), fresh.LatestVersionTs(rid));
      EXPECT_EQ(table.ValidateRead(rid, 1, &owner),
                fresh.ValidateRead(rid, 1, &owner));
      for (const Ts snapshot : snapshots) {
        Row got;
        Row want;
        WorkMeter got_meter;
        WorkMeter want_meter;
        const bool visible = table.Read(rid, snapshot, &got, &got_meter);
        ASSERT_EQ(visible, fresh.Read(rid, snapshot, &want, &want_meter))
            << "rid " << rid << " snapshot " << snapshot;
        EXPECT_EQ(got_meter.version_hops, want_meter.version_hops);
        EXPECT_EQ(got_meter.rows_read, want_meter.rows_read);
        if (visible) ExpectSameBits(got, want);
      }
    }
    WorkMeter got_scan;
    WorkMeter want_scan;
    table.Scan(kMaxTs - 1, [](Rid, const Row&) { return true; }, &got_scan);
    fresh.Scan(kMaxTs - 1, [](Rid, const Row&) { return true; }, &want_scan);
    EXPECT_EQ(got_scan.version_hops, want_scan.version_hops);
    EXPECT_EQ(got_scan.rows_read, want_scan.rows_read);
  }
}

// ScanRange resolves a committed full head at or below the snapshot
// inline and hands every other head to mvcc::ResolveVisible; VisitRids
// resolves each rid like Read without the copy. One single-row table per
// head kind: at every snapshot the scan must yield Read's row bit for
// bit, rows_read like Read and version_hops equal to the chain length,
// and VisitRids must meter exactly like Read over the same rids (an
// out-of-range rid charges nothing).
TEST(RowTableScanTest, HeadKindsScanAndVisitLikeRead) {
  const int own = 0;
  const int foreign = 0;
  struct Case {
    const char* name;
    std::function<void(RowTable*)> build;
  };
  const Case cases[] = {
      {"committed full at or below the snapshot",
       [](RowTable* t) {
         t->Insert(Row{int64_t{1}, 1.5, int64_t{7}}, 2, nullptr);
       }},
      {"committed full above the snapshot",
       [](RowTable* t) {
         t->Insert(Row{int64_t{1}, 1.5, int64_t{7}}, 2, nullptr);
         ASSERT_TRUE(
             t->AddVersion(0, Row{int64_t{1}, 2.5, int64_t{8}}, 12, nullptr)
                 .ok());
       }},
      {"own pending full",
       [&](RowTable* t) {
         t->Insert(Row{int64_t{1}, 1.5, int64_t{7}}, 2, nullptr);
         ASSERT_NE(t->TryInstallFull(0, Row{int64_t{1}, -1.0, int64_t{0}},
                                     &own, 2, nullptr),
                   nullptr);
       }},
      {"foreign pending delta above own pending delta",
       [&](RowTable* t) {
         t->Insert(Row{int64_t{1}, 1.5, int64_t{7}}, 2, nullptr);
         ASSERT_NE(t->TryInstallDelta(0, 1, Value(0.5), &own, nullptr),
                   nullptr);
         ASSERT_NE(t->TryInstallDelta(0, 1, Value(0.25), &foreign, nullptr),
                   nullptr);
       }},
      {"aborted full",
       [&](RowTable* t) {
         t->Insert(Row{int64_t{1}, 1.5, int64_t{7}}, 2, nullptr);
         mvcc::VersionNode* node = t->TryInstallFull(
             0, Row{int64_t{1}, -1.0, int64_t{0}}, &own, 2, nullptr);
         ASSERT_NE(node, nullptr);
         mvcc::Withdraw(node);
       }},
      {"deltas without a memo",
       [](RowTable* t) {
         t->Insert(Row{int64_t{1}, 0.1, int64_t{7}}, 2, nullptr);
         for (const Ts cts : {Ts{9}, Ts{4}, Ts{14}}) {
           ASSERT_TRUE(t->AddDeltaVersion(0, 1, Value(0.1 * cts), cts,
                                          nullptr)
                           .ok());
         }
       }},
      {"deltas under a memo",
       [](RowTable* t) {
         t->Insert(Row{int64_t{1}, 0.1, int64_t{7}}, 2, nullptr);
         for (Ts cts = 3; cts < 3 + 2 * mvcc::kMemoMinDeltas; ++cts) {
           ASSERT_TRUE(t->AddDeltaVersion(0, 1, Value(0.1 * cts), cts,
                                          nullptr)
                           .ok());
         }
         Row row;
         ASSERT_TRUE(t->ReadLatest(0, &row, nullptr));  // attaches the memo
         ASSERT_TRUE(t->AddDeltaVersion(0, 2, Value(int64_t{3}), 40, nullptr)
                         .ok());
       }},
      {"load version alone after Rewind",
       [&](RowTable* t) {
         t->Insert(Row{int64_t{1}, 1.5, int64_t{7}}, 2, nullptr);
         t->Seal();
         ASSERT_TRUE(
             t->AddVersion(0, Row{int64_t{1}, 2.5, int64_t{8}}, 5, nullptr)
                 .ok());
         ASSERT_TRUE(t->AddDeltaVersion(0, 1, Value(1.0), 6, nullptr).ok());
         t->Insert(Row{int64_t{2}, 3.5, int64_t{9}}, 6, nullptr);
         t->Rewind();
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    RowTable table(DeltaCols());
    c.build(&table);
    ASSERT_EQ(table.NumSlots(), 1u);
    const size_t chain_length = table.NumVersions();
    for (const Ts snapshot : {Ts{0}, Ts{1}, Ts{2}, Ts{5}, Ts{9}, Ts{12},
                              Ts{20}, Ts{50}, kMaxTs - 1, kMaxTs}) {
      SCOPED_TRACE("snapshot=" + std::to_string(snapshot));
      Row want;
      WorkMeter read_meter;
      const bool visible = table.Read(0, snapshot, &want, &read_meter);

      std::vector<Row> scanned;
      WorkMeter scan_meter;
      table.ScanRange(snapshot, 0, kMaxTs,
                      [&](Rid rid, const Row& row) {
                        EXPECT_EQ(rid, 0u);
                        scanned.push_back(row);
                        return true;
                      },
                      &scan_meter);
      ASSERT_EQ(scanned.size(), visible ? 1u : 0u);
      if (visible) ExpectSameBits(scanned[0], want);
      EXPECT_EQ(scan_meter.rows_read, read_meter.rows_read);
      EXPECT_EQ(scan_meter.version_hops, chain_length);
      EXPECT_EQ(scan_meter.Total(),
                read_meter.rows_read + scan_meter.version_hops);

      const Rid rids[] = {0, 1, 0};
      std::vector<Row> visited;
      WorkMeter visit_meter;
      const size_t consumed = table.VisitRids(
          snapshot, rids,
          [&](Rid rid, const Row& row) {
            EXPECT_EQ(rid, 0u);
            visited.push_back(row);
            return true;
          },
          &visit_meter);
      EXPECT_EQ(consumed, 3u);
      ASSERT_EQ(visited.size(), visible ? 2u : 0u);
      for (const Row& row : visited) ExpectSameBits(row, want);
      EXPECT_EQ(visit_meter.rows_read, 2 * read_meter.rows_read);
      EXPECT_EQ(visit_meter.version_hops, 2 * read_meter.version_hops);
      EXPECT_EQ(visit_meter.Total(), 2 * read_meter.Total());
    }
  }
}

// VisitRids stops after the rid whose visit returns false and reports
// how many rids it consumed, invisible ones included.
TEST(RowTableScanTest, VisitRidsStopsAfterTheRejectingVisit) {
  RowTable table(ThreeCol());
  for (int i = 0; i < 6; ++i) {
    table.Insert(Wide(i, i, "r"), i == 1 ? 9 : 1, nullptr);
  }
  const Rid rids[] = {5, 1, 3, 0, 2};
  std::vector<Rid> visited;
  const size_t consumed = table.VisitRids(
      5, rids,
      [&](Rid rid, const Row&) {
        visited.push_back(rid);
        return visited.size() < 2;
      },
      nullptr);
  EXPECT_EQ(consumed, 3u);
  EXPECT_EQ(visited, (std::vector<Rid>{5, 3}));
}

class FoldMemoOracleTest : public ::testing::TestWithParam<int> {};

// Random single-threaded histories over a few hot rows, each probe
// checked against the naive resolver: bit-equal folds, equal meters and
// observations, and equal ValidateRead/TryInstall* outcomes. Histories
// publish deltas out of install order, leave pending and aborted nodes
// at and below the head, replace full versions, read below memos'
// any_cts, vacuum between probes (the table is sealed, so the load
// versions stay), and rewind to the load state.
TEST_P(FoldMemoOracleTest, MatchesNaiveResolver) {
  constexpr int kRows = 3;
  constexpr int kSteps = 1500;
  Rng rng(static_cast<uint64_t>(GetParam()));
  RowTable storage(DeltaCols());
  RowTable* table = &storage;
  std::vector<std::vector<NaiveNode>> model(kRows);
  Ts clock = 1;
  for (int r = 0; r < kRows; ++r) {
    const Row row{int64_t{r}, 0.5 * r, int64_t{0}};
    table->Insert(row, clock, nullptr);
    model[r].push_back(NaiveNode{mvcc::VersionStatus::kCommitted, clock,
                                 false, 0, row});
  }
  table->Seal();
  // Distinct owner identities for pending writers.
  const int owners[4] = {};
  const auto owner_of = [&](int i) -> const void* { return &owners[i]; };

  const auto check_read = [&](int rid, Ts snapshot) {
    SCOPED_TRACE("rid=" + std::to_string(rid) +
                 " snapshot=" + std::to_string(snapshot));
    const NaiveRead want = NaiveResolve(model[rid], snapshot);
    Row got;
    mvcc::FoldObservation obs;
    WorkMeter meter;
    const bool visible =
        snapshot == kMaxTs
            ? table->ReadLatestObserved(rid, &got, &obs, &meter)
            : table->ReadObserved(rid, snapshot, &got, &obs, &meter);
    ASSERT_EQ(visible, want.visible);
    EXPECT_EQ(meter.version_hops, want.hops);
    EXPECT_EQ(meter.rows_read, want.rows_read);
    if (!visible) return;
    ExpectSameBits(got, want.row);
    EXPECT_EQ(obs.full_cts, want.obs.full_cts);
    EXPECT_EQ(obs.any_cts, want.obs.any_cts);
  };

  for (int step = 0; step < kSteps; ++step) {
    const int rid = static_cast<int>(rng.Uniform(0, kRows - 1));
    std::vector<NaiveNode>& chain = model[rid];
    const int op = static_cast<int>(rng.Uniform(0, 99));
    if (op < 35) {
      // A committed delta; its cts may land below deltas already linked.
      const Ts cts = clock + static_cast<Ts>(rng.Uniform(1, 6));
      clock = std::max(clock, cts - 3);
      const bool on_double = rng.Bernoulli(0.7);
      const uint32_t col = on_double ? 1 : 2;
      const Value inc = on_double ? Value(OrderSensitiveIncrement(&rng))
                                  : Value(rng.Uniform(-5, 5));
      ASSERT_TRUE(table->AddDeltaVersion(rid, col, inc, cts, nullptr).ok());
      chain.push_back(NaiveNode{mvcc::VersionStatus::kCommittedDelta, cts,
                                true, col, Row{inc}});
    } else if (op < 38) {
      // A committed full version.
      clock += 1 + static_cast<Ts>(rng.Uniform(0, 2));
      const Row row{int64_t{rid}, rng.NextDouble(), rng.Uniform(0, 9)};
      ASSERT_TRUE(table->AddVersion(rid, row, clock, nullptr).ok());
      chain.push_back(NaiveNode{mvcc::VersionStatus::kCommitted, clock,
                                false, 0, row});
    } else if (op < 46) {
      // A pending delta or full install by one of the owners.
      const int who = static_cast<int>(rng.Uniform(0, 3));
      if (rng.Bernoulli(0.75)) {
        const Value inc(OrderSensitiveIncrement(&rng));
        const bool ok = NaiveCanInstallDelta(chain, owner_of(who));
        mvcc::VersionNode* node =
            table->TryInstallDelta(rid, 1, inc, owner_of(who), nullptr);
        ASSERT_EQ(node != nullptr, ok);
        if (node != nullptr) {
          chain.push_back(NaiveNode{mvcc::VersionStatus::kPending, 0, true,
                                    1, Row{inc}, owner_of(who), node});
        }
      } else {
        // Half the writers base on the newest state, half on a stale one.
        const Ts base =
            rng.Bernoulli(0.5)
                ? clock
                : static_cast<Ts>(
                      rng.Uniform(0, static_cast<int64_t>(clock)));
        const Row row{int64_t{rid}, rng.NextDouble(), int64_t{-1}};
        const bool ok = NaiveCanInstallFull(chain, owner_of(who), base);
        mvcc::VersionNode* node =
            table->TryInstallFull(rid, row, owner_of(who), base, nullptr);
        ASSERT_EQ(node != nullptr, ok);
        if (node != nullptr) {
          chain.push_back(NaiveNode{mvcc::VersionStatus::kPending, 0, false,
                                    0, row, owner_of(who), node});
        }
      }
    } else if (op < 54) {
      // Publish or withdraw a pending node (any depth): publishes land
      // out of install order.
      std::vector<NaiveNode*> pending;
      for (NaiveNode& n : chain) {
        if (n.status == mvcc::VersionStatus::kPending) pending.push_back(&n);
      }
      if (pending.empty()) continue;
      NaiveNode* n = pending[rng.Uniform(
          0, static_cast<int64_t>(pending.size()) - 1)];
      if (rng.Bernoulli(0.7)) {
        clock += 1 + static_cast<Ts>(rng.Uniform(0, 2));
        mvcc::Publish(n->handle, clock);
        n->cts = clock;
        n->status = n->delta ? mvcc::VersionStatus::kCommittedDelta
                             : mvcc::VersionStatus::kCommitted;
      } else {
        mvcc::Withdraw(n->handle);
        n->status = mvcc::VersionStatus::kAborted;
      }
      n->handle = nullptr;
    } else if (op < 85) {
      // Reads: latest (builds memos), recent, and old snapshots that
      // fall below the memos' any_cts.
      check_read(rid, kMaxTs);
      check_read(rid, clock);
      check_read(rid, static_cast<Ts>(rng.Uniform(0, static_cast<int64_t>(
                                                         clock) + 3)));
    } else if (op < 93) {
      const Ts observed = NaiveResolve(chain, kMaxTs).obs.full_cts;
      const Ts stale = static_cast<Ts>(rng.Uniform(0, static_cast<int64_t>(
                                                          clock)));
      for (const Ts t : {observed, stale}) {
        for (int who = 0; who < 4; ++who) {
          EXPECT_EQ(table->ValidateRead(rid, t, owner_of(who)),
                    NaiveValidateRead(chain, t, owner_of(who)))
              << "rid=" << rid << " observed=" << t;
        }
      }
    } else if (op < 98) {
      const Ts horizon =
          static_cast<Ts>(rng.Uniform(0, static_cast<int64_t>(clock)));
      table->Vacuum(horizon);
      for (std::vector<NaiveNode>& c : model) NaiveVacuum(&c, horizon);
    } else {
      // Rewind: every chain is back to its load version; the pending
      // nodes' handles die with their nodes, and memos go with theirs.
      table->Rewind();
      for (std::vector<NaiveNode>& c : model) c.resize(1);
    }
    size_t versions = 0;
    for (const std::vector<NaiveNode>& c : model) versions += c.size();
    ASSERT_EQ(table->NumVersions(), versions) << "step " << step;
    if (HasFatalFailure()) return;
  }
  for (int r = 0; r < kRows; ++r) {
    check_read(r, kMaxTs);
    check_read(r, clock / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoldMemoOracleTest, ::testing::Range(1, 22));

/// Reads one hand-built chain at `snapshot` through mvcc::ResolveVisible.
Row ResolveChain(const mvcc::VersionChain& chain, Ts snapshot,
                 WorkMeter* meter) {
  Row scratch;
  const Row* row = mvcc::ResolveVisible(
      chain.head.load(std::memory_order_acquire), snapshot, &scratch,
      nullptr, meter);
  EXPECT_NE(row, nullptr);
  return row == nullptr ? Row{} : *row;
}

size_t CountMemos(const mvcc::VersionChain& chain) {
  size_t memos = 0;
  for (const mvcc::VersionNode* n = chain.head.load(); n != nullptr;
       n = n->prev.load()) {
    if (mvcc::MemoOf(n) != nullptr) ++memos;
  }
  return memos;
}

// Folding a 1000-delta chain read after every install leaves at most one
// memo per kMemoMinDeltas deltas, and every read costs the same hops as
// a full walk while folding to the same bits as a serial cts-order sum.
TEST(FoldMemoTest, MemoCountBoundedOnLongChain) {
  constexpr int kDeltas = 1000;
  mvcc::VersionChain chain;
  auto* full = new mvcc::VersionNode();
  full->payload = Row{int64_t{1}, 0.25, int64_t{0}};
  mvcc::Publish(full, 1);
  mvcc::PushHead(&chain, full);
  Rng rng(99);
  double serial = 0.25;
  for (int i = 0; i < kDeltas; ++i) {
    auto* node = new mvcc::VersionNode();
    node->is_delta = true;
    node->delta_column = 1;
    const double inc = OrderSensitiveIncrement(&rng);
    node->payload = Row{Value(inc)};
    mvcc::Publish(node, 2 + i);
    mvcc::PushHead(&chain, node);
    serial += inc;
    WorkMeter meter;
    const Row row = ResolveChain(chain, kMaxTs, &meter);
    ASSERT_EQ(Bits(row[1].AsDouble()), Bits(serial)) << "delta " << i;
    EXPECT_EQ(meter.version_hops, static_cast<uint64_t>(i + 2));
    EXPECT_EQ(meter.rows_read, 1u);
  }
  EXPECT_EQ(chain.length.load(), static_cast<size_t>(kDeltas + 1));
  const size_t bound =
      (kDeltas + mvcc::kMemoMinDeltas - 1) / mvcc::kMemoMinDeltas;
  EXPECT_GT(CountMemos(chain), 0u);
  EXPECT_LE(CountMemos(chain), bound);
  mvcc::FreeChain(chain.head.load());
}

// Readers attach memos while writers publish deltas (in cts order, like
// the commit tail), withdraw some, and Vacuum runs under the table latch.
// Every read sees a running total; the final fold equals the serial
// cts-order sum bit for bit. Run under ThreadSanitizer via the tsan
// label. Bounded by the writers: installs take the latch shared, so a
// Vacuum waiting for readers never stalls them, and the readers and the
// vacuum loop stop once the writers are done.
TEST(FoldMemoTest, ConcurrentMemosWritersAndVacuum) {
  constexpr int kWriters = 2;
  constexpr int kPerWriter = 1500;
  RowTable table(DeltaCols());
  const Rid rid = table.Insert(Row{int64_t{0}, 0.5, int64_t{0}}, 1, nullptr);
  std::mutex tail_mu;  // the "commit tail": cts allocation + publish
  Ts next_cts = 2;
  std::vector<std::pair<Ts, double>> committed;  // guarded by tail_mu
  std::atomic<int> writers_done{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(100 + w);
      const void* owner = &threads;  // deltas never conflict
      for (int i = 0; i < kPerWriter; ++i) {
        const double inc = OrderSensitiveIncrement(&rng);
        mvcc::VersionNode* node =
            table.TryInstallDelta(rid, 1, Value(inc), owner, nullptr);
        ASSERT_NE(node, nullptr);
        if (i % 7 == 3) {
          mvcc::Withdraw(node);
          continue;
        }
        std::lock_guard<std::mutex> lock(tail_mu);
        const Ts cts = next_cts++;
        mvcc::Publish(node, cts);
        committed.emplace_back(cts, inc);
      }
      writers_done.fetch_add(1);
    });
  }
  threads.emplace_back([&] {
    while (writers_done.load() < kWriters) {
      Ts horizon;
      {
        std::lock_guard<std::mutex> lock(tail_mu);
        horizon = next_cts - 1;
      }
      table.Vacuum(horizon);
      std::this_thread::yield();
    }
  });
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(200 + r);
      while (writers_done.load() < kWriters) {
        Row row;
        Ts snapshot;
        {
          std::lock_guard<std::mutex> lock(tail_mu);
          snapshot = next_cts - 1;
        }
        if (rng.Bernoulli(0.3)) {
          snapshot = static_cast<Ts>(
              rng.Uniform(1, static_cast<int64_t>(snapshot)));
        }
        ASSERT_TRUE(table.Read(rid, snapshot, &row, nullptr));
        EXPECT_EQ(row[0].AsInt(), 0);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::sort(committed.begin(), committed.end());
  double serial = 0.5;
  for (const auto& [cts, inc] : committed) serial += inc;
  // Vacuum unlinks every withdrawn delta and nothing committed; the
  // memos that survive keep the walk's hop count exact.
  table.Vacuum(next_cts);
  EXPECT_EQ(table.NumVersions(), committed.size() + 1);
  Row latest;
  WorkMeter meter;
  ASSERT_TRUE(table.ReadLatest(rid, &latest, &meter));
  EXPECT_EQ(Bits(latest[1].AsDouble()), Bits(serial));
  EXPECT_EQ(meter.version_hops, committed.size() + 1);
}

}  // namespace
}  // namespace hattrick
