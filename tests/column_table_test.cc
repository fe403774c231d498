// Tests for the columnar table: typed storage, dictionary encoding, zone
// maps (correctness of pruning bounds), in-place updates, reset by clear
// and re-append, and the bitmap-mode version log (per-rid newest-version
// index, copy-free session snapshots under concurrent commits).

#include <atomic>
#include <cstring>
#include <deque>
#include <thread>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/column_table.h"
#include "txn/mvcc.h"

namespace hattrick {
namespace {

Schema Mixed() {
  return Schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString}});
}

TEST(ColumnTableTest, AppendAndAccess) {
  ColumnTable table(Mixed());
  ASSERT_TRUE(table.Append(Row{int64_t{1}, 1.5, std::string("a")},
                           nullptr).ok());
  ASSERT_TRUE(table.Append(Row{int64_t{2}, 2.5, std::string("b")},
                           nullptr).ok());
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.GetInt(0, 0), 1);
  EXPECT_DOUBLE_EQ(table.GetDouble(1, 1), 2.5);
  EXPECT_EQ(table.GetString(2, 1), "b");
}

TEST(ColumnTableTest, AppendValidatesSchema) {
  ColumnTable table(Mixed());
  EXPECT_EQ(table.Append(Row{int64_t{1}}, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      table.Append(Row{1.0, 1.5, std::string("a")}, nullptr).code(),
      StatusCode::kInvalidArgument);
}

TEST(ColumnTableTest, DictionaryEncodesStrings) {
  ColumnTable table(Mixed());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(table
                    .Append(Row{int64_t{i}, 0.0,
                                std::string(i % 2 == 0 ? "even" : "odd")},
                            nullptr)
                    .ok());
  }
  EXPECT_EQ(table.DictionarySize(2), 2u);
  EXPECT_EQ(table.GetStringCode(2, 0), table.GetStringCode(2, 2));
  EXPECT_NE(table.GetStringCode(2, 0), table.GetStringCode(2, 1));
  EXPECT_EQ(table.FindStringCode(2, "even"),
            static_cast<int64_t>(table.GetStringCode(2, 0)));
  EXPECT_EQ(table.FindStringCode(2, "absent"), -1);
}

TEST(ColumnTableTest, GetRowMaterializes) {
  ColumnTable table(Mixed());
  ASSERT_TRUE(table.Append(Row{int64_t{7}, 3.5, std::string("x")},
                           nullptr).ok());
  const Row row = table.GetRow(0);
  EXPECT_EQ(row[0].AsInt(), 7);
  EXPECT_DOUBLE_EQ(row[1].AsDouble(), 3.5);
  EXPECT_EQ(row[2].AsString(), "x");
}

TEST(ColumnTableTest, ZoneMapsBoundValues) {
  ColumnTable table(Mixed());
  Rng rng(5);
  std::vector<int64_t> values;
  const size_t n = ColumnTable::kBlockRows * 3 + 17;
  for (size_t i = 0; i < n; ++i) {
    const int64_t v = rng.Uniform(-1000, 1000);
    values.push_back(v);
    ASSERT_TRUE(
        table.Append(Row{v, static_cast<double>(v), std::string("s")},
                     nullptr).ok());
  }
  const size_t blocks = ColumnTable::NumBlocks(n);
  EXPECT_EQ(blocks, 4u);
  for (size_t b = 0; b < blocks; ++b) {
    double mn;
    double mx;
    ASSERT_TRUE(table.BlockMinMax(0, b, &mn, &mx));
    const size_t lo = b * ColumnTable::kBlockRows;
    const size_t hi = std::min(n, lo + ColumnTable::kBlockRows);
    for (size_t r = lo; r < hi; ++r) {
      EXPECT_GE(static_cast<double>(values[r]), mn);
      EXPECT_LE(static_cast<double>(values[r]), mx);
    }
  }
  // String columns have no zone maps.
  double mn;
  double mx;
  EXPECT_FALSE(table.BlockMinMax(2, 0, &mn, &mx));
}

TEST(ColumnTableTest, UpdateRowOverwritesAndWidensZoneMap) {
  ColumnTable table(Mixed());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table
                    .Append(Row{int64_t{i}, static_cast<double>(i),
                                std::string("a")},
                            nullptr)
                    .ok());
  }
  ASSERT_TRUE(
      table.UpdateRow(3, Row{int64_t{500}, -7.0, std::string("new")},
                      nullptr).ok());
  EXPECT_EQ(table.GetInt(0, 3), 500);
  EXPECT_DOUBLE_EQ(table.GetDouble(1, 3), -7.0);
  EXPECT_EQ(table.GetString(2, 3), "new");
  double mn;
  double mx;
  ASSERT_TRUE(table.BlockMinMax(0, 0, &mn, &mx));
  EXPECT_LE(mn, 0.0);
  EXPECT_GE(mx, 500.0);  // widened to cover the update
  ASSERT_TRUE(table.BlockMinMax(1, 0, &mn, &mx));
  EXPECT_LE(mn, -7.0);
}

TEST(ColumnTableTest, UpdateRowOutOfRange) {
  ColumnTable table(Mixed());
  EXPECT_EQ(table.UpdateRow(0, Row{int64_t{1}, 0.0, std::string("x")},
                            nullptr)
                .code(),
            StatusCode::kOutOfRange);
}

TEST(ColumnTableTest, MeterCountsCells) {
  ColumnTable table(Mixed());
  WorkMeter meter;
  ASSERT_TRUE(table.Append(Row{int64_t{1}, 1.0, std::string("x")},
                           &meter).ok());
  EXPECT_EQ(meter.rows_written, 1u);
  EXPECT_EQ(meter.column_values, 3u);
}

// --------------------------------------------------------------------------
// Version log (bitmap merge mode)
// --------------------------------------------------------------------------

Schema Numeric() {
  return Schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString}});
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

void ExpectSameBits(const Row& got, const Row& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t c = 0; c < got.size(); ++c) {
    if (want[c].is_double()) {
      EXPECT_EQ(Bits(got[c].AsDouble()), Bits(want[c].AsDouble()))
          << "col " << c;
    } else {
      EXPECT_EQ(got[c], want[c]) << "col " << c;
    }
  }
}

/// The newest version of `rid` in `snap`: its override or insert row, or
/// the base row.
Row NewestInSnapshot(const ColumnTable& table, const ColumnDeltaSnapshot& snap,
                     size_t rid) {
  if (rid >= snap.base_rows) return snap.InsertRow(rid);
  if (snap.DirtyBit(rid)) return snap.OverrideRow(rid);
  return table.GetRow(rid);
}

// AppendDeltaVersion materializes each increment over the row's newest
// version through the per-rid index. A test-side mirror of the log finds
// that version the old way — a reverse scan of the whole log, else the
// base row — across interleaved inserts, updates, deltas, folds and
// resets (Clear plus re-append of the loaded rows); both must give the
// same rows, bit for bit.
TEST(ColumnVersionLogTest, DeltaIndexMatchesReverseScan) {
  struct MirrorOp {
    uint64_t csn;
    size_t rid;
    Row row;
  };
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    ColumnTable table(Numeric());
    std::vector<Row> loaded;
    for (int i = 0; i < 8; ++i) {
      loaded.push_back(Row{int64_t{i}, 0.1 * i, std::string("b")});
      ASSERT_TRUE(table.Append(loaded.back(), nullptr).ok());
    }
    std::deque<MirrorOp> mirror;
    uint64_t csn = 1;
    const auto reverse_scan = [&](size_t rid) {
      for (auto it = mirror.rbegin(); it != mirror.rend(); ++it) {
        if (it->rid == rid) return it->row;
      }
      return table.GetRow(rid);
    };
    for (int step = 0; step < 600; ++step) {
      const size_t base = table.num_rows();
      // Pending inserts occupy the rids right after the base.
      size_t pending_inserted = 0;
      for (const MirrorOp& op : mirror) {
        if (op.rid >= base) pending_inserted = std::max(pending_inserted,
                                                        op.rid - base + 1);
      }
      const size_t rows = base + pending_inserted;
      const int op = static_cast<int>(rng.Uniform(0, 99));
      ++csn;
      if (op < 15) {
        const Row row{static_cast<int64_t>(rows), rng.NextDouble(),
                      std::string("ins")};
        table.AppendVersion(csn, rows, row);
        mirror.push_back({csn, rows, row});
      } else if (op < 30) {
        const size_t rid = static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(rows) - 1));
        const Row row{static_cast<int64_t>(rid), rng.NextDouble(),
                      std::string("upd")};
        table.UpdateVersion(csn, rid, row);
        mirror.push_back({csn, rid, row});
      } else if (op < 85) {
        // Deltas concentrate on a few hot rids, the rest spread over
        // every row, pending inserts included.
        const int64_t last = static_cast<int64_t>(rows) - 1;
        const size_t rid = static_cast<size_t>(
            rng.Uniform(0, rng.Bernoulli(0.7) ? std::min<int64_t>(3, last)
                                              : last));
        const bool on_double = rng.Bernoulli(0.7);
        const size_t col = on_double ? 1 : 0;
        const Value inc = on_double ? Value(rng.NextDouble() * 1e9)
                                    : Value(rng.Uniform(-3, 3));
        Row want = reverse_scan(rid);
        mvcc::ApplyDeltaValue(&want[col], inc);
        table.AppendDeltaVersion(csn, rid, col, inc);
        mirror.push_back({csn, rid, want});
        ColumnDeltaSnapshot snap;
        table.SnapshotVersions(csn, &snap, nullptr);
        ExpectSameBits(NewestInSnapshot(table, snap, rid), want);
      } else if (op < 93) {
        const uint64_t horizon = csn - static_cast<uint64_t>(
                                           rng.Uniform(0, 20));
        table.FoldVersions(horizon, nullptr);
        while (!mirror.empty() && mirror.front().csn <= horizon) {
          mirror.pop_front();
        }
      } else {
        // Reset: the log is dropped with the base, and the loaded rows
        // come back.
        table.Clear();
        for (const Row& row : loaded) {
          ASSERT_TRUE(table.Append(row, nullptr).ok());
        }
        mirror.clear();
      }
      ASSERT_EQ(table.PendingVersions(), mirror.size()) << "step " << step;
      if (HasFatalFailure()) return;
    }
    // The folded base equals the mirror replayed in commit order.
    ColumnDeltaSnapshot snap;
    table.SnapshotVersions(csn, &snap, nullptr);
    for (size_t rid = 0; rid < snap.bound; ++rid) {
      ExpectSameBits(NewestInSnapshot(table, snap, rid), reverse_scan(rid));
    }
  }
}

// A session snapshot points into the version log instead of copying it.
// A reader keeps reading the snapshot's override and insert rows while a
// writer appends well over 1000 commits to the same log (push_back only,
// as commits do while a session holds its pin): every row must stay
// intact. Run under ThreadSanitizer via the tsan label.
TEST(ColumnVersionLogTest, SnapshotRowsSurviveConcurrentCommits) {
  constexpr int kBase = 64;
  constexpr int kCommits = 3000;
  ColumnTable table(Numeric());
  for (int i = 0; i < kBase; ++i) {
    ASSERT_TRUE(table.Append(Row{int64_t{i}, 0.0, std::string("base")},
                             nullptr).ok());
  }
  uint64_t csn = 1;
  size_t rows = kBase;
  // Overrides on the even base rids, and a few inserts.
  for (int i = 0; i < kBase; i += 2) {
    table.UpdateVersion(++csn, i,
                        Row{int64_t{i}, 1.0 * i, std::string("override")});
  }
  for (int i = 0; i < 16; ++i) {
    table.AppendVersion(++csn, rows,
                        Row{static_cast<int64_t>(rows), 2.0 * i,
                            std::string("insert")});
    ++rows;
  }
  ColumnDeltaSnapshot snap;
  table.SnapshotVersions(csn, &snap, nullptr);
  ASSERT_EQ(snap.overrides.size(), static_cast<size_t>(kBase / 2));
  ASSERT_EQ(snap.bound, static_cast<size_t>(kBase + 16));

  std::atomic<bool> done{false};
  std::atomic<bool> reading{false};
  std::thread writer([&] {
    while (!reading.load()) std::this_thread::yield();
    Rng rng(3);
    uint64_t wcsn = csn;
    size_t wrows = rows;
    for (int n = 0; n < kCommits; ++n) {
      const size_t rid = static_cast<size_t>(rng.Uniform(0, kBase - 1));
      switch (n % 3) {
        case 0:
          table.AppendDeltaVersion(++wcsn, rid, 1, Value(0.5));
          break;
        case 1:
          table.UpdateVersion(++wcsn, rid,
                              Row{static_cast<int64_t>(rid), -1.0,
                                  std::string("later")});
          break;
        default:
          table.AppendVersion(++wcsn, wrows,
                              Row{static_cast<int64_t>(wrows), -2.0,
                                  std::string("later")});
          ++wrows;
          break;
      }
    }
    done.store(true);
  });
  size_t passes = 0;
  do {
    reading.store(true);
    for (int rid = 0; rid < kBase; rid += 2) {
      const Row& row = snap.OverrideRow(rid);
      EXPECT_EQ(row[0].AsInt(), rid);
      EXPECT_EQ(row[1].AsDouble(), 1.0 * rid);
      EXPECT_EQ(row[2].AsString(), "override");
    }
    for (size_t rid = kBase; rid < snap.bound; ++rid) {
      const Row& row = snap.InsertRow(rid);
      EXPECT_EQ(row[0].AsInt(), static_cast<int64_t>(rid));
      EXPECT_EQ(row[1].AsDouble(), 2.0 * (rid - kBase));
      EXPECT_EQ(row[2].AsString(), "insert");
    }
    ++passes;
  } while (!done.load());
  writer.join();
  EXPECT_GT(passes, 0u);
  EXPECT_EQ(table.PendingVersions(),
            static_cast<size_t>(kBase / 2 + 16 + kCommits));
}

// A benchmark reset clears the table and re-appends the loaded rows in
// load order. After eager merges (in-place updates and deltas that widen
// zone maps and grow dictionaries) and bitmap folds, that must give a
// table equal to a freshly loaded one, bit for bit: cells, dictionary
// codes and their order, zone maps, and no leftover versions.
TEST(ColumnTableTest, ClearAndReappendEqualsFreshLoad) {
  Rng rng(17);
  std::vector<Row> loaded;
  const size_t n = 2 * ColumnTable::kBlockRows + 300;
  for (size_t i = 0; i < n; ++i) {
    loaded.push_back(Row{rng.Uniform(-1000, 1000), rng.NextDouble() * 100,
                         std::string("s") + std::to_string(rng.Uniform(0, 40))});
  }
  ColumnTable fresh(Numeric());
  ColumnTable table(Numeric());
  for (const Row& row : loaded) {
    ASSERT_TRUE(fresh.Append(row, nullptr).ok());
    ASSERT_TRUE(table.Append(row, nullptr).ok());
  }
  for (int round = 0; round < 3; ++round) {
    // Eager merges.
    for (int i = 0; i < 200; ++i) {
      const size_t rid = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(table.num_rows()) - 1));
      switch (rng.Uniform(0, 2)) {
        case 0:
          ASSERT_TRUE(table.UpdateRow(rid,
                                      Row{rng.Uniform(-1000000, 1000000), 1e9,
                                          "new" + std::to_string(i)},
                                      nullptr).ok());
          break;
        case 1:
          ASSERT_TRUE(table.ApplyDelta(rid, 1, Value(1e12), nullptr).ok());
          break;
        default:
          ASSERT_TRUE(table.Append(Row{int64_t{i}, 0.5, std::string("app")},
                                   nullptr).ok());
      }
    }
    // Bitmap versions, half of them folded.
    uint64_t csn = 1;
    size_t next_rid = table.num_rows();
    for (int i = 0; i < 100; ++i) {
      if (i % 2 == 0) {
        table.AppendVersion(++csn, next_rid++,
                            Row{int64_t{-i}, -1.0, std::string("ver")});
        if (i == 50) table.FoldVersions(csn, nullptr);
      } else {
        table.AppendDeltaVersion(++csn, static_cast<size_t>(i), 1,
                                 Value(-1e9));
      }
    }
    ASSERT_GT(table.PendingVersions(), 0u);

    table.Clear();
    EXPECT_EQ(table.num_rows(), 0u);
    EXPECT_EQ(table.PendingVersions(), 0u);
    for (const Row& row : loaded) {
      ASSERT_TRUE(table.Append(row, nullptr).ok());
    }

    ASSERT_EQ(table.num_rows(), fresh.num_rows());
    EXPECT_EQ(table.PendingVersions(), 0u);
    EXPECT_EQ(table.DictionarySize(2), fresh.DictionarySize(2));
    for (uint32_t code = 0; code < fresh.DictionarySize(2); ++code) {
      EXPECT_EQ(table.DictEntry(2, code), fresh.DictEntry(2, code));
    }
    EXPECT_EQ(std::memcmp(table.IntData(0), fresh.IntData(0),
                          n * sizeof(int64_t)),
              0);
    EXPECT_EQ(std::memcmp(table.DoubleData(1), fresh.DoubleData(1),
                          n * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(table.CodeData(2), fresh.CodeData(2),
                          n * sizeof(uint32_t)),
              0);
    for (size_t col = 0; col < 2; ++col) {
      for (size_t block = 0; block < ColumnTable::NumBlocks(n); ++block) {
        double got_min, got_max, want_min, want_max;
        ASSERT_TRUE(table.BlockMinMax(col, block, &got_min, &got_max));
        ASSERT_TRUE(fresh.BlockMinMax(col, block, &want_min, &want_max));
        EXPECT_EQ(Bits(got_min), Bits(want_min)) << col << "/" << block;
        EXPECT_EQ(Bits(got_max), Bits(want_max)) << col << "/" << block;
      }
    }
    ColumnDeltaSnapshot snap;
    table.SnapshotVersions(kMaxTs, &snap, nullptr);
    EXPECT_TRUE(snap.Empty());
  }
}

}  // namespace
}  // namespace hattrick
