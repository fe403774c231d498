// Micro-benchmarks of the storage and transaction substrates
// (google-benchmark): B+-tree operations, MVCC row store (point reads,
// heap scans and index-style rid visits over LINEORDER-shaped rows),
// columnar scans, key encoding, WAL encode/decode, and data generation.

#include <memory>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/key_encoding.h"
#include "common/rng.h"
#include "hattrick/datagen.h"
#include "hattrick/hattrick_schema.h"
#include "storage/btree.h"
#include "storage/column_table.h"
#include "storage/row_table.h"
#include "txn/wal.h"

namespace hattrick {
namespace {

std::string IntKey(int64_t v) {
  std::string out;
  key::EncodeInt64(v, &out);
  return out;
}

void BM_BTreeInsert(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    BTree tree;
    Rng rng(1);
    state.ResumeTiming();
    for (int64_t i = 0; i < n; ++i) {
      tree.Insert(IntKey(static_cast<int64_t>(rng.Next() % 1000000)), i,
                  nullptr);
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BTreeInsert)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BTreeLookup(benchmark::State& state) {
  const int64_t n = state.range(0);
  BTree tree;
  for (int64_t i = 0; i < n; ++i) tree.Insert(IntKey(i), i, nullptr);
  Rng rng(2);
  uint64_t value = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Lookup(IntKey(rng.Uniform(0, n - 1)), &value, nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup)->Arg(1000)->Arg(100000);

void BM_BTreeRangeScan(benchmark::State& state) {
  BTree tree;
  for (int64_t i = 0; i < 100000; ++i) tree.Insert(IntKey(i), i, nullptr);
  const int64_t width = state.range(0);
  Rng rng(3);
  for (auto _ : state) {
    const int64_t lo = rng.Uniform(0, 100000 - width);
    size_t count = 0;
    tree.ScanRange(IntKey(lo), IntKey(lo + width),
                   [&](const std::string&, uint64_t) {
                     ++count;
                     return true;
                   },
                   nullptr);
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_BTreeRangeScan)->Arg(100)->Arg(10000);

void BM_RowTableRead(benchmark::State& state) {
  RowTable table(
      Schema({{"k", DataType::kInt64}, {"v", DataType::kDouble}}));
  for (int64_t i = 0; i < 100000; ++i) {
    table.Insert(Row{i, static_cast<double>(i)}, 1, nullptr);
  }
  Rng rng(4);
  Row out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.Read(static_cast<Rid>(rng.Uniform(0, 99999)), 1, &out,
                   nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RowTableRead);

/// A row table holding `n` generated LINEORDER rows (17 cells, strings
/// included), each a single load version committed at ts 1.
std::unique_ptr<RowTable> LineorderTable(int64_t n) {
  DatagenConfig config;
  config.scale_factor = 1.0;
  config.lineorders_per_sf = static_cast<size_t>(n);
  const Dataset dataset = GenerateDataset(config);
  auto table = std::make_unique<RowTable>(LineorderSchema());
  for (const Row& row : dataset.lineorder) table->Insert(row, 1, nullptr);
  return table;
}

/// The Q1 cells a heap-scan visitor touches per row.
double Q1Cells(const Row& row) {
  return row[lo::kExtendedPrice].AsDouble() *
             static_cast<double>(row[lo::kDiscount].AsInt()) +
         static_cast<double>(row[lo::kQuantity].AsInt());
}

void BM_RowTableScan(benchmark::State& state) {
  const std::unique_ptr<RowTable> table = LineorderTable(state.range(0));
  const size_t rows = table->NumSlots();
  for (auto _ : state) {
    double sum = 0;
    table->Scan(1,
                [&](Rid, const Row& row) {
                  sum += Q1Cells(row);
                  return true;
                },
                nullptr);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_RowTableScan)->Arg(10000)->Arg(100000);

/// An index range scan's fetch: every eighth rid of the table in a
/// shuffled order (index key order is not rid order), visited in place.
void BM_RowTableVisitRids(benchmark::State& state) {
  const std::unique_ptr<RowTable> table = LineorderTable(state.range(0));
  std::vector<Rid> rids;
  for (Rid rid = 0; rid < table->NumSlots(); rid += 8) rids.push_back(rid);
  Rng rng(6);
  for (size_t i = rids.size(); i > 1; --i) {
    std::swap(rids[i - 1], rids[rng.Next() % i]);
  }
  for (auto _ : state) {
    double sum = 0;
    table->VisitRids(1, rids,
                     [&](Rid, const Row& row) {
                       sum += Q1Cells(row);
                       return true;
                     },
                     nullptr);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * rids.size());
}
BENCHMARK(BM_RowTableVisitRids)->Arg(10000)->Arg(100000);

void BM_VersionChainTraversal(benchmark::State& state) {
  // Reading an old snapshot must walk past `depth` newer versions.
  const int64_t depth = state.range(0);
  RowTable table(
      Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}));
  const Rid rid = table.Insert(Row{int64_t{0}, int64_t{0}}, 1, nullptr);
  for (int64_t i = 0; i < depth; ++i) {
    (void)table.AddVersion(rid, Row{int64_t{0}, i}, 10 + i, nullptr);
  }
  Row out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Read(rid, 1, &out, nullptr));
  }
}
BENCHMARK(BM_VersionChainTraversal)->Arg(1)->Arg(16)->Arg(256);

void BM_HotRowRead(benchmark::State& state) {
  // A Payment-style hot row: N committed S_YTD increments above its one
  // full version, nothing vacuumed. After the first (warm) read, a read
  // should cost the deltas committed since, not all N.
  const int64_t deltas = state.range(0);
  RowTable table(Schema({{"k", DataType::kInt64},
                         {"ytd", DataType::kDouble},
                         {"name", DataType::kString}}));
  const Rid rid = table.Insert(
      Row{int64_t{7}, 0.0, std::string("Supplier#000000007")}, 1, nullptr);
  for (int64_t i = 0; i < deltas; ++i) {
    (void)table.AddDeltaVersion(rid, 1, Value(1.25 + i), 2 + i, nullptr);
  }
  Row out;
  (void)table.Read(rid, kMaxTs - 1, &out, nullptr);  // warm read
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Read(rid, kMaxTs - 1, &out, nullptr));
  }
}
BENCHMARK(BM_HotRowRead)->Arg(16)->Arg(256)->Arg(4096);

void BM_ColumnScanInts(benchmark::State& state) {
  ColumnTable table(
      Schema({{"k", DataType::kInt64}, {"v", DataType::kDouble}}));
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) {
    (void)table.Append(Row{i, static_cast<double>(i)}, nullptr);
  }
  for (auto _ : state) {
    int64_t sum = 0;
    for (int64_t i = 0; i < n; ++i) sum += table.GetInt(0, i);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ColumnScanInts)->Arg(10000)->Arg(100000);

void BM_KeyEncodeComposite(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key::EncodeKey(
        {Value(static_cast<int64_t>(rng.Next())), Value("Customer#0042")}));
  }
}
BENCHMARK(BM_KeyEncodeComposite);

void BM_WalEncodeDecode(benchmark::State& state) {
  WalRecord record;
  record.lsn = 1;
  record.commit_ts = 2;
  for (int i = 0; i < 4; ++i) {
    record.ops.push_back(WalOp{
        WalOp::Kind::kInsert, 0, static_cast<Rid>(i), 0,
        Row{int64_t{1}, int64_t{2}, 3.5, std::string("REG AIR"),
            std::string("1-URGENT")}});
  }
  for (auto _ : state) {
    const std::string bytes = record.Encode();
    auto decoded = WalRecord::Decode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_WalEncodeDecode);

void BM_DatasetGeneration(benchmark::State& state) {
  DatagenConfig config;
  config.scale_factor = 1.0;
  config.lineorders_per_sf = state.range(0);
  for (auto _ : state) {
    const Dataset ds = GenerateDataset(config);
    benchmark::DoNotOptimize(ds.lineorder.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DatasetGeneration)->Arg(2000)->Arg(20000);

}  // namespace
}  // namespace hattrick

BENCHMARK_MAIN();
