// Randomized multi-threaded commit storms against the lock-free MVCC
// transaction layer: many writer threads hammer a small Zipf-hot key set
// and the final state must equal the sum of the increments the committed
// transactions claim (no lost updates, no double application), at every
// isolation level. A serial-model oracle replays seeded single-threaded
// histories and demands that the final table equal a plain model built
// from the transactions whose Commit returned OK, and a delta-vs-full
// oracle proves both write shapes converge to the same balances. The
// binary carries the `tsan` label so the contention-smoke CI leg re-runs
// it under ThreadSanitizer.

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/catalog.h"
#include "txn/timestamp.h"
#include "txn/txn_manager.h"
#include "txn/wal.h"

namespace hattrick {
namespace {

constexpr size_t kAccounts = 8;
constexpr int kThreads = 4;
constexpr uint64_t kTxnsPerThread = 150;

Schema AccountSchema() {
  return Schema({{"id", DataType::kInt64}, {"balance", DataType::kInt64}});
}

/// Zipf-ish hot-key pick: half the draws hit account 0, the rest spread.
Rid HotRid(Rng* rng) {
  if (rng->NextDouble() < 0.5) return 0;
  return static_cast<Rid>(rng->Uniform(1, kAccounts - 1));
}

struct Fixture {
  Catalog catalog;
  RowTable* table = nullptr;
  TimestampOracle oracle;
  std::unique_ptr<TxnManager> tm;

  Fixture() {
    table = catalog.CreateTable("accounts", AccountSchema());
    for (size_t i = 0; i < kAccounts; ++i) {
      table->Insert(Row{static_cast<int64_t>(i), int64_t{0}}, 1, nullptr);
    }
    tm = std::make_unique<TxnManager>(&catalog, &oracle, nullptr);
    oracle.ResetTo(1);
  }

  int64_t Balance(Rid rid) {
    Row row;
    EXPECT_TRUE(table->ReadLatest(rid, &row, nullptr));
    return row[1].AsInt();
  }
};

/// Runs the storm: each thread issues kTxnsPerThread increments of 1-3
/// hot rows (as deltas or read-modify-write full updates) and records
/// what its COMMITTED transactions added per row. Returns false if any
/// transaction failed outright (retries exhausted).
bool RunStorm(Fixture* f, IsolationLevel isolation, bool use_deltas,
              uint64_t seed,
              std::vector<std::atomic<int64_t>>* committed_sums) {
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(seed * 977 + static_cast<uint64_t>(t));
      for (uint64_t n = 1; n <= kTxnsPerThread && ok.load(); ++n) {
        const int rows = static_cast<int>(rng.Uniform(1, 3));
        std::vector<Rid> rids;
        std::vector<int64_t> amounts;
        for (int r = 0; r < rows; ++r) {
          const Rid rid = HotRid(&rng);
          bool dup = false;
          for (const Rid seen : rids) dup = dup || seen == rid;
          if (dup) continue;
          rids.push_back(rid);
          amounts.push_back(rng.Uniform(1, 9));
        }
        const auto body = [&](Transaction* txn) -> Status {
          for (size_t i = 0; i < rids.size(); ++i) {
            if (use_deltas) {
              f->tm->BufferDelta(txn, 0, rids[i], 1, Value(amounts[i]));
            } else {
              Row row;
              HATTRICK_RETURN_IF_ERROR(
                  f->tm->Read(txn, 0, rids[i], &row, nullptr));
              Row updated = row;
              updated[1] = Value(row[1].AsInt() + amounts[i]);
              f->tm->BufferUpdate(txn, 0, rids[i], row,
                                  std::move(updated));
            }
          }
          return Status::OK();
        };
        const StatusOr<CommitResult> result = f->tm->RunWithRetries(
            isolation, static_cast<uint32_t>(t) + 1, n, body, nullptr,
            /*max_retries=*/100, nullptr);
        if (!result.ok()) {
          ok.store(false);
          return;
        }
        for (size_t i = 0; i < rids.size(); ++i) {
          (*committed_sums)[rids[i]].fetch_add(amounts[i],
                                               std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return ok.load();
}

class CommitStormTest
    : public ::testing::TestWithParam<std::tuple<IsolationLevel, bool>> {};

TEST_P(CommitStormTest, FinalBalancesMatchCommittedIncrements) {
  const auto [isolation, use_deltas] = GetParam();
  Fixture f;
  std::vector<std::atomic<int64_t>> sums(kAccounts);
  ASSERT_TRUE(RunStorm(&f, isolation, use_deltas, 42, &sums))
      << "a transaction exhausted its retries";
  for (size_t i = 0; i < kAccounts; ++i) {
    EXPECT_EQ(f.Balance(static_cast<Rid>(i)), sums[i].load())
        << "account " << i << ": lost or doubled update";
  }
  // Vacuuming the storm's version chains must not change any balance.
  f.table->Vacuum(f.oracle.last_committed());
  for (size_t i = 0; i < kAccounts; ++i) {
    EXPECT_EQ(f.Balance(static_cast<Rid>(i)), sums[i].load());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLevels, CommitStormTest,
    ::testing::Combine(::testing::Values(IsolationLevel::kReadCommitted,
                                         IsolationLevel::kSnapshot,
                                         IsolationLevel::kSerializable),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<IsolationLevel, bool>>&
           info) {
      const IsolationLevel iso = std::get<0>(info.param);
      const bool deltas = std::get<1>(info.param);
      const std::string name =
          iso == IsolationLevel::kReadCommitted ? "RC"
          : iso == IsolationLevel::kSnapshot    ? "SI"
                                                : "SER";
      return name + (deltas ? "_delta" : "_full");
    });

/// Delta-vs-full equivalence oracle: the same concurrent increment
/// workload, expressed as deltas in one run and read-modify-write full
/// updates in another, must converge to identical balances.
TEST(CommitStormOracle, DeltaAndFullConvergeIdentically) {
  for (const uint64_t seed : {7u, 21u, 63u}) {
    Fixture with_deltas;
    Fixture with_fulls;
    std::vector<std::atomic<int64_t>> sums_d(kAccounts);
    std::vector<std::atomic<int64_t>> sums_f(kAccounts);
    ASSERT_TRUE(RunStorm(&with_deltas, IsolationLevel::kSnapshot,
                         /*use_deltas=*/true, seed, &sums_d));
    ASSERT_TRUE(RunStorm(&with_fulls, IsolationLevel::kSnapshot,
                         /*use_deltas=*/false, seed, &sums_f));
    for (size_t i = 0; i < kAccounts; ++i) {
      // Same seed -> same per-thread increment schedule -> same sums.
      EXPECT_EQ(sums_d[i].load(), sums_f[i].load());
      EXPECT_EQ(with_deltas.Balance(static_cast<Rid>(i)),
                with_fulls.Balance(static_cast<Rid>(i)))
          << "delta and full-update runs diverged on account " << i;
    }
  }
}

/// Serial-model oracle: a deterministic single-threaded history of
/// interleaved transactions (including overlapping begins, aborts,
/// deltas, updates and inserts) is replayed against a plain model that
/// applies each transaction's effect only when Commit returns OK. The
/// final table must equal the model row for row, across 21 seeds: a lost
/// or phantom effect shows up as a mismatch.
TEST(CommitStormOracle, SerialHistoriesMatchModelOn21Seeds) {
  int overlap_commits = 0;
  for (uint64_t seed = 1; seed <= 21; ++seed) {
    Fixture f;
    // (id, balance) per rid, in rid order — the shape of the table scan.
    std::vector<int64_t> model;
    for (size_t i = 0; i < kAccounts; ++i) {
      model.push_back(static_cast<int64_t>(i));
      model.push_back(0);
    }
    const auto balance = [&model](Rid rid) -> int64_t& {
      return model[2 * rid + 1];
    };
    Rng rng(seed);
    // Keep a second transaction open across others to exercise overlap;
    // commit or abort it at random points.
    std::unique_ptr<Transaction> overlap;
    Rid overlap_rid = 0;
    int64_t overlap_amount = 0;
    for (int step = 0; step < 200; ++step) {
      const double p = rng.NextDouble();
      if (overlap == nullptr && p < 0.2) {
        overlap = std::make_unique<Transaction>(
            f.tm->Begin(IsolationLevel::kSnapshot));
        overlap_rid = HotRid(&rng);
        overlap_amount = rng.Uniform(1, 5);
        f.tm->BufferDelta(overlap.get(), 0, overlap_rid, 1,
                          Value(overlap_amount));
        continue;
      }
      if (overlap != nullptr && p > 0.8) {
        if (p > 0.9 && f.tm->Commit(overlap.get(), nullptr).ok()) {
          balance(overlap_rid) += overlap_amount;
          ++overlap_commits;
        } else {
          f.tm->Abort(overlap.get());
        }
        overlap.reset();
        continue;
      }
      Transaction txn = f.tm->Begin(IsolationLevel::kSnapshot);
      const Rid rid = HotRid(&rng);
      int64_t effect_balance = 0;
      bool insert = false;
      if (p < 0.5) {
        const int64_t amount = rng.Uniform(1, 9);
        f.tm->BufferDelta(&txn, 0, rid, 1, Value(amount));
        effect_balance = balance(rid) + amount;
      } else if (p < 0.75) {
        Row row;
        if (!f.tm->Read(&txn, 0, rid, &row, nullptr).ok()) continue;
        // Nothing else is in flight, so the snapshot is the model state.
        EXPECT_EQ(row[1].AsInt(), balance(rid)) << "seed " << seed;
        Row updated = row;
        updated[1] = Value(row[1].AsInt() * 2 + 1);
        effect_balance = updated[1].AsInt();
        f.tm->BufferUpdate(&txn, 0, rid, row, std::move(updated));
      } else {
        insert = true;
        effect_balance = rng.Uniform(0, 50);
        f.tm->BufferInsert(&txn, 0,
                           Row{static_cast<int64_t>(kAccounts) + step,
                               effect_balance});
      }
      if (!f.tm->Commit(&txn, nullptr).ok()) continue;
      if (insert) {
        model.push_back(static_cast<int64_t>(kAccounts) + step);
        model.push_back(effect_balance);
      } else {
        balance(rid) = effect_balance;
      }
    }
    if (overlap != nullptr) f.tm->Abort(overlap.get());
    std::vector<int64_t> contents;
    for (Rid rid = 0; rid < f.table->NumSlots(); ++rid) {
      Row row;
      if (f.table->ReadLatest(rid, &row, nullptr)) {
        contents.push_back(row[0].AsInt());
        contents.push_back(row[1].AsInt());
      }
    }
    EXPECT_EQ(contents, model) << "table diverged from model at seed "
                               << seed;
  }
  // The overlapping-commit path must actually run.
  EXPECT_GT(overlap_commits, 0);
}

}  // namespace
}  // namespace hattrick
