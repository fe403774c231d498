// Sharded scale-out suite (src/shard/): router determinism and balance,
// rid encoding, 2PC record round-trips, sharded-vs-unsharded result
// equality, the shards=1 bit-identity differential, a multi-threaded
// cross-shard 2PC storm (money conservation), and the coordinator
// crash/recovery matrix.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench/support.h"
#include "common/rng.h"
#include "engine/engine_factory.h"
#include "obs/metrics.h"
#include "shard/shard_router.h"
#include "shard/sharded_engine.h"
#include "shard/two_pc.h"
#include "tests/merge_modes.h"

namespace hattrick {
namespace {

using bench::kDatagenSeed;

// ---------------------------------------------------------------------
// Router: pure function of (seed, key), reasonable balance.

ShardPlan KvPlan() {
  ShardPlan plan;
  plan["acct"] = TablePlacement{Placement::kHashed, 0};
  return plan;
}

TEST(ShardRouterTest, RoutingIsDeterministicAcrossInstances) {
  const ShardPlan plan = MakeSsbShardPlan(8);
  ShardRouter a(5, 42, plan);
  ShardRouter b(5, 42, plan);
  for (int64_t k = 0; k < 2000; ++k) {
    EXPECT_EQ(a.ShardForValue(Value(k)), b.ShardForValue(Value(k)));
    EXPECT_EQ(a.ShardForValue(Value("Customer#" + std::to_string(k))),
              b.ShardForValue(Value("Customer#" + std::to_string(k))));
  }
  for (uint32_t j = 1; j <= 8; ++j) {
    const std::string name = "FRESHNESS_" + std::to_string(j);
    EXPECT_EQ(a.ShardForName(name), b.ShardForName(name));
  }
}

TEST(ShardRouterTest, DifferentSeedsRouteDifferently) {
  const ShardPlan plan = MakeSsbShardPlan(8);
  ShardRouter a(8, 1, plan);
  ShardRouter b(8, 2, plan);
  int differs = 0;
  for (int64_t k = 0; k < 1000; ++k) {
    if (a.ShardForValue(Value(k)) != b.ShardForValue(Value(k))) ++differs;
  }
  EXPECT_GT(differs, 0);
}

TEST(ShardRouterTest, HashPartitioningIsBalanced) {
  const uint32_t shards = 4;
  ShardRouter router(shards, 42, MakeSsbShardPlan(8));
  std::vector<int> counts(shards, 0);
  const int keys = 8000;
  for (int64_t k = 0; k < keys; ++k) {
    const uint32_t shard = router.ShardForValue(Value(k));
    ASSERT_LT(shard, shards);
    ++counts[shard];
  }
  // Every shard within +/-40% of the fair share — hash-uniform, not a
  // statistical nicety: a degenerate router would defeat scale-out.
  for (uint32_t s = 0; s < shards; ++s) {
    EXPECT_GT(counts[s], keys / shards * 6 / 10) << "shard " << s;
    EXPECT_LT(counts[s], keys / shards * 14 / 10) << "shard " << s;
  }
}

TEST(ShardRidTest, EncodingRoundTripsAndShard0PassesThrough) {
  EXPECT_EQ(GlobalRid(0, 1234), Rid{1234});  // unsharded bit-identity
  EXPECT_EQ(RidShard(1234), 0u);
  EXPECT_EQ(LocalRid(1234), Rid{1234});
  for (uint32_t shard : {0u, 1u, 3u, 15u}) {
    for (Rid local : {Rid{0}, Rid{7}, Rid{1} << 36, kShardLocalRidMask}) {
      const Rid global = GlobalRid(shard, local);
      EXPECT_EQ(RidShard(global), shard);
      EXPECT_EQ(LocalRid(global), local);
    }
  }
  EXPECT_EQ(ShardLockKey(0, 42), 42u);  // shard-0 lock keys pass through
  EXPECT_NE(ShardLockKey(1, 42), ShardLockKey(2, 42));
}

TEST(TwoPcLogTest, RecordsRoundTripThroughEncoding) {
  TwoPcRecord record;
  record.kind = TwoPcRecord::Kind::kDecide;
  record.gtid = 77;
  record.commit = true;
  record.participants = {0, 2, 5};
  TwoPcRecord decoded;
  ASSERT_TRUE(TwoPcRecord::Decode(record.Encode(), &decoded));
  EXPECT_EQ(decoded.kind, record.kind);
  EXPECT_EQ(decoded.gtid, record.gtid);
  EXPECT_EQ(decoded.commit, record.commit);
  EXPECT_EQ(decoded.participants, record.participants);
  // Truncated / trailing-garbage buffers are rejected, not misread.
  std::string bytes = record.Encode();
  EXPECT_FALSE(TwoPcRecord::Decode(bytes.substr(0, bytes.size() - 1),
                                   &decoded));
  EXPECT_FALSE(TwoPcRecord::Decode(bytes + "x", &decoded));
}

// ---------------------------------------------------------------------
// Workload helpers: load the SSB dataset into an engine and replay a
// pre-generated parameter batch (identical across engines by design).

Dataset SmallDataset(double sf, uint32_t freshness_tables) {
  DatagenConfig config;
  config.scale_factor = sf;
  config.lineorders_per_sf = bench::kLineordersPerSf;
  config.seed = kDatagenSeed;
  config.num_freshness_tables = freshness_tables;
  return GenerateDataset(config);
}

std::vector<TxnParams> GenerateBatch(const Dataset& dataset, uint64_t seed,
                                     int txns) {
  WorkloadContext context(dataset);
  Rng rng(seed);
  std::vector<TxnParams> batch;
  batch.reserve(txns);
  for (int i = 0; i < txns; ++i) {
    batch.push_back(GenerateTxnParams(&context, &rng));
  }
  return batch;
}

std::vector<TxnOutcome> ReplayBatch(HtapEngine* engine,
                                    const Dataset& dataset,
                                    const std::vector<TxnParams>& batch) {
  const EngineHandles handles = EngineHandles::Resolve(
      *engine->primary_catalog(), dataset.config.num_freshness_tables);
  std::vector<TxnOutcome> outcomes;
  outcomes.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const uint32_t client = 1 + static_cast<uint32_t>(i) %
                                    dataset.config.num_freshness_tables;
    WorkMeter meter;
    outcomes.push_back(engine->ExecuteTransaction(
        MakeTxnBody(batch[i], handles, client,
                    static_cast<uint64_t>(i + 1)),
        client, static_cast<uint64_t>(i + 1), &meter));
  }
  return outcomes;
}

QueryResult RunOneQuery(HtapEngine* engine, int query_id,
                        uint32_t freshness_tables) {
  WorkMeter meter;
  while (engine->MaintenanceStep(&meter)) {
  }
  AnalyticsSession session = engine->BeginAnalytics(&meter);
  ExecContext ctx;
  ctx.meter = &meter;
  ctx.session_pin = session.guard;
  return RunQuery(query_id, *session.source, freshness_tables, &ctx);
}

// ---------------------------------------------------------------------
// Sharded N=3 computes the same answers as the unsharded hybrid engine
// on the same history: scatter/gather plans, routed transactions and
// single-shard freshness tables all included.

class ShardedEqualityTest : public ::testing::TestWithParam<MergeMode> {};

TEST_P(ShardedEqualityTest, ThreeShardsMatchUnshardedAnswers) {
  const uint32_t kFreshness = 6;
  const Dataset dataset = SmallDataset(0.5, kFreshness);

  auto unsharded = MakeHybridEngine(WithMergeMode(TidbConfig(), GetParam()));
  ASSERT_TRUE(LoadDataset(dataset, PhysicalSchema::kSemiIndexes,
                          unsharded.get())
                  .ok());

  ShardedEngineConfig config;
  config.shards = 3;
  config.seed = kDatagenSeed;
  config.plan = MakeSsbShardPlan(kFreshness);
  config.node = WithMergeMode(TidbConfig(), GetParam());
  auto sharded = std::make_unique<ShardedEngine>(config);
  ASSERT_TRUE(LoadDataset(dataset, PhysicalSchema::kSemiIndexes,
                          sharded.get())
                  .ok());

  const std::vector<TxnParams> batch = GenerateBatch(dataset, 9, 120);
  const std::vector<TxnOutcome> a = ReplayBatch(unsharded.get(), dataset,
                                                batch);
  const std::vector<TxnOutcome> b = ReplayBatch(sharded.get(), dataset,
                                                batch);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status.ok(), b[i].status.ok()) << "txn " << i;
  }

  for (int q = 0; q < kNumQueries; ++q) {
    const QueryResult expected =
        RunOneQuery(unsharded.get(), q, kFreshness);
    const QueryResult actual = RunOneQuery(sharded.get(), q, kFreshness);
    EXPECT_EQ(expected.rows, actual.rows) << QueryName(q);
    EXPECT_DOUBLE_EQ(expected.checksum, actual.checksum) << QueryName(q);
    EXPECT_EQ(expected.freshness, actual.freshness) << QueryName(q);
  }
}

INSTANTIATE_TEST_SUITE_P(MergeModes, ShardedEqualityTest,
                         ::testing::ValuesIn(kMergeModes),
                         MergeModeParamName);

// ---------------------------------------------------------------------
// shards=1 is bit-identical to the inner engine: same outcomes (status,
// commit timestamps, write keys, rids) and same answers, across 21
// workload seeds. replicate=false for the strict leg — the replication
// tee is the one deliberate difference — then a replicate=true checksum
// leg proves the tee never changes results either.

class ShardsOneDifferentialTest
    : public ::testing::TestWithParam<MergeMode> {};

TEST_P(ShardsOneDifferentialTest, BitIdenticalToUnshardedAcross21Seeds) {
  const uint32_t kFreshness = 4;
  const Dataset dataset = SmallDataset(0.25, kFreshness);

  auto unsharded = MakeHybridEngine(WithMergeMode(TidbConfig(), GetParam()));
  ASSERT_TRUE(LoadDataset(dataset, PhysicalSchema::kSemiIndexes,
                          unsharded.get())
                  .ok());

  ShardedEngineConfig config;
  config.shards = 1;
  config.seed = kDatagenSeed;
  config.plan = MakeSsbShardPlan(kFreshness);
  config.node = WithMergeMode(TidbConfig(), GetParam());
  config.replicate = false;
  auto sharded = std::make_unique<ShardedEngine>(config);
  ASSERT_TRUE(LoadDataset(dataset, PhysicalSchema::kSemiIndexes,
                          sharded.get())
                  .ok());

  for (uint64_t seed = 1; seed <= 21; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<TxnParams> batch = GenerateBatch(dataset, seed, 30);
    const std::vector<TxnOutcome> a = ReplayBatch(unsharded.get(), dataset,
                                                  batch);
    const std::vector<TxnOutcome> b = ReplayBatch(sharded.get(), dataset,
                                                  batch);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].status.code(), b[i].status.code()) << "txn " << i;
      EXPECT_EQ(a[i].commit_ts, b[i].commit_ts) << "txn " << i;
      EXPECT_EQ(a[i].attempts, b[i].attempts) << "txn " << i;
      EXPECT_EQ(a[i].write_keys, b[i].write_keys) << "txn " << i;
      EXPECT_EQ(a[i].delta_keys, b[i].delta_keys) << "txn " << i;
    }
    for (int q = 0; q < kNumQueries; ++q) {
      const QueryResult expected =
          RunOneQuery(unsharded.get(), q, kFreshness);
      const QueryResult actual = RunOneQuery(sharded.get(), q, kFreshness);
      EXPECT_EQ(expected.rows, actual.rows) << QueryName(q);
      EXPECT_DOUBLE_EQ(expected.checksum, actual.checksum) << QueryName(q);
      EXPECT_EQ(expected.freshness, actual.freshness) << QueryName(q);
    }
    ASSERT_TRUE(unsharded->Reset().ok());
    ASSERT_TRUE(sharded->Reset().ok());
  }
}

TEST_P(ShardsOneDifferentialTest, ReplicationTeeDoesNotChangeAnswers) {
  const uint32_t kFreshness = 4;
  const Dataset dataset = SmallDataset(0.25, kFreshness);

  auto unsharded = MakeHybridEngine(WithMergeMode(TidbConfig(), GetParam()));
  ASSERT_TRUE(LoadDataset(dataset, PhysicalSchema::kSemiIndexes,
                          unsharded.get())
                  .ok());

  ShardedEngineConfig config;
  config.shards = 1;
  config.seed = kDatagenSeed;
  config.plan = MakeSsbShardPlan(kFreshness);
  config.node = WithMergeMode(TidbConfig(), GetParam());
  config.replicate = true;
  auto sharded = std::make_unique<ShardedEngine>(config);
  ASSERT_TRUE(LoadDataset(dataset, PhysicalSchema::kSemiIndexes,
                          sharded.get())
                  .ok());

  const std::vector<TxnParams> batch = GenerateBatch(dataset, 3, 60);
  ReplayBatch(unsharded.get(), dataset, batch);
  ReplayBatch(sharded.get(), dataset, batch);
  for (int q = 0; q < kNumQueries; ++q) {
    const QueryResult expected =
        RunOneQuery(unsharded.get(), q, kFreshness);
    const QueryResult actual = RunOneQuery(sharded.get(), q, kFreshness);
    EXPECT_DOUBLE_EQ(expected.checksum, actual.checksum) << QueryName(q);
  }
  // And the per-shard standby drains to zero lag.
  auto* engine = sharded.get();
  engine->shard_replica(0)->CatchUp(nullptr);
  EXPECT_EQ(engine->shard_replica(0)->Lag(), 0u);
}

INSTANTIATE_TEST_SUITE_P(MergeModes, ShardsOneDifferentialTest,
                         ::testing::ValuesIn(kMergeModes),
                         MergeModeParamName);

// ---------------------------------------------------------------------
// Cross-shard 2PC: a concurrent transfer storm over a hash-partitioned
// account table must conserve the total balance, and the crash matrix
// must recover to a consistent decision on every shard.

DatabaseSpec AcctSpec() {
  DatabaseSpec spec;
  spec.tables.push_back(
      {"acct", Schema({{"id", DataType::kInt64},
                       {"bal", DataType::kInt64}})});
  spec.indexes.push_back({"acct_pk", "acct", {0}, true});
  return spec;
}

std::unique_ptr<ShardedEngine> MakeAcctEngine(uint32_t shards, int accounts,
                                              MergeMode mode) {
  ShardedEngineConfig config;
  config.shards = shards;
  config.node.merge_mode = mode;
  config.seed = 42;
  config.plan = KvPlan();
  config.fact_table = "acct";
  config.replicate = false;
  auto engine = std::make_unique<ShardedEngine>(config);
  EXPECT_TRUE(engine->Create(AcctSpec()).ok());
  std::vector<Row> rows;
  for (int i = 0; i < accounts; ++i) {
    rows.push_back(Row{int64_t{i}, int64_t{1000}});
  }
  EXPECT_TRUE(engine->BulkLoad("acct", rows).ok());
  EXPECT_TRUE(engine->FinishLoad().ok());
  return engine;
}

/// Transfers `amount` from account `from` to account `to` by primary-key
/// lookup (cross-shard whenever the two keys hash to different shards).
TxnBody TransferBody(const IndexInfo* pk, int64_t from, int64_t to,
                     int64_t amount) {
  return [pk, from, to, amount](TxnContext* txn, WorkMeter* meter) {
    for (const auto& [key, delta] :
         {std::pair<int64_t, int64_t>{from, -amount}, {to, amount}}) {
      Rid rid = 0;
      Row row;
      const size_t hits = txn->IndexLookup(
          *pk, {Value(key)},
          [&](Rid r, const Row& visited) {
            rid = r;
            row = visited;
            return false;
          },
          meter);
      if (hits == 0) return Status::NotFound("missing account");
      Row updated = row;
      updated[1] = Value(row[1].AsInt() + delta);
      txn->BufferUpdate(0, rid, row, std::move(updated));
    }
    return Status::OK();
  };
}

int64_t TotalBalance(ShardedEngine* engine, const IndexInfo* pk,
                     int accounts) {
  int64_t total = 0;
  WorkMeter meter;
  const TxnOutcome outcome = engine->ExecuteTransaction(
      [&](TxnContext* txn, WorkMeter* m) {
        for (int64_t key = 0; key < accounts; ++key) {
          const size_t hits = txn->IndexLookup(
              *pk, {Value(key)},
              [&](Rid, const Row& row) {
                total += row[1].AsInt();
                return false;
              },
              m);
          if (hits != 1) return Status::Internal("bad lookup");
        }
        return Status::OK();
      },
      1, 1, &meter);
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  return total;
}

// The cross-shard cases run under both merge modes of the shard nodes:
// in bitmap mode every commit also appends column versions on each shard
// it touched.
class TwoPcStormTest : public ::testing::TestWithParam<MergeMode> {};
class ShardedRetryTest : public ::testing::TestWithParam<MergeMode> {};
class TwoPcCrashMatrixTest : public ::testing::TestWithParam<MergeMode> {};

TEST_P(TwoPcStormTest, ConcurrentTransfersConserveTotalBalance) {
  const int kAccounts = 64;
  const uint32_t kShards = 4;
  auto engine = MakeAcctEngine(kShards, kAccounts, GetParam());
  obs::MetricsRegistry metrics;
  obs::Observability obs;
  obs.metrics = &metrics;
  engine->SetObservability(obs);
  const IndexInfo* pk = engine->primary_catalog()->GetIndex("acct_pk");
  ASSERT_NE(pk, nullptr);

  // Write-write conflicts under the storm are legitimate aborts; the
  // invariant is that every decision is atomic across shards, i.e. the
  // total balance is conserved no matter how the commit/abort mix lands.
  const int kThreads = 8;
  const int kTxnsPerThread = 40;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + static_cast<uint64_t>(t));
      for (int i = 0; i < kTxnsPerThread; ++i) {
        const int64_t from = rng.Uniform(0, kAccounts - 1);
        int64_t to = rng.Uniform(0, kAccounts - 1);
        if (to == from) to = (to + 1) % kAccounts;
        WorkMeter meter;
        const TxnOutcome outcome = engine->ExecuteTransaction(
            TransferBody(pk, from, to, 1),
            static_cast<uint32_t>(t + 1),
            static_cast<uint64_t>(i + 1), &meter);
        if (outcome.status.ok()) committed.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_GT(committed.load(), 0);
  EXPECT_EQ(TotalBalance(engine.get(), pk, kAccounts),
            int64_t{1000} * kAccounts);
  // The storm actually exercised cross-shard 2PC.
  const obs::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_GT(snapshot.CountOf(obs::kShard2pcCommits), 0u);
  EXPECT_EQ(engine->PendingGlobalTxns(), 0u);
}

/// Finds a (from, to) pair living on two different shards.
std::pair<int64_t, int64_t> CrossShardPair(const ShardRouter& router,
                                           int accounts) {
  for (int64_t a = 0; a < accounts; ++a) {
    for (int64_t b = a + 1; b < accounts; ++b) {
      if (router.ShardForValue(Value(a)) != router.ShardForValue(Value(b))) {
        return {a, b};
      }
    }
  }
  ADD_FAILURE() << "no cross-shard pair found";
  return {0, 1};
}

int64_t BalanceOf(ShardedEngine* engine, const IndexInfo* pk, int64_t key) {
  int64_t balance = -1;
  WorkMeter meter;
  const TxnOutcome outcome = engine->ExecuteTransaction(
      [&](TxnContext* txn, WorkMeter* m) {
        txn->IndexLookup(
            *pk, {Value(key)},
            [&](Rid, const Row& row) {
              balance = row[1].AsInt();
              return false;
            },
            m);
        return Status::OK();
      },
      1, 999, &meter);
  EXPECT_TRUE(outcome.status.ok());
  return balance;
}

// Retries of a sharded transaction run the same loop as a single node's:
// the outcome reports the deterministic backoff schedule, and the
// txn.retry.backoff_seconds gauge reports the engine's total, whichever
// shard's manager last installed its probe.
TEST_P(ShardedRetryTest, BackoffGaugeCountsShardedRetries) {
  const int kAccounts = 16;
  auto engine = MakeAcctEngine(2, kAccounts, GetParam());
  obs::MetricsRegistry metrics;
  obs::Observability obs;
  obs.metrics = &metrics;
  engine->SetObservability(obs);
  const IndexInfo* pk = engine->primary_catalog()->GetIndex("acct_pk");
  ASSERT_NE(pk, nullptr);
  const auto [from, to] = CrossShardPair(engine->router(), kAccounts);

  constexpr int kAborts = 3;
  int calls = 0;
  const TxnBody transfer = TransferBody(pk, from, to, 5);
  WorkMeter meter;
  const TxnOutcome outcome = engine->ExecuteTransaction(
      [&](TxnContext* txn, WorkMeter* m) {
        if (calls++ < kAborts) return Status::Aborted("induced");
        return transfer(txn, m);
      },
      /*client_id=*/3, /*txn_num=*/11, &meter);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.attempts, kAborts + 1);
  double expected = 0;
  for (int i = 0; i < kAborts; ++i) {
    expected += TxnManager::RetryBackoffSeconds(3, 11, i);
  }
  EXPECT_EQ(outcome.backoff_s, expected);
  EXPECT_GT(outcome.backoff_s, 0.0);
  // The gauge counts whole nanoseconds per retry.
  EXPECT_NEAR(metrics.Snapshot().ValueOf(obs::kTxnRetryBackoffSeconds),
              outcome.backoff_s, 1e-9 * kAborts);
}

TEST_P(TwoPcCrashMatrixTest, EveryCrashPointRecoversConsistently) {
  struct Case {
    TwoPcCrash crash;
    bool commits;  // decision the recovery must reach
  };
  const Case cases[] = {
      {{TwoPcCrash::Point::kMidPrepare, 1}, false},
      {{TwoPcCrash::Point::kAfterPrepareLog, 0}, false},
      {{TwoPcCrash::Point::kAfterDecideLog, 0}, true},
      {{TwoPcCrash::Point::kMidCommit, 1}, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(static_cast<int>(c.crash.point));
    auto engine = MakeAcctEngine(3, 32, GetParam());
    const IndexInfo* pk = engine->primary_catalog()->GetIndex("acct_pk");
    ASSERT_NE(pk, nullptr);
    const auto [from, to] = CrossShardPair(engine->router(), 32);

    engine->SetTwoPcCrash(c.crash);
    WorkMeter meter;
    const TxnOutcome outcome = engine->ExecuteTransaction(
        TransferBody(pk, from, to, 5), 1, 1, &meter);
    EXPECT_FALSE(outcome.status.ok());
    EXPECT_EQ(engine->PendingGlobalTxns(), 1u);

    EXPECT_EQ(engine->RecoverCoordinator(), 1u);
    EXPECT_EQ(engine->PendingGlobalTxns(), 0u);

    const int64_t from_bal = BalanceOf(engine.get(), pk, from);
    const int64_t to_bal = BalanceOf(engine.get(), pk, to);
    if (c.commits) {
      EXPECT_EQ(from_bal, 995);
      EXPECT_EQ(to_bal, 1005);
    } else {
      EXPECT_EQ(from_bal, 1000);
      EXPECT_EQ(to_bal, 1000);
    }
    // Atomic either way: no half-applied transfer survives recovery.
    EXPECT_EQ(from_bal + to_bal, 2000);

    // The engine keeps working after recovery.
    WorkMeter after_meter;
    EXPECT_TRUE(engine
                    ->ExecuteTransaction(TransferBody(pk, from, to, 1), 1,
                                         2, &after_meter)
                    .status.ok());
  }
}

INSTANTIATE_TEST_SUITE_P(MergeModes, TwoPcStormTest,
                         ::testing::ValuesIn(kMergeModes),
                         MergeModeParamName);
INSTANTIATE_TEST_SUITE_P(MergeModes, ShardedRetryTest,
                         ::testing::ValuesIn(kMergeModes),
                         MergeModeParamName);
INSTANTIATE_TEST_SUITE_P(MergeModes, TwoPcCrashMatrixTest,
                         ::testing::ValuesIn(kMergeModes),
                         MergeModeParamName);

}  // namespace
}  // namespace hattrick
