// Chaos harness for the replication fault-injection subsystem:
//  (a) same-seed fault schedules are byte-identical, down to the
//      simulator's metrics/trace exports;
//  (b) faulted runs converge to the same replica contents (and, once
//      drained, the same zero-staleness state) as fault-free runs;
//  (c) no injected schedule can reach an assert/abort or leave the
//      replica in an error state — swept across many seeds and every
//      canned profile.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/support.h"
#include "common/rng.h"
#include "engine/isolated_engine.h"
#include "fault/fault_injector.h"
#include "obs/trace.h"
#include "shard/shard_router.h"
#include "shard/sharded_engine.h"
#include "tests/merge_modes.h"

namespace hattrick {
namespace {

// ---------------------------------------------------------------------
// FaultInjector determinism.

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  StatusOr<FaultConfig> config = MakeFaultProfile("chaos", 42);
  ASSERT_TRUE(config.ok());
  FaultInjector a(config.value());
  FaultInjector b(config.value());
  for (uint64_t lsn = 1; lsn <= 1000; ++lsn) {
    EXPECT_EQ(a.DropShip(lsn), b.DropShip(lsn));
    EXPECT_EQ(a.DuplicateShip(lsn), b.DuplicateShip(lsn));
    EXPECT_EQ(a.ReorderShip(lsn), b.ReorderShip(lsn));
    EXPECT_EQ(a.DropResend(lsn, 1), b.DropResend(lsn, 1));
    EXPECT_EQ(a.CrashBeforeApply(lsn), b.CrashBeforeApply(lsn));
    EXPECT_EQ(a.ShipDelaySeconds(lsn), b.ShipDelaySeconds(lsn));
    EXPECT_EQ(a.SlowApplyMultiplier(lsn), b.SlowApplyMultiplier(lsn));
  }
}

TEST(FaultInjectorTest, DifferentSeedsDiffer) {
  StatusOr<FaultConfig> c1 = MakeFaultProfile("drop", 1);
  StatusOr<FaultConfig> c2 = MakeFaultProfile("drop", 2);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  FaultInjector a(c1.value());
  FaultInjector b(c2.value());
  int differs = 0;
  for (uint64_t lsn = 1; lsn <= 1000; ++lsn) {
    if (a.DropShip(lsn) != b.DropShip(lsn)) ++differs;
  }
  EXPECT_GT(differs, 0);
}

TEST(FaultInjectorTest, ResendAttemptsAreIndependentDraws) {
  FaultConfig config;
  config.enabled = true;
  config.seed = 3;
  config.resend_drop_rate = 0.5;
  FaultInjector injector(config);
  // Across many attempts for one LSN, both outcomes must appear —
  // otherwise a 100%-first-try-drop schedule could retry forever.
  bool dropped = false;
  bool delivered = false;
  for (uint64_t attempt = 1; attempt <= 64; ++attempt) {
    (injector.DropResend(7, attempt) ? dropped : delivered) = true;
  }
  EXPECT_TRUE(dropped);
  EXPECT_TRUE(delivered);
}

TEST(FaultProfileTest, KnownProfilesParse) {
  for (const char* name :
       {"none", "drop", "duplicate", "reorder", "crash", "delay", "chaos"}) {
    StatusOr<FaultConfig> config = MakeFaultProfile(name, 1);
    ASSERT_TRUE(config.ok()) << name;
    EXPECT_EQ(config->profile, name);
    EXPECT_EQ(config->enabled, std::string(name) != "none");
  }
  EXPECT_EQ(MakeFaultProfile("bogus", 1).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Engine-level convergence under injected faults.

DatabaseSpec KvSpec() {
  DatabaseSpec spec;
  spec.tables.push_back(
      {"kv", Schema({{"k", DataType::kInt64}, {"v", DataType::kString}})});
  spec.indexes.push_back({"kv_pk", "kv", {0}, true});
  return spec;
}

std::unique_ptr<IsolatedEngine> MakeKvEngine(const FaultConfig& fault) {
  IsolatedEngineConfig config;
  config.name = "faulted";
  config.mode = ReplicationMode::kSyncShip;
  config.fault = fault;
  auto engine = std::make_unique<IsolatedEngine>(config);
  EXPECT_TRUE(engine->Create(KvSpec()).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back(Row{int64_t{i}, "seed" + std::to_string(i)});
  }
  EXPECT_TRUE(engine->BulkLoad("kv", rows).ok());
  EXPECT_TRUE(engine->FinishLoad().ok());
  return engine;
}

/// Runs a deterministic history of inserts and key-changing updates,
/// interleaving applier steps, then drains the replica completely.
void RunHistory(IsolatedEngine* engine, uint64_t seed, int txns) {
  Rng rng(seed);
  int64_t next_key = 1000;
  size_t committed_rows = 20;  // the bulk-loaded seed rows
  for (int i = 0; i < txns; ++i) {
    WorkMeter meter;
    TxnOutcome outcome;
    if (rng.Bernoulli(0.5)) {
      const int64_t key = next_key++;
      outcome = engine->ExecuteTransaction(
          [key, i](TxnContext* txn, WorkMeter*) {
            txn->BufferInsert(0,
                             Row{key, "ins" + std::to_string(i)});
            return Status::OK();
          },
          1, static_cast<uint64_t>(i + 1), &meter);
      if (outcome.status.ok()) ++committed_rows;
    } else {
      const Rid rid = static_cast<Rid>(
          rng.Uniform(0, static_cast<int64_t>(committed_rows) - 1));
      const int64_t key = next_key++;  // key-changing update
      outcome = engine->ExecuteTransaction(
          [rid, key, i](TxnContext* txn, WorkMeter* m) -> Status {
            Row row;
            HATTRICK_RETURN_IF_ERROR(txn->Read(0, rid, &row, m));
            txn->BufferUpdate(0, rid, row,
                             Row{key, "upd" + std::to_string(i)});
            return Status::OK();
          },
          1, static_cast<uint64_t>(i + 1), &meter);
    }
    ASSERT_TRUE(outcome.status.ok());
    // Interleaved applier work, including its recovery steps.
    const int pumps = static_cast<int>(rng.Uniform(0, 2));
    for (int p = 0; p < pumps; ++p) {
      WorkMeter applier_meter;
      engine->MaintenanceStep(&applier_meter);
    }
  }
  // Drain through every remaining fault (CatchUp drives resends,
  // backoff, crash recovery and resync internally).
  engine->replica(0)->CatchUp(nullptr);
}

std::unique_ptr<ShardedEngine> MakeShardedKvEngine(const FaultConfig& fault,
                                                   MergeMode mode) {
  ShardedEngineConfig config;
  config.node.merge_mode = mode;
  config.name = "faulted-sharded";
  config.shards = 3;
  config.plan = {{"kv", TablePlacement{Placement::kHashed, 0}}};
  config.fact_table = "kv";
  config.fault = fault;
  auto engine = std::make_unique<ShardedEngine>(config);
  EXPECT_TRUE(engine->Create(KvSpec()).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back(Row{int64_t{i}, "seed" + std::to_string(i)});
  }
  EXPECT_TRUE(engine->BulkLoad("kv", rows).ok());
  EXPECT_TRUE(engine->FinishLoad().ok());
  return engine;
}

/// The sharded counterpart of RunHistory: routed inserts and value
/// updates found through the primary key (a key-changing update would
/// move the row's home shard), interleaved applier steps, then every
/// shard's standby drained.
void RunShardedHistory(ShardedEngine* engine, uint64_t seed, int txns) {
  const IndexInfo* pk = engine->primary_catalog()->GetIndex("kv_pk");
  ASSERT_NE(pk, nullptr);
  Rng rng(seed);
  std::vector<int64_t> keys;
  for (int64_t key = 0; key < 20; ++key) keys.push_back(key);
  int64_t next_key = 1000;
  for (int i = 0; i < txns; ++i) {
    WorkMeter meter;
    TxnOutcome outcome;
    if (rng.Bernoulli(0.5)) {
      const int64_t key = next_key++;
      outcome = engine->ExecuteTransaction(
          [key, i](TxnContext* txn, WorkMeter*) {
            txn->BufferInsert(0, Row{key, "ins" + std::to_string(i)});
            return Status::OK();
          },
          1, static_cast<uint64_t>(i + 1), &meter);
      if (outcome.status.ok()) keys.push_back(key);
    } else {
      const int64_t key = keys[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(keys.size()) - 1))];
      outcome = engine->ExecuteTransaction(
          [pk, key, i](TxnContext* txn, WorkMeter* m) -> Status {
            Rid rid = 0;
            Row row;
            if (txn->IndexLookup(
                    *pk, {Value(key)},
                    [&](Rid r, const Row& visited) {
                      rid = r;
                      row = visited;
                      return false;
                    },
                    m) == 0) {
              return Status::NotFound("missing key");
            }
            txn->BufferUpdate(0, rid, row,
                              Row{key, "upd" + std::to_string(i)});
            return Status::OK();
          },
          1, static_cast<uint64_t>(i + 1), &meter);
    }
    ASSERT_TRUE(outcome.status.ok());
    const int pumps = static_cast<int>(rng.Uniform(0, 2));
    for (int p = 0; p < pumps; ++p) {
      WorkMeter applier_meter;
      engine->MaintenanceStep(&applier_meter);
    }
  }
  for (uint32_t shard = 0; shard < engine->num_shards(); ++shard) {
    engine->shard_replica(shard)->CatchUp(nullptr);
  }
}

std::vector<Row> LatestContents(Catalog* catalog) {
  std::vector<Row> out;
  RowTable* table = catalog->GetTable("kv");
  for (Rid rid = 0; rid < table->NumSlots(); ++rid) {
    Row row;
    EXPECT_TRUE(table->ReadLatest(rid, &row, nullptr));
    out.push_back(std::move(row));
  }
  return out;
}

constexpr const char* kConvergenceProfiles[] = {"drop", "duplicate",
                                                "reorder", "crash", "chaos"};

TEST(FaultConvergenceTest, FaultedRunMatchesFaultFreeRun) {
  for (const char* profile : kConvergenceProfiles) {
    SCOPED_TRACE(profile);
    StatusOr<FaultConfig> fault = MakeFaultProfile(profile, 11);
    ASSERT_TRUE(fault.ok());

    auto clean = MakeKvEngine(FaultConfig{});
    auto faulted = MakeKvEngine(fault.value());
    RunHistory(clean.get(), /*seed=*/5, /*txns=*/200);
    RunHistory(faulted.get(), /*seed=*/5, /*txns=*/200);

    // The primary never sees faults: identical committed history.
    EXPECT_EQ(LatestContents(clean->primary_catalog()),
              LatestContents(faulted->primary_catalog()));
    // The faulted standby recovered everything: same contents as its
    // own primary and as the fault-free standby, nothing left pending
    // (zero staleness for any query started now).
    EXPECT_EQ(LatestContents(faulted->replica(0)->catalog()),
              LatestContents(faulted->primary_catalog()));
    EXPECT_EQ(LatestContents(faulted->replica(0)->catalog()),
              LatestContents(clean->replica(0)->catalog()));
    EXPECT_EQ(faulted->replica(0)->Lag(), 0u);
    EXPECT_EQ(faulted->replica(0)->applied_lsn(),
              clean->replica(0)->applied_lsn());
    EXPECT_TRUE(faulted->replica(0)->last_error().ok())
        << faulted->replica(0)->last_error().ToString();
    // The standby index carries no stale keys: one entry per live row.
    EXPECT_EQ(faulted->replica(0)->catalog()->GetIndex("kv_pk")->tree->size(),
              LatestContents(faulted->replica(0)->catalog()).size());

    for (const MergeMode mode : kMergeModes) {
      SCOPED_TRACE(MergeModeName(mode));
      // Sharded: every shard's standby converges to its shard primary and
      // to the fault-free run's standby for that shard, in either merge
      // mode of the shard nodes.
      auto clean_sharded = MakeShardedKvEngine(FaultConfig{}, mode);
      auto faulted_sharded = MakeShardedKvEngine(fault.value(), mode);
      RunShardedHistory(clean_sharded.get(), /*seed=*/5, /*txns=*/200);
      RunShardedHistory(faulted_sharded.get(), /*seed=*/5, /*txns=*/200);
      const uint32_t shards = faulted_sharded->num_shards();
      uint64_t faults_fired = 0;
      for (uint32_t shard = 0; shard < shards; ++shard) {
        const WalStream* stream = faulted_sharded->shard_stream(shard);
        faults_fired +=
            stream->injected_drops() + stream->injected_duplicates() +
            stream->injected_reorders() +
            faulted_sharded->shard_replica(shard)->crash_recoveries();
      }
      EXPECT_GT(faults_fired, 0u);  // else this leg proves nothing
      for (uint32_t shard = 0; shard < shards; ++shard) {
        SCOPED_TRACE("shard " + std::to_string(shard));
        Catalog* primary =
            faulted_sharded->shard_engine(shard)->primary_catalog();
        const Replica* standby = faulted_sharded->shard_replica(shard);
        const Replica* clean_standby = clean_sharded->shard_replica(shard);
        EXPECT_EQ(LatestContents(
                      clean_sharded->shard_engine(shard)->primary_catalog()),
                  LatestContents(primary));
        EXPECT_EQ(LatestContents(standby->catalog()), LatestContents(primary));
        EXPECT_EQ(LatestContents(standby->catalog()),
                  LatestContents(clean_standby->catalog()));
        EXPECT_EQ(standby->Lag(), 0u);
        EXPECT_EQ(standby->applied_lsn(), clean_standby->applied_lsn());
        EXPECT_TRUE(standby->last_error().ok())
            << standby->last_error().ToString();
        EXPECT_EQ(standby->catalog()->GetIndex("kv_pk")->tree->size(),
                  LatestContents(standby->catalog()).size());
      }
    }
  }
}

TEST(FaultConvergenceTest, SameSeedSameRecoveryTrace) {
  StatusOr<FaultConfig> fault = MakeFaultProfile("chaos", 99);
  ASSERT_TRUE(fault.ok());
  auto a = MakeKvEngine(fault.value());
  auto b = MakeKvEngine(fault.value());
  RunHistory(a.get(), /*seed=*/21, /*txns=*/200);
  RunHistory(b.get(), /*seed=*/21, /*txns=*/200);

  EXPECT_EQ(a->stream(0)->injected_drops(), b->stream(0)->injected_drops());
  EXPECT_EQ(a->stream(0)->injected_duplicates(),
            b->stream(0)->injected_duplicates());
  EXPECT_EQ(a->stream(0)->injected_reorders(),
            b->stream(0)->injected_reorders());
  EXPECT_EQ(a->stream(0)->resends_requested(),
            b->stream(0)->resends_requested());
  EXPECT_EQ(a->stream(0)->resends_delivered(),
            b->stream(0)->resends_delivered());
  EXPECT_EQ(a->stream(0)->resends_lost(), b->stream(0)->resends_lost());
  EXPECT_EQ(a->replica(0)->duplicate_skips(),
            b->replica(0)->duplicate_skips());
  EXPECT_EQ(a->replica(0)->resend_requests(),
            b->replica(0)->resend_requests());
  EXPECT_EQ(a->replica(0)->crash_recoveries(),
            b->replica(0)->crash_recoveries());
  EXPECT_EQ(a->replica(0)->applied_lsn(), b->replica(0)->applied_lsn());
  // The schedule actually did something, or this test proves nothing.
  EXPECT_GT(a->stream(0)->injected_drops() +
                a->stream(0)->injected_duplicates() +
                a->stream(0)->injected_reorders() +
                a->replica(0)->crash_recoveries(),
            0u);
}

// Criterion (c): sweep many seeds across every profile; every schedule
// must converge without reaching an error (asserts would abort the
// process outright).
class ChaosSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosSweepTest, AllProfilesConvergeWithoutAborting) {
  for (const char* profile :
       {"drop", "duplicate", "reorder", "crash", "delay", "chaos"}) {
    SCOPED_TRACE(profile);
    StatusOr<FaultConfig> fault = MakeFaultProfile(profile, GetParam());
    ASSERT_TRUE(fault.ok());
    auto engine = MakeKvEngine(fault.value());
    RunHistory(engine.get(), /*seed=*/GetParam() * 31 + 7, /*txns=*/120);
    EXPECT_TRUE(engine->replica(0)->last_error().ok())
        << engine->replica(0)->last_error().ToString();
    EXPECT_EQ(engine->replica(0)->Lag(), 0u);
    EXPECT_EQ(LatestContents(engine->replica(0)->catalog()),
              LatestContents(engine->primary_catalog()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweepTest,
                         ::testing::Range<uint64_t>(1, 21));

// ---------------------------------------------------------------------
// 2PC chaos: coordinator crashes at every phase boundary of a
// cross-shard commit, swept across seeds. Recovery must land every
// shard on the same decision, leave no partial transfer behind, and
// keep the engine usable.

DatabaseSpec TransferSpec() {
  DatabaseSpec spec;
  spec.tables.push_back(
      {"acct", Schema({{"id", DataType::kInt64},
                       {"bal", DataType::kInt64}})});
  spec.indexes.push_back({"acct_pk", "acct", {0}, true});
  return spec;
}

std::unique_ptr<ShardedEngine> MakeTransferEngine(uint32_t shards,
                                                  MergeMode mode) {
  ShardedEngineConfig config;
  config.node.merge_mode = mode;
  config.shards = shards;
  config.seed = 42;
  config.plan = {{"acct", TablePlacement{Placement::kHashed, 0}}};
  config.fact_table = "acct";
  config.replicate = false;
  auto engine = std::make_unique<ShardedEngine>(config);
  EXPECT_TRUE(engine->Create(TransferSpec()).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 32; ++i) {
    rows.push_back(Row{int64_t{i}, int64_t{100}});
  }
  EXPECT_TRUE(engine->BulkLoad("acct", rows).ok());
  EXPECT_TRUE(engine->FinishLoad().ok());
  return engine;
}

class TwoPcChaosTest : public ::testing::TestWithParam<SeedAndMergeMode> {};

TEST_P(TwoPcChaosTest, CoordinatorCrashRecoversToOneDecision) {
  const uint64_t seed = std::get<0>(GetParam());
  const TwoPcCrash::Point kPoints[] = {
      TwoPcCrash::Point::kMidPrepare,
      TwoPcCrash::Point::kAfterPrepareLog,
      TwoPcCrash::Point::kAfterDecideLog,
      TwoPcCrash::Point::kMidCommit,
  };
  auto engine = MakeTransferEngine(3, std::get<1>(GetParam()));
  const IndexInfo* pk = engine->primary_catalog()->GetIndex("acct_pk");
  ASSERT_NE(pk, nullptr);
  Rng rng(seed);

  auto transfer = [pk](int64_t from, int64_t to) {
    return [pk, from, to](TxnContext* txn, WorkMeter* meter) {
      for (const auto& [key, delta] :
           {std::pair<int64_t, int64_t>{from, -1}, {to, 1}}) {
        Rid rid = 0;
        Row row;
        if (txn->IndexLookup(
                *pk, {Value(key)},
                [&](Rid r, const Row& visited) {
                  rid = r;
                  row = visited;
                  return false;
                },
                meter) == 0) {
          return Status::NotFound("missing account");
        }
        Row updated = row;
        updated[1] = Value(row[1].AsInt() + delta);
        txn->BufferUpdate(0, rid, row, std::move(updated));
      }
      return Status::OK();
    };
  };

  auto total_balance = [&]() {
    int64_t total = 0;
    WorkMeter meter;
    const TxnOutcome outcome = engine->ExecuteTransaction(
        [&](TxnContext* txn, WorkMeter* m) {
          for (int64_t key = 0; key < 32; ++key) {
            txn->IndexLookup(
                *pk, {Value(key)},
                [&](Rid, const Row& row) {
                  total += row[1].AsInt();
                  return false;
                },
                m);
          }
          return Status::OK();
        },
        1, 1000000, &meter);
    EXPECT_TRUE(outcome.status.ok());
    return total;
  };

  uint64_t txn_num = 0;
  for (int round = 0; round < 5; ++round) {
    for (const TwoPcCrash::Point point : kPoints) {
      const int64_t from = rng.Uniform(0, 31);
      int64_t to = rng.Uniform(0, 31);
      if (to == from) to = (to + 1) % 32;
      // Interleave healthy traffic so crashed state must coexist with
      // live commits, not just a quiescent engine.
      WorkMeter healthy_meter;
      EXPECT_TRUE(engine
                      ->ExecuteTransaction(transfer(from, to), 1,
                                           ++txn_num, &healthy_meter)
                      .status.ok());

      engine->SetTwoPcCrash(
          {point, static_cast<uint32_t>(rng.Uniform(0, 1))});
      WorkMeter meter;
      const TxnOutcome crashed = engine->ExecuteTransaction(
          transfer(from, to), 1, ++txn_num, &meter);
      if (crashed.status.ok()) {
        // The routed pair happened to land on one shard: no 2PC, no
        // crash point reached. The armed crash must not leak into the
        // next multi-shard commit of *this* round; disarm by recovery.
        engine->SetTwoPcCrash({});
        continue;
      }
      EXPECT_EQ(engine->PendingGlobalTxns(), 1u);
      EXPECT_EQ(engine->RecoverCoordinator(), 1u);
      EXPECT_EQ(engine->PendingGlobalTxns(), 0u);
      // Conservation: whatever the decision, no partial transfer.
      EXPECT_EQ(total_balance(), int64_t{100} * 32);
    }
  }
  // Terminal sanity: the engine still commits cross-shard transfers.
  WorkMeter meter;
  EXPECT_TRUE(engine
                  ->ExecuteTransaction(transfer(0, 17), 1, ++txn_num,
                                       &meter)
                  .status.ok());
  EXPECT_EQ(total_balance(), int64_t{100} * 32);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TwoPcChaosTest,
    ::testing::Combine(::testing::Range<uint64_t>(1, 21),
                       ::testing::ValuesIn(kMergeModes)),
    SeedAndMergeModeName);

// ---------------------------------------------------------------------
// Criterion (a): whole-simulation determinism. Two same-seed faulted
// benchmark runs export byte-identical metrics and traces.

TEST(FaultSimDeterminismTest, SameSeedByteIdenticalExports) {
  StatusOr<FaultConfig> fault = MakeFaultProfile("chaos", 13);
  ASSERT_TRUE(fault.ok());

  WorkloadConfig config;
  config.t_clients = 2;
  config.a_clients = 1;
  config.warmup_seconds = 0.05;
  config.measure_seconds = 0.2;
  config.seed = 7;

  auto run_once = [&](std::string* metrics_json, std::string* trace_json) {
    bench::BenchEnv env = bench::MakeEnv(
        bench::EngineKind::kPostgresSR, /*scale_factor=*/0.25,
        PhysicalSchema::kAllIndexes, fault.value());
    obs::Tracer tracer;
    env.driver->SetTracer(&tracer);
    const RunMetrics metrics = env.driver->Run(config);
    env.driver->SetTracer(nullptr);
    *metrics_json = metrics.observed.ToJson();
    *trace_json = tracer.ToChromeJson();
  };

  std::string metrics1, trace1, metrics2, trace2;
  run_once(&metrics1, &trace1);
  run_once(&metrics2, &trace2);
  EXPECT_EQ(metrics1, metrics2);
  EXPECT_EQ(trace1, trace2);
  // The faulted run actually exercised the fault machinery.
  EXPECT_NE(metrics1.find("fault.injected"), std::string::npos);
}

}  // namespace
}  // namespace hattrick
