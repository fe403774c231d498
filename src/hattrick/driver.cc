#include "hattrick/driver.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cassert>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "sim/core_pool.h"
#include "sim/lock_model.h"
#include "sim/simulation.h"
#include "sim/wait_queue.h"

namespace hattrick {

SimSetup SharedSimSetup() {
  SimSetup setup;
  setup.t_cores = 8;
  setup.separate_pools = false;
  setup.lock_hold_fraction = 1.0;  // pessimistic row locks held to commit
  return setup;
}

SimSetup IsolatedSimSetup() {
  SimSetup setup;
  setup.t_cores = 8;
  setup.a_cores = 8;
  setup.separate_pools = true;  // primary node + standby node
  setup.lock_hold_fraction = 1.0;
  setup.has_maintenance = true;  // standby WAL replay
  // Single-threaded replay with fsync/page costs: replay keeps up at
  // A-heavy mixes but falls behind as the T rate approaches the
  // primary's maximum, which is what produces the paper's non-zero
  // freshness scores in ON mode (Section 6.3).
  setup.cost.replay_multiplier = 1.3;
  return setup;
}

SimSetup HybridSimSetup() {
  SimSetup setup;
  setup.t_cores = 8;
  setup.separate_pools = false;  // one machine, two data copies
  // Optimistic engines synchronize only during the validation window
  // (Section 6.4), not for the full transaction lifetime.
  setup.lock_hold_fraction = 0.25;
  // Dual-copy commit bookkeeping makes the transaction path somewhat
  // heavier than a single-copy row store.
  setup.cost.txn_fixed_us = 640.0;
  // Bitmap merge mode: background version folds run through the
  // maintenance pump on the A side. In eager mode MaintenanceStep is a
  // no-op, so the pump wakes once per commit and parks immediately.
  setup.has_maintenance = true;
  return setup;
}

SimSetup ShardedSimSetup(uint32_t shards) {
  if (shards < 1) shards = 1;
  SimSetup setup;
  // Each shard node contributes TiKV-style T cores and TiFlash-style A
  // cores; compute scales linearly with the node count.
  setup.t_cores = 8 * static_cast<int>(shards);
  setup.a_cores = 8 * static_cast<int>(shards);
  setup.separate_pools = true;
  setup.lock_hold_fraction = 0.25;
  setup.cost.txn_fixed_us = 640.0;
  // Distributed-transaction CPU overhead (marshalling, TCP/IP) applies
  // to every transaction; the network round trips are charged per
  // coordinated shard via TxnOutcome::shards_touched (400us per
  // participant — one prepare + one decide leg), so single-shard
  // transactions pay one round trip and cross-shard 2PC pays
  // proportionally more.
  setup.cost.t_work_multiplier = 4.0;
  setup.cost.txn_extra_latency_us = 400.0;
  setup.has_maintenance = true;  // folds + per-shard standby replay
  return setup;
}

namespace {

/// Per-run mutable state shared by the simulated clients.
struct RunState {
  RunState(HtapEngine* engine, WorkloadContext* context,
           const SimSetup& setup, const WorkloadConfig& config)
      : engine(engine),
        context(context),
        setup(setup),
        config(config),
        handles(EngineHandles::Resolve(*engine->primary_catalog(),
                                       context->num_freshness_tables)),
        t_pool(&sim, "t-pool", setup.t_cores),
        a_pool_storage(
            setup.separate_pools
                ? std::make_unique<CorePool>(&sim, "a-pool", setup.a_cores)
                : nullptr),
        a_pool(setup.separate_pools ? a_pool_storage.get() : &t_pool),
        locks(setup.lock_hold_fraction) {
    warmup_end = config.warmup_seconds;
    end = config.warmup_seconds + config.measure_seconds;
    tracker.SetNumClients(
        static_cast<uint32_t>(std::max(config.t_clients, 1)));
  }

  bool InWindow(TimePoint t) const { return t >= warmup_end && t <= end; }

  HtapEngine* engine;
  WorkloadContext* context;
  const SimSetup& setup;
  const WorkloadConfig& config;
  EngineHandles handles;

  Simulation sim;
  CorePool t_pool;
  std::unique_ptr<CorePool> a_pool_storage;
  CorePool* a_pool;
  RowLockModel locks;
  LsnWaitQueue lsn_waits;
  FreshnessTracker tracker;
  obs::Observability obs;  // clock == sim's virtual clock

  std::vector<FreshnessTracker::Observation> observations;
  RunMetrics metrics;
  TimePoint warmup_end = 0;
  TimePoint end = 0;
  bool applier_idle = true;

  void WakeApplier();
  void ApplierPump();
};

void RunState::ApplierPump() {
  WorkMeter meter;
  if (!engine->MaintenanceStep(&meter)) {
    if (engine->MaintenancePending() > 0) {
      // Backing off from a replication fault with records still
      // outstanding: poll again shortly rather than parking (a parked
      // applier would deadlock REMOTE_APPLY clients waiting on a
      // dropped record, since they commit nothing to wake it).
      sim.Schedule(50e-6, [this] { ApplierPump(); });
      return;
    }
    applier_idle = true;
    return;
  }
  const uint64_t applied = engine->applied_lsn();
  const double cpu = setup.cost.ReplayCpuSeconds(meter);
  const TimePoint submit = sim.Now();
  a_pool->Submit(cpu, [this, applied, submit] {
    if (obs.tracer != nullptr) {
      obs.tracer->RecordSpan("wal-replay", "repl", obs::kTrackApplier, submit,
                             sim.Now(),
                             "\"lsn\":" + std::to_string(applied));
    }
    lsn_waits.Publish(applied);
    ApplierPump();
  });
}

void RunState::WakeApplier() {
  if (!setup.has_maintenance || !applier_idle) return;
  applier_idle = false;
  ApplierPump();
}

/// A simulated transactional client: issues transactions back-to-back,
/// executing each for real against the engine at issue time and modeling
/// its duration (CPU on the T pool + lock waits + commit waits).
class SimTClient {
 public:
  SimTClient(RunState* s, uint32_t id, uint64_t seed)
      : s_(s), id_(id), rng_(seed) {}

  void Start() { IssueNext(); }

 private:
  void IssueNext() {
    if (s_->sim.Now() >= s_->end) return;
    const TxnParams params = GenerateTxnParams(s_->context, &rng_);
    ++txn_num_;
    type_ = params.type;
    issue_time_ = s_->sim.Now();

    WorkMeter meter;
    const TxnBody body = MakeTxnBody(params, s_->handles, id_, txn_num_);
    TxnOutcome outcome =
        s_->engine->ExecuteTransaction(body, id_, txn_num_, &meter);
    const uint64_t aborts = static_cast<uint64_t>(outcome.attempts - 1);
    s_->metrics.aborts += aborts;
    s_->metrics.aborts_by_type[static_cast<int>(params.type)] += aborts;
    if (!outcome.status.ok()) {
      ++s_->metrics.failed;
      s_->sim.Schedule(1e-3, [this] { IssueNext(); });  // back off, retry
      return;
    }
    if (outcome.lsn != 0) s_->WakeApplier();

    const double cpu = s_->setup.cost.TxnCpuSeconds(meter);
    // Row-lock waits: written rows are held for roughly the wall time of
    // the transaction, estimated as CPU inflated by the current load.
    const double inflation = std::max(
        1.0, static_cast<double>(s_->t_pool.active_jobs() + 1) /
                 s_->t_pool.cores());
    const double full_wait =
        s_->locks.AcquireAll(outcome.write_keys, s_->sim.Now(),
                             cpu * inflation);
    // Delta-written rows wait on the same ledger but re-hold for only a
    // sliver of the service time; the transaction starts when its last
    // row (of either kind) frees up.
    const double delta_wait = s_->locks.AcquireAll(
        outcome.delta_keys, s_->sim.Now(), cpu * inflation,
        s_->setup.delta_hold_fraction);
    const double lock_wait = std::max(full_wait, delta_wait);
    s_->metrics.lock_wait_seconds += lock_wait;
    // Retry backoff accrued by the real engine execution is replayed as
    // simulated think time before the service begins.
    const double pre_service = lock_wait + outcome.backoff_s;
    auto submit = [this, cpu, outcome = std::move(outcome)]() mutable {
      s_->t_pool.Submit(cpu, [this, outcome = std::move(outcome)] {
        OnCpuDone(outcome);
      });
    };
    if (pre_service > 0) {
      s_->sim.Schedule(pre_service, std::move(submit));
    } else {
      submit();
    }
  }

  void OnCpuDone(const TxnOutcome& outcome) {
    // Backpressure throttles and injected ship delays stall the client
    // in addition to the commit wait itself. The per-transaction network
    // latency scales with the shards the transaction coordinated across
    // (one 2PC round trip per participant); single-node engines always
    // report shards_touched == 1.
    const double extra =
        s_->setup.cost.txn_extra_latency_us * 1e-6 *
            static_cast<double>(std::max(outcome.shards_touched, 1)) +
        outcome.wait.throttle_s;
    switch (outcome.wait.kind) {
      case CommitWait::Kind::kNone:
        wait_name_ = nullptr;
        Defer(extra, [this] { Finish(); });
        return;
      case CommitWait::Kind::kShipDelay:
        wait_name_ = "commit-wait-ship";
        wait_start_ = s_->sim.Now();
        Defer(extra + s_->setup.cost.ShipDelaySeconds(outcome.wait.bytes),
              [this] { Finish(); });
        return;
      case CommitWait::Kind::kReplicaApplied: {
        wait_name_ = "commit-wait-apply";
        wait_start_ = s_->sim.Now();
        const uint64_t lsn = outcome.wait.lsn;
        Defer(extra, [this, lsn] {
          s_->lsn_waits.WaitFor(lsn, [this] { Finish(); });
        });
        return;
      }
    }
  }

  void Defer(double delay, std::function<void()> fn) {
    if (delay > 0) {
      s_->sim.Schedule(delay, std::move(fn));
    } else {
      fn();
    }
  }

  void Finish() {
    const TimePoint now = s_->sim.Now();
    s_->tracker.RecordCommit(id_, txn_num_, now);
    if (s_->InWindow(now)) {
      ++s_->metrics.committed;
      ++s_->metrics.committed_by_type[static_cast<int>(type_)];
      const double latency = now - issue_time_;
      s_->metrics.txn_latency.Add(latency);
      s_->metrics.txn_latency_by_type[static_cast<int>(type_)].Add(latency);
    }
    if (s_->obs.tracer != nullptr) {
      const uint32_t track = obs::kTrackTClientBase + (id_ - 1);
      // Record the outer span first so the commit-wait child it contains
      // follows it in the export's recording-order tiebreak.
      s_->obs.tracer->RecordSpan(
          TxnTypeName(type_), "txn", track, issue_time_, now,
          "\"txn_num\":" + std::to_string(txn_num_));
      if (wait_name_ != nullptr) {
        s_->obs.tracer->RecordSpan(wait_name_, "txn", track, wait_start_,
                                   now);
      }
    }
    wait_name_ = nullptr;
    IssueNext();
  }

  RunState* s_;
  uint32_t id_;  // 1-based
  Rng rng_;
  uint64_t txn_num_ = 0;
  TimePoint issue_time_ = 0;
  TimePoint wait_start_ = 0;
  const char* wait_name_ = nullptr;
  TxnType type_ = TxnType::kNewOrder;
};

/// A simulated analytical client: runs random permutations of the
/// 13-query batch (Section 5.3), executing each query for real at issue
/// time and modeling its duration on the A pool.
class SimAClient {
 public:
  SimAClient(RunState* s, uint32_t index, uint64_t seed)
      : s_(s), index_(index), rng_(seed) {
    for (int i = 0; i < kNumQueries; ++i) batch_[i] = i;
    batch_pos_ = kNumQueries;  // force a shuffle on first issue
  }

  void Start() { IssueNext(); }

 private:
  void IssueNext() {
    if (s_->sim.Now() >= s_->end) return;
    if (batch_pos_ >= kNumQueries) {
      // New random permutation of the batch.
      for (int i = kNumQueries - 1; i > 0; --i) {
        std::swap(batch_[i], batch_[rng_.Uniform(0, i)]);
      }
      batch_pos_ = 0;
    }
    const int qid = batch_[batch_pos_++];
    const TimePoint issue_time = s_->sim.Now();

    WorkMeter meter;
    AnalyticsSession session = s_->engine->BeginAnalytics(&meter);
    ExecContext ctx{&meter};
    // Static morsel assignment keeps the metered work (and thus the
    // simulated duration) a pure function of the data — never of how the
    // host scheduled the worker threads.
    ctx.dop = s_->config.dop;
    ctx.dynamic_morsels = false;
    ctx.vectorized = s_->config.vectorized;
    if (s_->config.batch_rows > 0) {
      ctx.batch_rows = static_cast<size_t>(s_->config.batch_rows);
    }
    ctx.session_pin = session.guard;
    // Per-execution profile on the virtual clock: during RunQuery no
    // virtual time elapses, so the timing columns are zero — the tree,
    // row counts and work-meter attribution are the payload, and they
    // fold deterministically into the run's per-query aggregate.
    obs::PlanProfile profile(s_->sim.clock());
    if (s_->config.profile_queries) ctx.profile = &profile;
    QueryResult result = RunQuery(qid, *session.source,
                                  s_->context->num_freshness_tables, &ctx);
    ctx.session_pin.reset();
    session.source.reset();
    session.guard.reset();
    if (s_->config.profile_queries) {
      s_->metrics.query_profiles[qid].Accumulate(profile);
      if (s_->obs.tracer != nullptr) {
        profile.EmitSpans(s_->obs.tracer, obs::kTrackAClientBase + index_);
      }
    }

    const double cpu = s_->setup.cost.QueryCpuSeconds(meter);
    s_->a_pool->SubmitParallel(
        cpu, s_->config.dop,
        [this, qid, issue_time, result = std::move(result)] {
          const TimePoint now = s_->sim.Now();
          if (s_->obs.tracer != nullptr) {
            s_->obs.tracer->RecordSpan(
                QueryName(qid), "query", obs::kTrackAClientBase + index_,
                issue_time, now, "\"dop\":" + std::to_string(s_->config.dop));
            // All pieces of a SubmitParallel batch progress at the same
            // rate from the same demand, so each way's span is exactly
            // [submission, completion] — see CorePool::SubmitParallel.
            if (s_->config.dop > 1) {
              for (int w = 0; w < s_->config.dop; ++w) {
                s_->obs.tracer->RecordSpan(
                    "morsel-way", "morsel",
                    obs::MorselTrack(index_, static_cast<uint32_t>(w)),
                    issue_time, now, "\"way\":" + std::to_string(w));
              }
            }
          }
          if (s_->InWindow(now)) {
            ++s_->metrics.queries;
            const double latency = now - issue_time;
            s_->metrics.query_latency.Add(latency);
            s_->metrics.query_latency_by_id[qid].Add(latency);
            FreshnessTracker::Observation obs;
            obs.query_start = issue_time;
            obs.seen.assign(
                result.freshness.begin(),
                result.freshness.begin() +
                    std::min<size_t>(result.freshness.size(),
                                     static_cast<size_t>(
                                         s_->config.t_clients)));
            s_->observations.push_back(std::move(obs));
          }
          IssueNext();
        });
  }

  RunState* s_;
  uint32_t index_;  // 0-based
  Rng rng_;
  int batch_[kNumQueries];
  int batch_pos_ = 0;
};

}  // namespace

SimDriver::SimDriver(HtapEngine* engine, WorkloadContext* context,
                     SimSetup setup)
    : engine_(engine), context_(context), setup_(std::move(setup)) {}

RunMetrics SimDriver::Run(const WorkloadConfig& config) {
  if (static_cast<uint32_t>(config.t_clients) >
      context_->num_freshness_tables) {
    std::fprintf(stderr,
                 "SimDriver: %d T-clients exceed the %u FRESHNESS_j "
                 "tables created at load time\n",
                 config.t_clients, context_->num_freshness_tables);
    std::abort();
  }
  // Reset to the initial database image (Section 6.1).
  Status reset = engine_->Reset();
  assert(reset.ok());
  (void)reset;
  context_->Reset();

  RunState state(engine_, context_, setup_, config);
  Rng seeder(config.seed);

  // Per-run observability: a fresh registry every Run (so counters start
  // at zero and same-seed runs snapshot byte-identical values), spans on
  // the simulation's virtual clock.
  obs::MetricsRegistry registry;
  obs::PreRegisterDomainMetrics(&registry);
  state.t_pool.RegisterMetrics(&registry);
  if (state.a_pool_storage != nullptr) {
    state.a_pool_storage->RegisterMetrics(&registry);
  }
  if (tracer_ != nullptr) {
    tracer_->Clear();
    tracer_->SetTrackName(obs::kTrackApplier, "wal-applier");
    tracer_->SetTrackName(obs::kTrackEngine, "engine");
    for (int i = 0; i < config.t_clients; ++i) {
      tracer_->SetTrackName(obs::kTrackTClientBase + i,
                            "t-client " + std::to_string(i + 1));
    }
    for (int i = 0; i < config.a_clients; ++i) {
      tracer_->SetTrackName(obs::kTrackAClientBase + i,
                            "a-client " + std::to_string(i + 1));
      for (int w = 0; w < config.dop && config.dop > 1; ++w) {
        tracer_->SetTrackName(
            obs::MorselTrack(static_cast<uint32_t>(i),
                             static_cast<uint32_t>(w)),
            "a-client " + std::to_string(i + 1) + " way " +
                std::to_string(w));
      }
    }
  }
  state.obs = obs::Observability{&registry, tracer_, state.sim.clock()};
  engine_->SetObservability(state.obs);

  std::vector<std::unique_ptr<SimTClient>> t_clients;
  t_clients.reserve(config.t_clients);
  for (int i = 0; i < config.t_clients; ++i) {
    t_clients.push_back(std::make_unique<SimTClient>(
        &state, static_cast<uint32_t>(i + 1), seeder.Next()));
  }
  std::vector<std::unique_ptr<SimAClient>> a_clients;
  a_clients.reserve(config.a_clients);
  for (int i = 0; i < config.a_clients; ++i) {
    a_clients.push_back(std::make_unique<SimAClient>(
        &state, static_cast<uint32_t>(i), seeder.Next()));
  }

  // Stagger client starts slightly to avoid artificial lockstep.
  for (size_t i = 0; i < t_clients.size(); ++i) {
    SimTClient* client = t_clients[i].get();
    state.sim.Schedule(static_cast<double>(i) * 13e-6,
                       [client] { client->Start(); });
  }
  for (size_t i = 0; i < a_clients.size(); ++i) {
    SimAClient* client = a_clients[i].get();
    state.sim.Schedule(static_cast<double>(i) * 17e-6,
                       [client] { client->Start(); });
  }

  // Clients stop issuing at `end`; remaining events drain afterwards.
  state.sim.RunToCompletion();

  RunMetrics metrics = std::move(state.metrics);
  // Snapshot while the pools (whose gauges probe into `state`) are still
  // alive, then detach the engine from the run-local registry.
  if (tracer_ != nullptr) {
    registry.GetGauge(obs::kTraceDroppedSpans)
        ->Set(static_cast<double>(tracer_->dropped()));
  }
  metrics.observed = registry.Snapshot();
  engine_->SetObservability(obs::Observability{});
  metrics.measure_seconds = config.measure_seconds;
  metrics.t_throughput =
      static_cast<double>(metrics.committed) / config.measure_seconds;
  metrics.a_throughput =
      static_cast<double>(metrics.queries) / config.measure_seconds;
  for (const FreshnessTracker::Observation& obs : state.observations) {
    metrics.freshness.Add(state.tracker.Score(obs));
  }
  return metrics;
}

// ---------------------------------------------------------------------------
// Wall-clock driver.
// ---------------------------------------------------------------------------

ThreadedDriver::ThreadedDriver(HtapEngine* engine, WorkloadContext* context,
                               double ship_delay_seconds)
    : engine_(engine),
      context_(context),
      ship_delay_seconds_(ship_delay_seconds) {}

RunMetrics ThreadedDriver::Run(const WorkloadConfig& config) {
  if (static_cast<uint32_t>(config.t_clients) >
      context_->num_freshness_tables) {
    std::fprintf(stderr,
                 "ThreadedDriver: %d T-clients exceed the %u FRESHNESS_j "
                 "tables created at load time\n",
                 config.t_clients, context_->num_freshness_tables);
    std::abort();
  }
  Status reset = engine_->Reset();
  assert(reset.ok());
  (void)reset;
  context_->Reset();

  const EngineHandles handles = EngineHandles::Resolve(
      *engine_->primary_catalog(), context_->num_freshness_tables);
  WallClock clock;
  FreshnessTracker tracker;
  tracker.SetNumClients(static_cast<uint32_t>(std::max(config.t_clients, 1)));

  // Per-run observability: same API as the simulated driver, but spans
  // record wall time (the injected clock is the WallClock above).
  obs::MetricsRegistry registry;
  obs::PreRegisterDomainMetrics(&registry);
  if (tracer_ != nullptr) {
    tracer_->Clear();
    tracer_->SetTrackName(obs::kTrackApplier, "wal-applier");
    tracer_->SetTrackName(obs::kTrackEngine, "engine");
    for (int i = 0; i < config.t_clients; ++i) {
      tracer_->SetTrackName(obs::kTrackTClientBase + i,
                            "t-client " + std::to_string(i + 1));
    }
    for (int i = 0; i < config.a_clients; ++i) {
      tracer_->SetTrackName(obs::kTrackAClientBase + i,
                            "a-client " + std::to_string(i + 1));
      for (int w = 0; w < config.dop && config.dop > 1; ++w) {
        tracer_->SetTrackName(
            obs::MorselTrack(static_cast<uint32_t>(i),
                             static_cast<uint32_t>(w)),
            "a-client " + std::to_string(i + 1) + " way " +
                std::to_string(w));
      }
    }
  }
  engine_->SetObservability(obs::Observability{&registry, tracer_, &clock});

  const double warmup_end = config.warmup_seconds;
  const double end = config.warmup_seconds + config.measure_seconds;
  std::atomic<bool> stop{false};

  struct TLocal {
    uint64_t committed = 0;
    uint64_t failed = 0;
    uint64_t aborts = 0;
    uint64_t committed_by_type[3] = {0, 0, 0};
    uint64_t aborts_by_type[3] = {0, 0, 0};
    Sampler latency;
    Sampler latency_by_type[3];
  };
  struct ALocal {
    uint64_t queries = 0;
    Sampler latency;
    Sampler latency_by_id[kNumQueries];
    std::vector<FreshnessTracker::Observation> observations;
    obs::PlanProfile profiles[kNumQueries];  // this client's aggregates
  };
  std::vector<TLocal> t_locals(config.t_clients);
  std::vector<ALocal> a_locals(config.a_clients);

  // Applier thread (isolated engine): replays WAL continuously.
  std::thread applier([&] {
    WorkMeter meter;
    while (!stop.load(std::memory_order_relaxed)) {
      if (!engine_->MaintenanceStep(&meter)) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  });

  std::vector<std::thread> threads;
  threads.reserve(config.t_clients + config.a_clients);
  for (int i = 0; i < config.t_clients; ++i) {
    threads.emplace_back([&, i] {
      const uint32_t id = static_cast<uint32_t>(i + 1);
      Rng rng(config.seed * 7919 + id);
      TLocal& local = t_locals[i];
      uint64_t txn_num = 0;
      while (clock.Now() < end) {
        const TxnParams params = GenerateTxnParams(context_, &rng);
        ++txn_num;
        const double issue = clock.Now();
        WorkMeter meter;
        const TxnBody body = MakeTxnBody(params, handles, id, txn_num);
        TxnOutcome outcome =
            engine_->ExecuteTransaction(body, id, txn_num, &meter);
        const uint64_t aborts = static_cast<uint64_t>(outcome.attempts - 1);
        local.aborts += aborts;
        local.aborts_by_type[static_cast<int>(params.type)] += aborts;
        if (!outcome.status.ok()) {
          ++local.failed;
          continue;
        }
        if (outcome.wait.throttle_s > 0) {  // backpressure / injected delay
          std::this_thread::sleep_for(
              std::chrono::duration<double>(outcome.wait.throttle_s));
        }
        switch (outcome.wait.kind) {
          case CommitWait::Kind::kNone:
            break;
          case CommitWait::Kind::kShipDelay: {
            const auto delay = std::chrono::duration<double>(
                ship_delay_seconds_);
            std::this_thread::sleep_for(delay);
            break;
          }
          case CommitWait::Kind::kReplicaApplied:
            while (!engine_->IsApplied(outcome.wait.lsn)) {
              std::this_thread::yield();
            }
            break;
        }
        const double now = clock.Now();
        tracker.RecordCommit(id, txn_num, now);
        if (tracer_ != nullptr) {
          tracer_->RecordSpan(TxnTypeName(params.type), "txn",
                              obs::kTrackTClientBase + static_cast<uint32_t>(i),
                              issue, now,
                              "\"txn_num\":" + std::to_string(txn_num));
        }
        if (now >= warmup_end && now <= end) {
          ++local.committed;
          ++local.committed_by_type[static_cast<int>(params.type)];
          local.latency.Add(now - issue);
          local.latency_by_type[static_cast<int>(params.type)].Add(now -
                                                                   issue);
        }
      }
    });
  }
  for (int i = 0; i < config.a_clients; ++i) {
    threads.emplace_back([&, i] {
      Rng rng(config.seed * 104729 + static_cast<uint64_t>(i) + 1);
      ALocal& local = a_locals[i];
      int batch[kNumQueries];
      for (int q = 0; q < kNumQueries; ++q) batch[q] = q;
      int pos = kNumQueries;
      while (clock.Now() < end) {
        if (pos >= kNumQueries) {
          for (int q = kNumQueries - 1; q > 0; --q) {
            std::swap(batch[q], batch[rng.Uniform(0, q)]);
          }
          pos = 0;
        }
        const int qid = batch[pos++];
        const double issue = clock.Now();
        WorkMeter meter;
        AnalyticsSession session = engine_->BeginAnalytics(&meter);
        ExecContext ctx{&meter};
        ctx.dop = config.dop;
        ctx.dynamic_morsels = true;  // real threads: balance via stealing
        ctx.vectorized = config.vectorized;
        if (config.batch_rows > 0) {
          ctx.batch_rows = static_cast<size_t>(config.batch_rows);
        }
        ctx.session_pin = session.guard;
        // Morsel workers record real per-shard spans on this client's
        // lanes (see GatherMergeOp).
        ctx.tracer = tracer_;
        ctx.trace_clock = &clock;
        ctx.trace_tid = obs::MorselTrack(static_cast<uint32_t>(i), 0);
        // Per-execution profile on the wall clock (real operator times);
        // folded into this client's per-query aggregate, merged across
        // clients after the join.
        obs::PlanProfile profile(&clock);
        if (config.profile_queries) ctx.profile = &profile;
        QueryResult result = RunQuery(
            qid, *session.source, context_->num_freshness_tables, &ctx);
        ctx.session_pin.reset();
        session.guard.reset();
        if (config.profile_queries) {
          local.profiles[qid].Accumulate(profile);
          if (tracer_ != nullptr) {
            profile.EmitSpans(
                tracer_, obs::kTrackAClientBase + static_cast<uint32_t>(i));
          }
        }
        const double now = clock.Now();
        if (tracer_ != nullptr) {
          tracer_->RecordSpan(QueryName(qid), "query",
                              obs::kTrackAClientBase + static_cast<uint32_t>(i),
                              issue, now,
                              "\"dop\":" + std::to_string(config.dop));
        }
        if (now >= warmup_end && now <= end) {
          ++local.queries;
          local.latency.Add(now - issue);
          local.latency_by_id[qid].Add(now - issue);
          FreshnessTracker::Observation obs;
          obs.query_start = issue;
          obs.seen.assign(
              result.freshness.begin(),
              result.freshness.begin() +
                  std::min<size_t>(result.freshness.size(),
                                   static_cast<size_t>(config.t_clients)));
          local.observations.push_back(std::move(obs));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stop.store(true);
  applier.join();

  RunMetrics metrics;
  if (tracer_ != nullptr) {
    registry.GetGauge(obs::kTraceDroppedSpans)
        ->Set(static_cast<double>(tracer_->dropped()));
  }
  metrics.observed = registry.Snapshot();
  engine_->SetObservability(obs::Observability{});
  metrics.measure_seconds = config.measure_seconds;
  for (const TLocal& local : t_locals) {
    metrics.committed += local.committed;
    metrics.failed += local.failed;
    metrics.aborts += local.aborts;
    metrics.txn_latency.Merge(local.latency);
    for (int t = 0; t < 3; ++t) {
      metrics.committed_by_type[t] += local.committed_by_type[t];
      metrics.aborts_by_type[t] += local.aborts_by_type[t];
      metrics.txn_latency_by_type[t].Merge(local.latency_by_type[t]);
    }
  }
  for (const ALocal& local : a_locals) {
    metrics.queries += local.queries;
    metrics.query_latency.Merge(local.latency);
    for (int q = 0; q < kNumQueries; ++q) {
      metrics.query_latency_by_id[q].Merge(local.latency_by_id[q]);
      metrics.query_profiles[q].Accumulate(local.profiles[q]);
    }
    for (const FreshnessTracker::Observation& obs : local.observations) {
      metrics.freshness.Add(tracker.Score(obs));
    }
  }
  metrics.t_throughput =
      static_cast<double>(metrics.committed) / config.measure_seconds;
  metrics.a_throughput =
      static_cast<double>(metrics.queries) / config.measure_seconds;
  return metrics;
}

}  // namespace hattrick
