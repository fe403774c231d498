#include "hattrick/driver.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>
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

/// Back-off before a client re-issues after a transaction that exhausted
/// its retries.
constexpr double kFailedTxnBackoffSeconds = 1e-3;

/// What the clients of one Run record: the run's metrics plus the raw
/// freshness observations, scored after the run once every commit time
/// is known.
struct Tally {
  RunMetrics metrics;
  std::vector<FreshnessTracker::Observation> observations;
};

/// Folds `from` into `into`.
void Merge(Tally* into, Tally* from) {
  RunMetrics& m = into->metrics;
  const RunMetrics& f = from->metrics;
  m.committed += f.committed;
  m.failed += f.failed;
  m.aborts += f.aborts;
  m.queries += f.queries;
  m.lock_wait_seconds += f.lock_wait_seconds;
  m.txn_latency.Merge(f.txn_latency);
  m.query_latency.Merge(f.query_latency);
  for (int t = 0; t < 3; ++t) {
    m.committed_by_type[t] += f.committed_by_type[t];
    m.aborts_by_type[t] += f.aborts_by_type[t];
    m.txn_latency_by_type[t].Merge(f.txn_latency_by_type[t]);
  }
  for (int q = 0; q < kNumQueries; ++q) {
    m.query_latency_by_id[q].Merge(f.query_latency_by_id[q]);
    m.query_profiles[q].Accumulate(f.query_profiles[q]);
  }
  for (FreshnessTracker::Observation& obs : from->observations) {
    into->observations.push_back(std::move(obs));
  }
}

/// The clock-independent frame of one driver Run. Constructing it is the
/// preamble both drivers share: the engine and workload reset to the
/// initial database image (Section 6.1), a fresh metrics registry
/// (so counters start at zero and same-seed runs snapshot byte-identical
/// values), the trace's track names, and the engine's observability on
/// the driver's clock. Finish() is the shared epilogue.
///
/// Clients record into tallies: one shared by every client, in event
/// order (the simulator: Sampler sums and profile accumulation depend on
/// insertion order), or one per client, merged in client order at Finish
/// (real threads).
class ClientRun {
 public:
  ClientRun(const char* driver, HtapEngine* engine, WorkloadContext* context,
            const WorkloadConfig& config, const CostModel& cost,
            obs::Tracer* tracer, const Clock* clock, bool tally_per_client)
      : engine(engine),
        context(context),
        config(config),
        cost(cost),
        tracer(tracer),
        clock(clock),
        tallies_(tally_per_client ? 1 + config.t_clients + config.a_clients
                                  : 1) {
    if (static_cast<uint32_t>(config.t_clients) >
        context->num_freshness_tables) {
      std::fprintf(stderr,
                   "%s: %d T-clients exceed the %u FRESHNESS_j tables "
                   "created at load time\n",
                   driver, config.t_clients, context->num_freshness_tables);
      std::abort();
    }
    Status reset = engine->Reset();
    assert(reset.ok());
    (void)reset;
    context->Reset();
    handles = EngineHandles::Resolve(*engine->primary_catalog(),
                                     context->num_freshness_tables);
    tracker.SetNumClients(
        static_cast<uint32_t>(std::max(config.t_clients, 1)));
    obs::PreRegisterDomainMetrics(&registry);
    if (tracer != nullptr) {
      tracer->Clear();
      tracer->SetTrackName(obs::kTrackApplier, "wal-applier");
      tracer->SetTrackName(obs::kTrackEngine, "engine");
      for (int i = 0; i < config.t_clients; ++i) {
        tracer->SetTrackName(obs::kTrackTClientBase + i,
                             "t-client " + std::to_string(i + 1));
      }
      for (int i = 0; i < config.a_clients; ++i) {
        tracer->SetTrackName(obs::kTrackAClientBase + i,
                             "a-client " + std::to_string(i + 1));
        for (int w = 0; w < config.dop && config.dop > 1; ++w) {
          tracer->SetTrackName(
              obs::MorselTrack(static_cast<uint32_t>(i),
                               static_cast<uint32_t>(w)),
              "a-client " + std::to_string(i + 1) + " way " +
                  std::to_string(w));
        }
      }
    }
    engine->SetObservability(obs::Observability{&registry, tracer, clock});
    // The run starts when the preamble ends: a wall clock has been
    // running through the engine reset.
    warmup_end = clock->Now() + config.warmup_seconds;
    end = warmup_end + config.measure_seconds;
  }
  ClientRun(const ClientRun&) = delete;  // clients hold its address
  ClientRun& operator=(const ClientRun&) = delete;

  bool InWindow(TimePoint t) const { return t >= warmup_end && t <= end; }

  /// The tally client `i` records into (T-clients first, then A-clients).
  Tally* TallyOf(int i) { return &tallies_[tallies_.size() > 1 ? i + 1 : 0]; }

  /// Merges the tallies, snapshots the registry (while the driver's
  /// gauge probes are still alive), detaches the engine from it, and
  /// derives throughput and freshness.
  RunMetrics Finish() {
    for (size_t i = 1; i < tallies_.size(); ++i) {
      Merge(&tallies_[0], &tallies_[i]);
    }
    RunMetrics metrics = std::move(tallies_[0].metrics);
    if (tracer != nullptr) {
      registry.GetGauge(obs::kTraceDroppedSpans)
          ->Set(static_cast<double>(tracer->dropped()));
    }
    metrics.observed = registry.Snapshot();
    engine->SetObservability(obs::Observability{});
    metrics.measure_seconds = config.measure_seconds;
    metrics.t_throughput =
        static_cast<double>(metrics.committed) / config.measure_seconds;
    metrics.a_throughput =
        static_cast<double>(metrics.queries) / config.measure_seconds;
    for (const FreshnessTracker::Observation& obs : tallies_[0].observations) {
      metrics.freshness.Add(tracker.Score(obs));
    }
    return metrics;
  }

  HtapEngine* const engine;
  WorkloadContext* const context;
  const WorkloadConfig& config;
  const CostModel cost;
  obs::Tracer* const tracer;
  const Clock* const clock;
  EngineHandles handles;
  TimePoint warmup_end = 0;
  TimePoint end = 0;
  FreshnessTracker tracker;
  obs::MetricsRegistry registry;

 private:
  std::vector<Tally> tallies_;
};

/// How a committed transaction's client waits before its result returns.
struct CommitWaitPlan {
  double delay = 0;  // seconds stalled before the result (or the apply wait)
  std::optional<uint64_t> apply_lsn;  // REMOTE_APPLY: wait for this LSN
  const char* span = nullptr;         // commit-wait child span, if any
};

/// One T-client (Section 5.3): NewOrder, Payment and CountOrders back to
/// back, each stamping the client's freshness table with its sequence
/// number. The driver owns the clock: it calls Issue, carries out the
/// commit-wait plan, then calls Complete.
class TClient {
 public:
  TClient(ClientRun* run, Tally* tally, uint32_t id, uint64_t seed)
      : run_(run), tally_(tally), id_(id), rng_(seed) {}

  /// Executes the next transaction for real, issued at `now`. Aborts and
  /// a final failure are counted here; after a failure the driver backs
  /// off kFailedTxnBackoffSeconds and issues again.
  TxnOutcome Issue(TimePoint now, WorkMeter* meter) {
    const TxnParams params = GenerateTxnParams(run_->context, &rng_);
    ++txn_num_;
    type_ = params.type;
    issue_time_ = now;
    const TxnBody body = MakeTxnBody(params, run_->handles, id_, txn_num_);
    TxnOutcome outcome =
        run_->engine->ExecuteTransaction(body, id_, txn_num_, meter);
    const uint64_t aborts = static_cast<uint64_t>(outcome.attempts - 1);
    tally_->metrics.aborts += aborts;
    tally_->metrics.aborts_by_type[static_cast<int>(type_)] += aborts;
    if (!outcome.status.ok()) ++tally_->metrics.failed;
    return outcome;
  }

  /// Plans the commit wait of the committed `outcome`, which starts at
  /// `now`. Backpressure throttles and injected ship delays stall the
  /// client in addition to the commit wait itself. The per-transaction
  /// network latency scales with the shards the transaction coordinated
  /// across (one 2PC round trip per participant); single-node engines
  /// always report shards_touched == 1.
  CommitWaitPlan BeginCommitWait(const TxnOutcome& outcome, TimePoint now) {
    CommitWaitPlan plan;
    plan.delay = run_->cost.txn_extra_latency_us * 1e-6 *
                     static_cast<double>(std::max(outcome.shards_touched, 1)) +
                 outcome.wait.throttle_s;
    switch (outcome.wait.kind) {
      case CommitWait::Kind::kNone:
        break;
      case CommitWait::Kind::kShipDelay:
        plan.span = "commit-wait-ship";
        plan.delay += run_->cost.ShipDelaySeconds(outcome.wait.bytes);
        break;
      case CommitWait::Kind::kReplicaApplied:
        plan.span = "commit-wait-apply";
        plan.apply_lsn = outcome.wait.lsn;
        break;
    }
    wait_span_ = plan.span;
    wait_start_ = now;
    return plan;
  }

  /// The transaction's result returns at `now`.
  void Complete(TimePoint now) {
    run_->tracker.RecordCommit(id_, txn_num_, now);
    if (run_->InWindow(now)) {
      ++tally_->metrics.committed;
      ++tally_->metrics.committed_by_type[static_cast<int>(type_)];
      const double latency = now - issue_time_;
      tally_->metrics.txn_latency.Add(latency);
      tally_->metrics.txn_latency_by_type[static_cast<int>(type_)].Add(
          latency);
    }
    if (run_->tracer != nullptr) {
      const uint32_t track = obs::kTrackTClientBase + (id_ - 1);
      // Record the outer span first so the commit-wait child it contains
      // follows it in the export's recording-order tiebreak.
      run_->tracer->RecordSpan(TxnTypeName(type_), "txn", track, issue_time_,
                               now,
                               "\"txn_num\":" + std::to_string(txn_num_));
      if (wait_span_ != nullptr) {
        run_->tracer->RecordSpan(wait_span_, "txn", track, wait_start_, now);
      }
    }
    wait_span_ = nullptr;
  }

  Tally* tally() const { return tally_; }

 private:
  ClientRun* run_;
  Tally* tally_;
  uint32_t id_;  // 1-based
  Rng rng_;
  uint64_t txn_num_ = 0;
  TimePoint issue_time_ = 0;
  TimePoint wait_start_ = 0;
  const char* wait_span_ = nullptr;
  TxnType type_ = TxnType::kNewOrder;
};

/// One A-client (Section 5.3): random permutations of the 13-query batch,
/// each query reading back the freshness stamps it saw.
class AClient {
 public:
  AClient(ClientRun* run, Tally* tally, uint32_t index, uint64_t seed)
      : run_(run), tally_(tally), index_(index), rng_(seed) {
    for (int i = 0; i < kNumQueries; ++i) batch_[i] = i;
  }

  /// The next query of the current permutation; a new random permutation
  /// starts after each full batch.
  int NextQuery() {
    if (batch_pos_ >= kNumQueries) {
      for (int i = kNumQueries - 1; i > 0; --i) {
        std::swap(batch_[i], batch_[rng_.Uniform(0, i)]);
      }
      batch_pos_ = 0;
    }
    return batch_[batch_pos_++];
  }

  /// Runs query `qid` for real on a fresh analytics session. `ctx` comes
  /// with the caller's work meter and the driver's morsel and trace
  /// settings; the run's execution settings are filled in here.
  QueryResult Execute(int qid, ExecContext* ctx) {
    AnalyticsSession session = run_->engine->BeginAnalytics(ctx->meter);
    ctx->dop = run_->config.dop;
    ctx->vectorized = run_->config.vectorized;
    if (run_->config.batch_rows > 0) {
      ctx->batch_rows = static_cast<size_t>(run_->config.batch_rows);
    }
    ctx->session_pin = session.guard;
    // Per-execution profile on the run's clock. On the virtual clock no
    // time elapses during RunQuery, so the timing columns are zero — the
    // tree, row counts and work-meter attribution are the payload, and
    // they fold deterministically into the per-query aggregate.
    obs::PlanProfile profile(run_->clock);
    if (run_->config.profile_queries) ctx->profile = &profile;
    QueryResult result = RunQuery(qid, *session.source,
                                  run_->context->num_freshness_tables, ctx);
    ctx->profile = nullptr;
    ctx->session_pin.reset();
    session.source.reset();
    session.guard.reset();
    if (run_->config.profile_queries) {
      tally_->metrics.query_profiles[qid].Accumulate(profile);
      if (run_->tracer != nullptr) {
        profile.EmitSpans(run_->tracer, obs::kTrackAClientBase + index_);
      }
    }
    return result;
  }

  /// Query `qid`, issued at `issue`, returns `result` at `now`.
  void Complete(int qid, TimePoint issue, TimePoint now,
                const QueryResult& result) {
    if (run_->tracer != nullptr) {
      run_->tracer->RecordSpan(
          QueryName(qid), "query", obs::kTrackAClientBase + index_, issue,
          now, "\"dop\":" + std::to_string(run_->config.dop));
    }
    if (!run_->InWindow(now)) return;
    ++tally_->metrics.queries;
    const double latency = now - issue;
    tally_->metrics.query_latency.Add(latency);
    tally_->metrics.query_latency_by_id[qid].Add(latency);
    FreshnessTracker::Observation obs;
    obs.query_start = issue;
    obs.seen.assign(result.freshness.begin(),
                    result.freshness.begin() +
                        std::min<size_t>(result.freshness.size(),
                                         static_cast<size_t>(
                                             run_->config.t_clients)));
    tally_->observations.push_back(std::move(obs));
  }

  uint32_t index() const { return index_; }  // 0-based

 private:
  ClientRun* run_;
  Tally* tally_;
  uint32_t index_;
  Rng rng_;
  int batch_[kNumQueries];
  int batch_pos_ = kNumQueries;  // shuffle on the first query
};

/// Every client of one Run. Both drivers seed them alike: T-clients 1..n
/// draw from Rng(config.seed) first, then the A-clients.
struct Clients {
  explicit Clients(ClientRun* run) {
    const int n_t = run->config.t_clients;
    Rng seeder(run->config.seed);
    t.reserve(n_t);
    a.reserve(run->config.a_clients);
    for (int i = 0; i < n_t; ++i) {
      t.emplace_back(run, run->TallyOf(i), i + 1, seeder.Next());
    }
    for (int i = 0; i < run->config.a_clients; ++i) {
      a.emplace_back(run, run->TallyOf(n_t + i), i, seeder.Next());
    }
  }
  Clients(const Clients&) = delete;  // drivers hold client addresses
  Clients& operator=(const Clients&) = delete;

  std::vector<TClient> t;
  std::vector<AClient> a;
};

// ---------------------------------------------------------------------------
// Virtual-time driver.
// ---------------------------------------------------------------------------

/// Per-run state of the simulated deployment: the event loop, core pools,
/// row-lock model and the standby applier pump.
struct RunState {
  RunState(HtapEngine* engine, WorkloadContext* context,
           const SimSetup& setup, const WorkloadConfig& config,
           obs::Tracer* tracer)
      : setup(setup),
        run("SimDriver", engine, context, config, setup.cost, tracer,
            sim.clock(), /*tally_per_client=*/false),
        t_pool(&sim, "t-pool", setup.t_cores),
        a_pool_storage(
            setup.separate_pools
                ? std::make_unique<CorePool>(&sim, "a-pool", setup.a_cores)
                : nullptr),
        a_pool(setup.separate_pools ? a_pool_storage.get() : &t_pool),
        locks(setup.lock_hold_fraction) {
    t_pool.RegisterMetrics(&run.registry);
    if (a_pool_storage != nullptr) {
      a_pool_storage->RegisterMetrics(&run.registry);
    }
  }

  const SimSetup& setup;
  Simulation sim;  // before `run`, which reads its virtual clock
  ClientRun run;
  CorePool t_pool;
  std::unique_ptr<CorePool> a_pool_storage;
  CorePool* a_pool;
  RowLockModel locks;
  LsnWaitQueue lsn_waits;
  bool applier_idle = true;

  void WakeApplier();
  void ApplierPump();
};

void RunState::ApplierPump() {
  WorkMeter meter;
  if (!run.engine->MaintenanceStep(&meter)) {
    if (run.engine->MaintenancePending() > 0) {
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
  const uint64_t applied = run.engine->applied_lsn();
  const double cpu = setup.cost.ReplayCpuSeconds(meter);
  const TimePoint submit = sim.Now();
  a_pool->Submit(cpu, [this, applied, submit] {
    if (run.tracer != nullptr) {
      run.tracer->RecordSpan("wal-replay", "repl", obs::kTrackApplier, submit,
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

/// A TClient on the virtual clock: each transaction executes for real at
/// issue time, and its duration is modeled as CPU on the T pool plus
/// row-lock waits plus the commit wait.
class SimTClient {
 public:
  SimTClient(RunState* s, TClient* client) : s_(s), client_(client) {}

  void Start() { IssueNext(); }

 private:
  void IssueNext() {
    if (s_->sim.Now() >= s_->run.end) return;
    WorkMeter meter;
    TxnOutcome outcome = client_->Issue(s_->sim.Now(), &meter);
    if (!outcome.status.ok()) {
      s_->sim.Schedule(kFailedTxnBackoffSeconds, [this] { IssueNext(); });
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
    client_->tally()->metrics.lock_wait_seconds += lock_wait;
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
    const CommitWaitPlan plan =
        client_->BeginCommitWait(outcome, s_->sim.Now());
    if (plan.apply_lsn.has_value()) {
      const uint64_t lsn = *plan.apply_lsn;
      Defer(plan.delay, [this, lsn] {
        s_->lsn_waits.WaitFor(lsn, [this] { Finish(); });
      });
    } else {
      Defer(plan.delay, [this] { Finish(); });
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
    client_->Complete(s_->sim.Now());
    IssueNext();
  }

  RunState* s_;
  TClient* client_;
};

/// An AClient on the virtual clock: each query executes for real at
/// issue time, and its duration is modeled on the A pool.
class SimAClient {
 public:
  SimAClient(RunState* s, AClient* client) : s_(s), client_(client) {}

  void Start() { IssueNext(); }

 private:
  void IssueNext() {
    if (s_->sim.Now() >= s_->run.end) return;
    const int qid = client_->NextQuery();
    const TimePoint issue_time = s_->sim.Now();
    WorkMeter meter;
    ExecContext ctx;
    ctx.meter = &meter;
    // Static morsel assignment keeps the metered work (and thus the
    // simulated duration) a pure function of the data — never of how the
    // host scheduled the worker threads.
    ctx.dynamic_morsels = false;
    QueryResult result = client_->Execute(qid, &ctx);

    const double cpu = s_->setup.cost.QueryCpuSeconds(meter);
    s_->a_pool->SubmitParallel(
        cpu, s_->run.config.dop,
        [this, qid, issue_time, result = std::move(result)] {
          const TimePoint now = s_->sim.Now();
          client_->Complete(qid, issue_time, now, result);
          // All pieces of a SubmitParallel batch progress at the same
          // rate from the same demand, so each way's span is exactly
          // [submission, completion] — see CorePool::SubmitParallel.
          const int dop = s_->run.config.dop;
          if (s_->run.tracer != nullptr && dop > 1) {
            for (int w = 0; w < dop; ++w) {
              s_->run.tracer->RecordSpan(
                  "morsel-way", "morsel",
                  obs::MorselTrack(client_->index(),
                                   static_cast<uint32_t>(w)),
                  issue_time, now, "\"way\":" + std::to_string(w));
            }
          }
          IssueNext();
        });
  }

  RunState* s_;
  AClient* client_;
};

/// Sleeps the calling thread for `seconds` of wall time.
void SleepSeconds(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace

SimDriver::SimDriver(HtapEngine* engine, WorkloadContext* context,
                     SimSetup setup)
    : engine_(engine), context_(context), setup_(std::move(setup)) {}

RunMetrics SimDriver::Run(const WorkloadConfig& config) {
  RunState state(engine_, context_, setup_, config, tracer_);
  Clients clients(&state.run);
  // Stagger client starts slightly to avoid artificial lockstep.
  std::vector<std::unique_ptr<SimTClient>> t_clients;
  for (size_t i = 0; i < clients.t.size(); ++i) {
    t_clients.push_back(std::make_unique<SimTClient>(&state, &clients.t[i]));
    state.sim.Schedule(static_cast<double>(i) * 13e-6,
                       [client = t_clients.back().get()] { client->Start(); });
  }
  std::vector<std::unique_ptr<SimAClient>> a_clients;
  for (size_t i = 0; i < clients.a.size(); ++i) {
    a_clients.push_back(std::make_unique<SimAClient>(&state, &clients.a[i]));
    state.sim.Schedule(static_cast<double>(i) * 17e-6,
                       [client = a_clients.back().get()] { client->Start(); });
  }

  // Clients stop issuing at `end`; remaining events drain afterwards.
  state.sim.RunToCompletion();
  return state.run.Finish();
}

// ---------------------------------------------------------------------------
// Wall-clock driver.
// ---------------------------------------------------------------------------

ThreadedDriver::ThreadedDriver(HtapEngine* engine, WorkloadContext* context)
    : engine_(engine), context_(context) {}

RunMetrics ThreadedDriver::Run(const WorkloadConfig& config) {
  WallClock clock;
  ClientRun run("ThreadedDriver", engine_, context_, config, CostModel{},
                tracer_, &clock, /*tally_per_client=*/true);
  Clients clients(&run);
  std::atomic<bool> stop{false};

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
  threads.reserve(clients.t.size() + clients.a.size());
  for (TClient& client : clients.t) {
    threads.emplace_back([&, c = &client] {
      while (clock.Now() < run.end) {
        WorkMeter meter;
        const TxnOutcome outcome = c->Issue(clock.Now(), &meter);
        if (!outcome.status.ok()) {
          SleepSeconds(kFailedTxnBackoffSeconds);
          continue;
        }
        const CommitWaitPlan plan = c->BeginCommitWait(outcome, clock.Now());
        if (plan.delay > 0) SleepSeconds(plan.delay);
        if (plan.apply_lsn.has_value()) {
          while (!engine_->IsApplied(*plan.apply_lsn)) {
            std::this_thread::yield();
          }
        }
        c->Complete(clock.Now());
      }
    });
  }
  for (AClient& client : clients.a) {
    threads.emplace_back([&, c = &client] {
      while (clock.Now() < run.end) {
        const int qid = c->NextQuery();
        const TimePoint issue = clock.Now();
        WorkMeter meter;
        ExecContext ctx;
        ctx.meter = &meter;
        ctx.dynamic_morsels = true;  // real threads: balance via stealing
        // Morsel workers record real per-shard spans on this client's
        // lanes (see GatherMergeOp).
        ctx.tracer = tracer_;
        ctx.trace_clock = &clock;
        ctx.trace_tid = obs::MorselTrack(c->index(), 0);
        const QueryResult result = c->Execute(qid, &ctx);
        c->Complete(qid, issue, clock.Now(), result);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stop.store(true);
  applier.join();
  return run.Finish();
}

}  // namespace hattrick
