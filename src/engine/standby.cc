#include "engine/standby.h"

#include <algorithm>

#include "engine/shared_engine.h"

namespace hattrick {

/// Forwards committed records to the primary's own sink, then ships them
/// to a contiguous range of chains. Runs inside the commit tail, so every
/// receiver sees records in commit order.
class StandbySet::Sink final : public WalSink {
 public:
  Sink(StandbySet* owner, WalSink* inner, size_t first, size_t count)
      : owner_(owner), inner_(inner), first_(first), count_(count) {}

  void OnCommit(const WalRecord& record) override {
    if (inner_ != nullptr) inner_->OnCommit(record);
    for (size_t i = first_; i < first_ + count_; ++i) {
      owner_->chains_[i].stream->OnCommit(record);
    }
    const obs::Observability& o = owner_->obs_;
    if (o.tracer != nullptr && o.clock != nullptr) {
      o.tracer->Instant("wal-ship", "repl", obs::kTrackEngine, o.clock->Now(),
                        "\"lsn\":" + std::to_string(record.lsn));
    }
  }

 private:
  StandbySet* owner_;
  WalSink* inner_;
  size_t first_;
  size_t count_;
};

StandbySet::StandbySet(size_t count, const FaultConfig& fault)
    : fault_(fault), chains_(count) {}

StandbySet::~StandbySet() = default;

void StandbySet::Create(const DatabaseSpec& spec) {
  for (size_t i = 0; i < chains_.size(); ++i) {
    StandbyChain& chain = chains_[i];
    chain.catalog = std::make_unique<Catalog>();
    BuildCatalog(spec, /*with_indexes=*/true, chain.catalog.get());
    chain.stream = std::make_unique<WalStream>();
    chain.replica =
        std::make_unique<Replica>(chain.catalog.get(), chain.stream.get());
    if (fault_.enabled) {
      FaultConfig per_chain = fault_;
      per_chain.seed =
          fault_.seed ^ (0x9e3779b97f4a7c15ull * static_cast<uint64_t>(i + 1));
      chain.injector = std::make_unique<FaultInjector>(per_chain);
      chain.stream->SetFaultInjector(chain.injector.get());
      chain.replica->SetFaultInjector(chain.injector.get());
    }
  }
}

void StandbySet::Attach(TxnManager* manager, size_t first, size_t count) {
  sinks_.push_back(std::make_unique<Sink>(this, manager->sink(), first, count));
  manager->set_sink(sinks_.back().get());
}

Status StandbySet::BulkLoad(size_t chain, const std::string& table,
                            const std::vector<Row>& rows) {
  return BulkLoadInto(chains_[chain].catalog.get(), table, rows);
}

void StandbySet::FinishLoad() {
  for (StandbyChain& chain : chains_) {
    chain.replica->ResetTo(/*lsn=*/0, /*ts=*/1);
  }
}

void StandbySet::Reset(const std::vector<const Catalog*>& post_load) {
  for (size_t i = 0; i < chains_.size(); ++i) {
    StandbyChain& chain = chains_[i];
    chain.catalog->CopyContentsFrom(*post_load[i]);
    chain.stream->Reset();
    chain.replica->ResetTo(/*lsn=*/0, /*ts=*/1);
  }
  throttle_seconds_total_.store(0, std::memory_order_relaxed);
}

size_t StandbySet::Vacuum() {
  size_t dropped = 0;
  for (StandbyChain& chain : chains_) {
    dropped += chain.catalog->VacuumAll(chain.replica->Snapshot());
  }
  if (obs_.metrics != nullptr) {
    obs_.metrics->GetCounter(obs::kStoreVacuumedVersions)->Inc(dropped);
  }
  return dropped;
}

bool StandbySet::Step(WorkMeter* meter) {
  // One shared maintenance budget: advance the furthest-behind healthy
  // chain that has work. With one chain this is its single-threaded
  // applier.
  StandbyChain* laggard = nullptr;
  for (StandbyChain& chain : chains_) {
    if (!chain.replica->last_error().ok()) continue;  // dead standby
    if (chain.replica->Lag() == 0) continue;
    if (laggard == nullptr ||
        chain.replica->applied_lsn() < laggard->replica->applied_lsn()) {
      laggard = &chain;
    }
  }
  if (laggard == nullptr) return false;
  const Replica::StepResult result = laggard->replica->Step(meter);
  const uint64_t lsn = laggard->replica->applied_lsn();
  switch (result) {
    case Replica::StepResult::kApplied:
      if (applied_records_metric_ != nullptr) applied_records_metric_->Inc();
      return true;
    case Replica::StepResult::kDuplicateSkipped:
    case Replica::StepResult::kResendRequested:
      // Recovery work happened; the queue moved, keep pumping.
      return true;
    case Replica::StepResult::kRecovered:
      if (crash_recoveries_metric_ != nullptr) crash_recoveries_metric_->Inc();
      if (obs_.tracer != nullptr && obs_.clock != nullptr) {
        obs_.tracer->Instant("replica-recover", "repl", obs::kTrackApplier,
                             obs_.clock->Now(),
                             "\"resync_from_lsn\":" + std::to_string(lsn));
      }
      return true;
    case Replica::StepResult::kError:
      // Surface the failure in the trace; the applier parks rather than
      // spinning on a broken stream.
      if (obs_.tracer != nullptr && obs_.clock != nullptr) {
        obs_.tracer->Instant(
            "replica-error", "repl", obs::kTrackApplier, obs_.clock->Now(),
            "\"error\":\"" + laggard->replica->last_error().message() + "\"");
      }
      return false;
    case Replica::StepResult::kBackingOff:
    case Replica::StepResult::kIdle:
      // Nothing useful to do right now: idle the applier. The next
      // committed record wakes it again (and drains the backoff).
      return false;
  }
  return false;
}

size_t StandbySet::Lag() const {
  size_t lag = 0;
  for (const StandbyChain& chain : chains_) {
    lag = std::max(lag, chain.replica->Lag());
  }
  return lag;
}

size_t StandbySet::Pending() const {
  size_t pending = 0;
  for (const StandbyChain& chain : chains_) {
    if (chain.replica->last_error().ok()) pending += chain.replica->Lag();
  }
  return pending;
}

size_t StandbySet::MaxRetained() const {
  size_t depth = 0;
  for (const StandbyChain& chain : chains_) {
    depth = std::max(depth, chain.stream->RetainedRecords());
  }
  return depth;
}

uint64_t StandbySet::AppliedLsn() const {
  uint64_t min_applied = UINT64_MAX;
  for (const StandbyChain& chain : chains_) {
    min_applied = std::min(min_applied, chain.replica->applied_lsn());
  }
  return min_applied;
}

double StandbySet::Throttle(uint64_t lsn) {
  double throttle = 0;
  const size_t backlog = MaxRetained();
  if (backlog > kMaxBacklogRecords) {
    const double excess = static_cast<double>(backlog - kMaxBacklogRecords);
    throttle = std::min(kBackpressureStallCapSeconds,
                        kBackpressureStallSeconds * excess);
  }
  for (const StandbyChain& chain : chains_) {
    if (chain.injector != nullptr) {
      throttle = std::max(throttle, chain.injector->ShipDelaySeconds(lsn));
    }
  }
  if (throttle > 0) {
    throttle_seconds_total_.fetch_add(throttle, std::memory_order_relaxed);
  }
  return throttle;
}

void StandbySet::SetObservability(const obs::Observability& observability) {
  obs_ = observability;
  obs::Counter* splits = nullptr;
  if (obs_.metrics == nullptr) {
    applied_records_metric_ = nullptr;
    crash_recoveries_metric_ = nullptr;
  } else {
    applied_records_metric_ =
        obs_.metrics->GetCounter(obs::kReplAppliedRecords);
    crash_recoveries_metric_ =
        obs_.metrics->GetCounter(obs::kReplCrashRecoveries);
    obs_.metrics->GetGauge(obs::kReplBacklogRecords)->SetProbe([this] {
      return static_cast<double>(Lag());
    });
    obs_.metrics->GetGauge(obs::kReplAppliedLsn)->SetProbe([this] {
      return static_cast<double>(AppliedLsn());
    });
    obs_.metrics->GetGauge(obs::kReplRetainedRecords)->SetProbe([this] {
      return static_cast<double>(MaxRetained());
    });
    obs_.metrics->GetGauge(obs::kReplThrottleSeconds)->SetProbe([this] {
      return throttle_seconds_total_.load(std::memory_order_relaxed);
    });
    // Shipping, recovery and fault accounting, summed across chains.
    const auto sum_probe = [this](uint64_t (WalStream::*getter)() const) {
      return [this, getter] {
        double total = 0;
        for (const StandbyChain& chain : chains_) {
          total += static_cast<double>((chain.stream.get()->*getter)());
        }
        return total;
      };
    };
    obs_.metrics->GetGauge(obs::kReplShippedBytes)
        ->SetProbe(sum_probe(&WalStream::shipped_bytes));
    obs_.metrics->GetGauge(obs::kReplResendRequests)
        ->SetProbe(sum_probe(&WalStream::resends_requested));
    obs_.metrics->GetGauge(obs::kReplResendsShipped)
        ->SetProbe(sum_probe(&WalStream::resends_delivered));
    obs_.metrics->GetGauge(obs::kReplResendsLost)
        ->SetProbe(sum_probe(&WalStream::resends_lost));
    obs_.metrics->GetGauge(obs::kFaultInjectedDrops)
        ->SetProbe(sum_probe(&WalStream::injected_drops));
    obs_.metrics->GetGauge(obs::kFaultInjectedDuplicates)
        ->SetProbe(sum_probe(&WalStream::injected_duplicates));
    obs_.metrics->GetGauge(obs::kFaultInjectedReorders)
        ->SetProbe(sum_probe(&WalStream::injected_reorders));
    obs_.metrics->GetGauge(obs::kReplDuplicateSkips)->SetProbe([this] {
      double total = 0;
      for (const StandbyChain& chain : chains_) {
        total += static_cast<double>(chain.replica->duplicate_skips());
      }
      return total;
    });
    // Standby trees split during replay too; count them with the
    // primary's.
    splits = obs_.metrics->GetCounter(obs::kStoreBtreeSplits);
  }
  for (StandbyChain& chain : chains_) {
    for (IndexInfo* index : chain.catalog->AllIndexes()) {
      index->tree->set_split_counter(splits);
    }
  }
}

}  // namespace hattrick
