#include "replication/replica.h"

#include <algorithm>
#include <string>

namespace hattrick {

Replica::Replica(Catalog* catalog, WalStream* stream)
    : catalog_(catalog), stream_(stream) {}

void Replica::SetFaultInjector(const FaultInjector* injector) {
  injector_ = (injector != nullptr && injector->enabled()) ? injector
                                                           : nullptr;
}

Replica::StepResult Replica::Step(WorkMeter* meter) {
  ++steps_;

  // Injected crash: lose all volatile state, restart from the durable
  // apply position. Only meaningful while there is replay work — a
  // crashed-while-idle standby restarts into the same idle state.
  if (injector_ != nullptr && stream_->PendingAfter(applied_lsn_) > 0 &&
      injector_->CrashBeforeApply(steps_)) {
    Resync(meter);
    return StepResult::kRecovered;
  }

  if (backoff_remaining_ > 0) {
    --backoff_remaining_;
    ++backoff_steps_;
    return StepResult::kBackingOff;
  }

  StatusOr<ShippedRecord> shipped = stream_->Peek(applied_lsn_);
  if (!shipped.ok()) {
    if (shipped.status().code() == StatusCode::kNotFound) {
      // Fully caught up; any pending-gap bookkeeping is stale.
      waiting_lsn_ = 0;
      resend_attempts_ = 0;
      return StepResult::kIdle;
    }
    if (shipped.status().code() == StatusCode::kOutOfRange) {
      // Gap: the record after applied_lsn_ was lost in flight.
      const uint64_t missing = applied_lsn_ + 1;
      if (waiting_lsn_ != missing) {
        waiting_lsn_ = missing;
        resend_attempts_ = 0;
      }
      ++resend_attempts_;
      if (resend_attempts_ > kMaxResendAttempts) {
        // Record-by-record retry is not making progress (every resend
        // lost); escalate to a full tail resync, which is reliable.
        Resync(meter);
        return StepResult::kRecovered;
      }
      ++resend_requests_;
      const Status resent =
          stream_->RequestResend(missing, resend_attempts_);
      if (!resent.ok()) {
        last_error_ = resent;
        return StepResult::kError;
      }
      backoff_remaining_ = std::min(
          kMaxBackoffSteps, 1u << std::min(resend_attempts_ - 1, 7u));
      return StepResult::kResendRequested;
    }
    last_error_ = shipped.status();
    return StepResult::kError;
  }

  const uint64_t lsn = shipped->record.lsn;
  if (lsn <= applied_lsn_) {
    // Duplicate delivery: already durably applied; consume idempotently.
    const Status consumed = stream_->Consume(lsn);
    if (!consumed.ok()) {
      last_error_ = consumed;
      return StepResult::kError;
    }
    ++duplicate_skips_;
    return StepResult::kDuplicateSkipped;
  }

  const Status applied = ApplyRecord(shipped.value(), meter);
  if (!applied.ok()) {
    last_error_ = applied;
    return StepResult::kError;
  }
  const Status consumed = stream_->Consume(lsn);
  if (!consumed.ok()) {
    last_error_ = consumed;
    return StepResult::kError;
  }
  applied_lsn_.store(lsn, std::memory_order_release);
  stream_->Acknowledge(lsn);
  waiting_lsn_ = 0;
  resend_attempts_ = 0;
  return StepResult::kApplied;
}

bool Replica::ApplyNext(WorkMeter* meter) {
  while (true) {
    switch (Step(meter)) {
      case StepResult::kApplied:
        return true;
      case StepResult::kIdle:
      case StepResult::kError:
        return false;
      case StepResult::kDuplicateSkipped:
      case StepResult::kResendRequested:
      case StepResult::kBackingOff:
      case StepResult::kRecovered:
        continue;  // recovery in progress; keep stepping
    }
  }
}

size_t Replica::CatchUp(WorkMeter* meter) {
  size_t applied = 0;
  while (ApplyNext(meter)) ++applied;
  return applied;
}

Status Replica::ApplyRecord(const ShippedRecord& shipped, WorkMeter* meter) {
  const WalRecord& record = shipped.record;
  if (record.lsn != applied_lsn_ + 1) {
    return Status::Internal("apply out of order: got lsn " +
                            std::to_string(record.lsn) + " at applied " +
                            std::to_string(applied_lsn_.load()));
  }
  const Ts commit_ts = oracle_.Allocate();
  for (const WalOp& op : record.ops) {
    RowTable* table = catalog_->GetTable(op.table_id);
    if (table == nullptr) {
      return Status::Internal("replay references unknown table id " +
                              std::to_string(op.table_id));
    }
    // Exhaustive over WalOp::Kind: a new kind must be handled here
    // explicitly, not silently replayed as an update (the previous
    // if/else chain's fallback). WalRecord::Decode rejects out-of-range
    // kind bytes before they reach this switch.
    switch (op.kind) {
      case WalOp::Kind::kInsert: {
        const Rid rid = table->Insert(op.row, commit_ts, meter);
        if (rid != op.rid) {
          return Status::Internal("replica diverged from primary: insert "
                                  "landed at rid " +
                                  std::to_string(rid) + ", expected " +
                                  std::to_string(op.rid));
        }
        for (const IndexInfo* index : catalog_->TableIndexes(op.table_id)) {
          index->tree->Insert(index->KeyFor(op.row, op.rid), op.rid, meter);
        }
        break;
      }
      case WalOp::Kind::kDelta: {
        // Commutative increment: fold it as a delta version, exactly as
        // the primary's row store holds it. No index ever keys on a
        // delta-eligible (numeric accumulator) column, so there is no
        // index maintenance on this path.
        HATTRICK_RETURN_IF_ERROR(table->AddDeltaVersion(
            op.rid, op.column, op.row[0], commit_ts, meter));
        break;
      }
      case WalOp::Kind::kUpdate: {
        Row old_row;
        const bool had =
            table->ReadLatest(op.rid, &old_row, /*meter=*/nullptr);
        HATTRICK_RETURN_IF_ERROR(
            table->AddVersion(op.rid, op.row, commit_ts, meter));
        for (const IndexInfo* index : catalog_->TableIndexes(op.table_id)) {
          const std::string new_key = index->KeyFor(op.row, op.rid);
          if (had) {
            const std::string old_key = index->KeyFor(old_row, op.rid);
            if (new_key == old_key) continue;
            // Key-changing update: drop the stale entry or standby-side
            // index lookups keep resolving the old key.
            index->tree->Remove(old_key, meter);
          }
          index->tree->Insert(new_key, op.rid, meter);
        }
        break;
      }
    }
  }
  if (meter != nullptr) {
    ++meter->wal_records;
    // Replay work is metered from the wire size carried with the record;
    // the apply path never re-encodes.
    meter->wal_bytes += shipped.encoded_size;
    if (injector_ != nullptr) {
      const double multiplier = injector_->SlowApplyMultiplier(record.lsn);
      if (multiplier > 1.0) {
        meter->wal_bytes += static_cast<uint64_t>(
            static_cast<double>(shipped.encoded_size) * (multiplier - 1.0));
      }
    }
  }
  oracle_.AdvanceCommitted(commit_ts);
  return Status::OK();
}

void Replica::Resync(WorkMeter* meter) {
  ++crash_recoveries_;
  waiting_lsn_ = 0;
  resend_attempts_ = 0;
  backoff_remaining_ = 0;
  const size_t redelivered = stream_->ResyncFrom(applied_lsn_);
  // The reconnect re-ships the tail; charge its framing so recovery has
  // a cost in simulated time (per-record payload is charged on apply).
  if (meter != nullptr) meter->wal_bytes += redelivered;
}

void Replica::ResetTo(uint64_t lsn, Ts ts) {
  applied_lsn_ = lsn;
  oracle_.ResetTo(ts);
  waiting_lsn_ = 0;
  resend_attempts_ = 0;
  backoff_remaining_ = 0;
  steps_ = 0;
  duplicate_skips_ = 0;
  resend_requests_ = 0;
  backoff_steps_ = 0;
  crash_recoveries_ = 0;
  last_error_ = Status::OK();
}

}  // namespace hattrick
