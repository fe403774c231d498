#include "exec/operator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <unordered_map>

#include "common/key_encoding.h"
#include "exec/op_profiler.h"

namespace hattrick {

int64_t QuantizeSumValue(double v) {
  return std::llround(v * kSumFixedPointScale);
}

namespace {

/// Boolean truth of the i-th cell of an evaluated predicate vector,
/// matching EvalBool's Value::AsInt semantics for non-int results.
bool BoolAt(const ColumnVector& v, size_t i) {
  if (v.type() == DataType::kInt64) return v.ints[i] != 0;
  return v.GetValue(i).AsInt() != 0;
}

/// Numeric value of the i-th cell, matching Value::AsDouble (int
/// promotion) for the aggregate-input path.
double DoubleAt(const ColumnVector& v, size_t i) {
  if (v.is_numeric()) return v.NumericAt(i);
  return v.GetValue(i).AsDouble();
}

class FilterOp final : public Operator {
 public:
  FilterOp(OperatorPtr child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  void Open(ExecContext* ctx) override {
    prof_.OpenBegin(ctx, "Filter");
    child_->Open(ctx);
    prof_.OpenEnd(ctx);
  }

  bool Next(ExecContext* ctx, Row* out) override {
    return prof_.Next(ctx, [&] {
      while (child_->Next(ctx, out)) {
        if (EvalBool(*predicate_, *out)) return true;
      }
      return false;
    });
  }

  bool NextBatch(ExecContext* ctx, Batch* out) override {
    return prof_.NextBatch(ctx, out, [&] {
      while (child_->NextBatch(ctx, out)) {
        predicate_->EvalBatch(*out, &pred_);
        // Refine the selection in place: keep the active rows where the
        // predicate holds. Payloads are untouched (no compaction).
        keep_.clear();
        const size_t n = out->ActiveRows();
        for (size_t k = 0; k < n; ++k) {
          const size_t i = out->ActiveIndex(k);
          if (BoolAt(pred_, i)) keep_.push_back(static_cast<uint32_t>(i));
        }
        if (keep_.empty()) continue;  // fully filtered batch: pull the next
        out->sel.idx = keep_;
        out->filtered = true;
        return true;
      }
      return false;
    });
  }

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
  ColumnVector pred_;
  std::vector<uint32_t> keep_;
  OpProfiler prof_;
};

class ProjectOp final : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs)
      : child_(std::move(child)), exprs_(std::move(exprs)) {}

  void Open(ExecContext* ctx) override {
    prof_.OpenBegin(ctx, "Project", "exprs=" + std::to_string(exprs_.size()));
    child_->Open(ctx);
    prof_.OpenEnd(ctx);
  }

  bool Next(ExecContext* ctx, Row* out) override {
    return prof_.Next(ctx, [&] {
      Row in;
      if (!child_->Next(ctx, &in)) return false;
      out->clear();
      out->reserve(exprs_.size());
      for (const ExprPtr& e : exprs_) out->push_back(e->Eval(in));
      return true;
    });
  }

  bool NextBatch(ExecContext* ctx, Batch* out) override {
    return prof_.NextBatch(ctx, out, [&] {
      if (!child_->NextBatch(ctx, &in_)) return false;
      // One kernel sweep per output expression over the whole batch; the
      // input selection carries over (expressions are pure, so values
      // computed at unselected rows are never read).
      out->cols.resize(exprs_.size());
      for (size_t i = 0; i < exprs_.size(); ++i) {
        exprs_[i]->EvalBatch(in_, &out->cols[i]);
      }
      out->rows = in_.rows;
      out->sel = in_.sel;
      out->filtered = in_.filtered;
      return true;
    });
  }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  Batch in_;
  OpProfiler prof_;
};

/// Aborts on a violation of MakeHashJoin's input contract. A mistyped
/// join must never mis-join silently, so this fires in every build type.
[[noreturn]] void JoinContractViolation(const char* what, size_t column) {
  std::fprintf(stderr, "HashJoin: %s (column %zu); see MakeHashJoin\n", what,
               column);
  std::abort();
}

/// Records an input's column types on first use, checking that column
/// `key` exists and is int64, and requires every later batch or row of
/// that input to match them.
void CheckJoinInput(std::vector<DataType>* seen,
                    const std::vector<DataType>& types, size_t key) {
  if (!seen->empty()) {
    if (types != *seen) {
      JoinContractViolation("input column types differ between batches",
                            key);
    }
    return;
  }
  if (key >= types.size()) JoinContractViolation("no such key column", key);
  if (types[key] != DataType::kInt64) {
    JoinContractViolation("join key is not an int64 column", key);
  }
  *seen = types;
}

std::vector<DataType> BatchTypes(const Batch& b) {
  std::vector<DataType> types;
  types.reserve(b.cols.size());
  for (const ColumnVector& c : b.cols) types.push_back(c.type());
  return types;
}

/// Appends src[idx[k]] for every k to dst (same type).
void GatherColumn(const ColumnVector& src, const std::vector<uint32_t>& idx,
                  ColumnVector* dst) {
  switch (src.type()) {
    case DataType::kInt64:
      for (const uint32_t i : idx) dst->ints.push_back(src.ints[i]);
      break;
    case DataType::kDouble:
      for (const uint32_t i : idx) dst->doubles.push_back(src.doubles[i]);
      break;
    case DataType::kString:
      for (const uint32_t i : idx) dst->strings.push_back(src.strings[i]);
      break;
  }
}

/// Hash equijoin over int64 keys (contract: MakeHashJoin).
///
/// Open drains the build side into column vectors, the active rows
/// compacted in drain order, and indexes them with one flat
/// open-addressing table: key -> first build row with that key, plus a
/// `next_` array chaining every build row to the next one with the same
/// key, so duplicates come out in build insertion order. NextBatch reads
/// the key column of each probe batch in place, collects
/// (probe index, build index) pairs, and gathers the output columns by
/// type; no probe row is materialized. The row-oracle Next probes the
/// same table and materializes only its output row.
///
/// Metering matches the row path: hash_probes once per build row and
/// once per probe row, output_rows once per match, each charged in the
/// NextBatch call that reaches that row (PlanProfile digests depend on
/// it).
class HashJoinOp final : public Operator {
 public:
  HashJoinOp(OperatorPtr probe, size_t probe_key, OperatorPtr build,
             size_t build_key)
      : probe_(std::move(probe)),
        build_(std::move(build)),
        probe_key_(probe_key),
        build_key_(build_key) {}

  void Open(ExecContext* ctx) override {
    prof_.OpenBegin(ctx, "HashJoin",
                    "probe_key=" + std::to_string(probe_key_) +
                        " build_key=" + std::to_string(build_key_));
    OpenImpl(ctx);
    prof_.OpenEnd(ctx);
  }

  void OpenImpl(ExecContext* ctx) {
    probe_->Open(ctx);
    build_->Open(ctx);
    if (ctx->vectorized) {
      Batch b;
      while (build_->NextBatch(ctx, &b)) {
        AppendBuildBatch(b);
        if (ctx->meter != nullptr) ctx->meter->hash_probes += b.ActiveRows();
      }
    } else {
      Row row;
      while (build_->Next(ctx, &row)) {
        AppendBuildRow(row);
        if (ctx->meter != nullptr) ++ctx->meter->hash_probes;
      }
    }
    BuildTable();
  }

  bool Next(ExecContext* ctx, Row* out) override {
    return prof_.Next(ctx, [&] {
      while (match_ == kNoRow) {
        if (!probe_->Next(ctx, &probe_row_)) return false;
        if (probe_key_ >= probe_row_.size() ||
            !probe_row_[probe_key_].is_int()) {
          JoinContractViolation("join key is not an int64 column",
                                probe_key_);
        }
        if (ctx->meter != nullptr) ++ctx->meter->hash_probes;
        match_ = Find(probe_row_[probe_key_].AsInt());
      }
      *out = probe_row_;
      for (const ColumnVector& c : build_cols_) {
        out->push_back(c.GetValue(match_));
      }
      match_ = next_[match_];
      if (ctx->meter != nullptr) ++ctx->meter->output_rows;
      return true;
    });
  }

  bool NextBatch(ExecContext* ctx, Batch* out) override {
    return prof_.NextBatch(ctx, out, [&] { return NextBatchImpl(ctx, out); });
  }

  bool NextBatchImpl(ExecContext* ctx, Batch* out) {
    out->Clear();
    uint64_t probes = 0;
    size_t pending = 0;  // output rows gathered or awaiting the gather
    while (pending < ctx->batch_rows) {
      if (match_ != kNoRow) {
        pair_probe_.push_back(probe_idx_);
        pair_build_.push_back(match_);
        match_ = next_[match_];
        ++pending;
        continue;
      }
      // Advance to the next active probe row. A spent probe batch is
      // gathered before the next one overwrites it, so output batches
      // fill across probe-batch boundaries.
      if (probe_pos_ >= probe_batch_.ActiveRows()) {
        Gather(out);
        if (!probe_->NextBatch(ctx, &probe_batch_)) break;
        CheckJoinInput(&probe_types_, BatchTypes(probe_batch_), probe_key_);
        probe_pos_ = 0;
      }
      probe_idx_ =
          static_cast<uint32_t>(probe_batch_.ActiveIndex(probe_pos_++));
      ++probes;
      match_ = Find(probe_batch_.cols[probe_key_].ints[probe_idx_]);
    }
    Gather(out);
    if (ctx->meter != nullptr) {
      ctx->meter->hash_probes += probes;
      ctx->meter->output_rows += pending;
    }
    return out->rows > 0;
  }

 private:
  static constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();

  struct Slot {
    int64_t key = 0;
    uint32_t row = kNoRow;  // first build row with `key`; kNoRow if empty
  };

  /// Checks a build batch's or row's column types; the first one types
  /// the build columns.
  void CheckBuildTypes(const std::vector<DataType>& types) {
    CheckJoinInput(&build_types_, types, build_key_);
    if (build_cols_.empty()) {
      for (const DataType t : types) build_cols_.emplace_back(t);
    }
  }

  void AppendBuildBatch(const Batch& b) {
    CheckBuildTypes(BatchTypes(b));
    if (b.filtered) {
      for (size_t j = 0; j < b.cols.size(); ++j) {
        GatherColumn(b.cols[j], b.sel.idx, &build_cols_[j]);
      }
    } else {
      for (size_t j = 0; j < b.cols.size(); ++j) {
        const ColumnVector& src = b.cols[j];
        ColumnVector& dst = build_cols_[j];
        dst.ints.insert(dst.ints.end(), src.ints.begin(), src.ints.end());
        dst.doubles.insert(dst.doubles.end(), src.doubles.begin(),
                           src.doubles.end());
        dst.strings.insert(dst.strings.end(), src.strings.begin(),
                           src.strings.end());
      }
    }
    build_rows_ += b.ActiveRows();
  }

  void AppendBuildRow(const Row& row) {
    std::vector<DataType> types;
    types.reserve(row.size());
    for (const Value& v : row) types.push_back(v.type());
    CheckBuildTypes(types);
    for (size_t j = 0; j < row.size(); ++j) build_cols_[j].PushValue(row[j]);
    ++build_rows_;
  }

  /// Indexes the drained build rows. Rows are linked in reverse so each
  /// key's chain runs in insertion order.
  void BuildTable() {
    if (build_rows_ >= kNoRow) {
      JoinContractViolation("build side exceeds 2^32-1 rows", build_key_);
    }
    size_t capacity = 16;
    while (capacity < 2 * build_rows_) capacity *= 2;
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    next_.assign(build_rows_, kNoRow);
    if (build_rows_ == 0) return;
    const std::vector<int64_t>& keys = build_cols_[build_key_].ints;
    for (size_t r = build_rows_; r-- > 0;) {
      Slot& slot = slots_[SlotOf(keys[r])];
      if (slot.row == kNoRow) slot.key = keys[r];
      next_[r] = slot.row;
      slot.row = static_cast<uint32_t>(r);
    }
  }

  /// Index of the slot holding `key`, or of the empty slot ending its
  /// probe sequence (linear probing; the table is at most half full).
  size_t SlotOf(int64_t key) const {
    size_t i = static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
    while (slots_[i].row != kNoRow && slots_[i].key != key) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  /// First build row with `key`, or kNoRow.
  uint32_t Find(int64_t key) const { return slots_[SlotOf(key)].row; }

  /// Appends the collected pairs' output rows to `out` and clears them.
  void Gather(Batch* out) {
    if (pair_build_.empty()) return;
    const size_t np = probe_batch_.cols.size();
    if (out->rows == 0) {
      out->cols.resize(np + build_cols_.size());
      for (size_t j = 0; j < np; ++j) {
        out->cols[j].Reset(probe_batch_.cols[j].type());
      }
      for (size_t j = 0; j < build_cols_.size(); ++j) {
        out->cols[np + j].Reset(build_cols_[j].type());
      }
    }
    for (size_t j = 0; j < np; ++j) {
      GatherColumn(probe_batch_.cols[j], pair_probe_, &out->cols[j]);
    }
    for (size_t j = 0; j < build_cols_.size(); ++j) {
      GatherColumn(build_cols_[j], pair_build_, &out->cols[np + j]);
    }
    out->rows += pair_build_.size();
    pair_probe_.clear();
    pair_build_.clear();
  }

  OperatorPtr probe_;
  OperatorPtr build_;
  size_t probe_key_;
  size_t build_key_;
  // Build side: compacted column vectors plus the key table.
  std::vector<ColumnVector> build_cols_;
  size_t build_rows_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> next_;  // next build row with the same key
  size_t mask_ = 0;
  int shift_ = 64;
  // First-seen column types of each input (contract checks).
  std::vector<DataType> build_types_;
  std::vector<DataType> probe_types_;
  // Probe cursor: the next build row matching the current probe row.
  uint32_t match_ = kNoRow;
  Row probe_row_;  // row path
  Batch probe_batch_;
  size_t probe_pos_ = 0;
  uint32_t probe_idx_ = 0;
  std::vector<uint32_t> pair_probe_;
  std::vector<uint32_t> pair_build_;
  OpProfiler prof_;
};

class HashAggregateOp final : public Operator {
 public:
  HashAggregateOp(OperatorPtr child, std::vector<ExprPtr> group_by,
                  std::vector<AggSpec> aggregates, bool partial)
      : child_(std::move(child)),
        group_by_(std::move(group_by)),
        aggregates_(std::move(aggregates)),
        partial_(partial) {}

  void Open(ExecContext* ctx) override {
    prof_.OpenBegin(ctx, partial_ ? "PartialHashAggregate" : "HashAggregate",
                    "groups=" + std::to_string(group_by_.size()) +
                        " aggs=" + std::to_string(aggregates_.size()));
    OpenImpl(ctx);
    prof_.OpenEnd(ctx);
  }

  void OpenImpl(ExecContext* ctx) {
    child_->Open(ctx);
    std::unordered_map<std::string, State> groups;
    if (ctx->vectorized) {
      DrainBatches(ctx, &groups);
    } else {
      DrainRows(ctx, &groups);
    }
    // Global aggregate with no input rows still emits one (zero) row —
    // except in partial mode, where the merge operator owns that row.
    if (group_by_.empty() && groups.empty() && !partial_) {
      State zero;
      zero.accum.assign(aggregates_.size(), 0.0);
      zero.exact.assign(aggregates_.size(), 0);
      groups.emplace(std::string(), std::move(zero));
    }
    // Deterministic output order: sort by encoded key.
    output_.reserve(groups.size());
    std::vector<std::pair<std::string, State>> sorted(
        std::make_move_iterator(groups.begin()),
        std::make_move_iterator(groups.end()));
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [key, state] : sorted) {
      Row out = std::move(state.key_values);
      for (size_t i = 0; i < aggregates_.size(); ++i) {
        switch (aggregates_[i].kind) {
          case AggSpec::Kind::kSum:
            out.emplace_back(static_cast<double>(state.exact[i]) /
                             kSumFixedPointScale);
            break;
          case AggSpec::Kind::kCount:
            out.emplace_back(static_cast<double>(state.exact[i]));
            break;
          default:
            out.emplace_back(state.accum[i]);
        }
      }
      output_.push_back(std::move(out));
    }
  }

  bool Next(ExecContext* ctx, Row* out) override {
    return prof_.Next(ctx, [&] {
      if (pos_ >= output_.size()) return false;
      *out = std::move(output_[pos_++]);
      if (ctx->meter != nullptr) ++ctx->meter->output_rows;
      return true;
    });
  }

  bool NextBatch(ExecContext* ctx, Batch* out) override {
    return prof_.NextBatch(ctx, out, [&] {
      out->Clear();
      while (pos_ < output_.size() && out->rows < ctx->batch_rows) {
        if (!out->TypesMatch(output_[pos_])) break;
        out->AppendRow(output_[pos_++]);
      }
      if (ctx->meter != nullptr) ctx->meter->output_rows += out->rows;
      return out->rows > 0;
    });
  }

 private:
  struct State {
    Row key_values;
    std::vector<double> accum;    // min/max
    std::vector<int64_t> exact;   // sum (fixed-point) and count
  };

  void DrainRows(ExecContext* ctx,
                 std::unordered_map<std::string, State>* groups) {
    Row row;
    while (child_->Next(ctx, &row)) {
      std::string key;
      Row key_values;
      key_values.reserve(group_by_.size());
      for (const ExprPtr& e : group_by_) {
        Value v = e->Eval(row);
        key::EncodeValue(v, &key);
        key_values.push_back(std::move(v));
      }
      State& state = Accumulate(ctx, groups, std::move(key),
                                std::move(key_values));
      for (size_t i = 0; i < aggregates_.size(); ++i) {
        const AggSpec& agg = aggregates_[i];
        switch (agg.kind) {
          case AggSpec::Kind::kSum:
            // Fixed-point: exactly associative, so partial aggregates
            // merge bit-identically to a serial sum (see operator.h).
            state.exact[i] += QuantizeSumValue(agg.arg->Eval(row).AsDouble());
            break;
          case AggSpec::Kind::kCount:
            state.exact[i] += 1;
            break;
          case AggSpec::Kind::kMin:
            state.accum[i] =
                std::min(state.accum[i], agg.arg->Eval(row).AsDouble());
            break;
          case AggSpec::Kind::kMax:
            state.accum[i] =
                std::max(state.accum[i], agg.arg->Eval(row).AsDouble());
            break;
        }
      }
    }
  }

  void DrainBatches(ExecContext* ctx,
                    std::unordered_map<std::string, State>* groups) {
    Batch b;
    std::vector<ColumnVector> keys(group_by_.size());
    std::vector<ColumnVector> args(aggregates_.size());
    while (child_->NextBatch(ctx, &b)) {
      // One kernel sweep per group-by / aggregate-input expression, then
      // a per-active-row accumulation pass over the evaluated vectors.
      for (size_t j = 0; j < group_by_.size(); ++j) {
        group_by_[j]->EvalBatch(b, &keys[j]);
      }
      for (size_t i = 0; i < aggregates_.size(); ++i) {
        if (aggregates_[i].kind != AggSpec::Kind::kCount) {
          aggregates_[i].arg->EvalBatch(b, &args[i]);
        }
      }
      const size_t n = b.ActiveRows();
      for (size_t k = 0; k < n; ++k) {
        const size_t r = b.ActiveIndex(k);
        std::string key;
        Row key_values;
        key_values.reserve(group_by_.size());
        for (size_t j = 0; j < group_by_.size(); ++j) {
          Value v = keys[j].GetValue(r);
          key::EncodeValue(v, &key);
          key_values.push_back(std::move(v));
        }
        State& state = Accumulate(ctx, groups, std::move(key),
                                  std::move(key_values));
        for (size_t i = 0; i < aggregates_.size(); ++i) {
          switch (aggregates_[i].kind) {
            case AggSpec::Kind::kSum:
              state.exact[i] += QuantizeSumValue(DoubleAt(args[i], r));
              break;
            case AggSpec::Kind::kCount:
              state.exact[i] += 1;
              break;
            case AggSpec::Kind::kMin:
              state.accum[i] = std::min(state.accum[i], DoubleAt(args[i], r));
              break;
            case AggSpec::Kind::kMax:
              state.accum[i] = std::max(state.accum[i], DoubleAt(args[i], r));
              break;
          }
        }
      }
    }
  }

  /// Looks up (inserting if needed) the group for `key`, charging the
  /// hash probe exactly as the row path does.
  State& Accumulate(ExecContext* ctx,
                    std::unordered_map<std::string, State>* groups,
                    std::string key, Row key_values) {
    auto [it, inserted] = groups->emplace(std::move(key), State{});
    if (ctx->meter != nullptr) ++ctx->meter->hash_probes;
    State& state = it->second;
    if (inserted) {
      state.key_values = std::move(key_values);
      state.accum.resize(aggregates_.size());
      state.exact.resize(aggregates_.size(), 0);
      for (size_t i = 0; i < aggregates_.size(); ++i) {
        switch (aggregates_[i].kind) {
          case AggSpec::Kind::kMin:
            state.accum[i] = std::numeric_limits<double>::infinity();
            break;
          case AggSpec::Kind::kMax:
            state.accum[i] = -std::numeric_limits<double>::infinity();
            break;
          default:
            state.accum[i] = 0;
        }
      }
    }
    return state;
  }

  OperatorPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<AggSpec> aggregates_;
  bool partial_;
  std::vector<Row> output_;
  size_t pos_ = 0;
  OpProfiler prof_;
};

class OrderByOp final : public Operator {
 public:
  OrderByOp(OperatorPtr child, std::vector<SortKey> keys)
      : child_(std::move(child)), keys_(std::move(keys)) {}

  void Open(ExecContext* ctx) override {
    prof_.OpenBegin(ctx, "OrderBy", "keys=" + std::to_string(keys_.size()));
    child_->Open(ctx);
    if (ctx->vectorized) {
      Batch b;
      while (child_->NextBatch(ctx, &b)) b.AppendActiveRows(&rows_);
    } else {
      Row row;
      while (child_->Next(ctx, &row)) rows_.push_back(std::move(row));
    }
    std::sort(rows_.begin(), rows_.end(), [&](const Row& a, const Row& b) {
      for (const SortKey& k : keys_) {
        const int c = k.expr->Eval(a).Compare(k.expr->Eval(b));
        if (c != 0) return k.ascending ? c < 0 : c > 0;
      }
      return false;
    });
    prof_.OpenEnd(ctx);
  }

  bool Next(ExecContext* ctx, Row* out) override {
    return prof_.Next(ctx, [&] {
      if (pos_ >= rows_.size()) return false;
      *out = std::move(rows_[pos_++]);
      return true;
    });
  }

  bool NextBatch(ExecContext* ctx, Batch* out) override {
    return prof_.NextBatch(ctx, out, [&] {
      out->Clear();
      while (pos_ < rows_.size() && out->rows < ctx->batch_rows) {
        if (!out->TypesMatch(rows_[pos_])) break;
        out->AppendRow(rows_[pos_++]);
      }
      return out->rows > 0;
    });
  }

 private:
  OperatorPtr child_;
  std::vector<SortKey> keys_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
  OpProfiler prof_;
};

class ValuesScanOp final : public Operator {
 public:
  explicit ValuesScanOp(std::vector<Row> rows) : rows_(std::move(rows)) {}

  void Open(ExecContext* ctx) override {
    prof_.OpenBegin(ctx, "ValuesScan",
                    "rows=" + std::to_string(rows_.size()));
    pos_ = 0;
    prof_.OpenEnd(ctx);
  }

  bool Next(ExecContext* ctx, Row* out) override {
    return prof_.Next(ctx, [&] {
      if (pos_ >= rows_.size()) return false;
      *out = rows_[pos_++];
      return true;
    });
  }

  bool NextBatch(ExecContext* ctx, Batch* out) override {
    return prof_.NextBatch(ctx, out, [&] {
      out->Clear();
      while (pos_ < rows_.size() && out->rows < ctx->batch_rows) {
        if (!out->TypesMatch(rows_[pos_])) break;
        out->AppendRow(rows_[pos_++]);
      }
      return out->rows > 0;
    });
  }

 private:
  std::vector<Row> rows_;
  size_t pos_ = 0;
  OpProfiler prof_;
};

}  // namespace

OperatorPtr MakeFilter(OperatorPtr child, ExprPtr predicate) {
  return std::make_unique<FilterOp>(std::move(child), std::move(predicate));
}

OperatorPtr MakeProject(OperatorPtr child, std::vector<ExprPtr> exprs) {
  return std::make_unique<ProjectOp>(std::move(child), std::move(exprs));
}

OperatorPtr MakeHashJoin(OperatorPtr probe, size_t probe_key,
                         OperatorPtr build, size_t build_key) {
  return std::make_unique<HashJoinOp>(std::move(probe), probe_key,
                                      std::move(build), build_key);
}

OperatorPtr MakeHashAggregate(OperatorPtr child, std::vector<ExprPtr> group_by,
                              std::vector<AggSpec> aggregates) {
  return std::make_unique<HashAggregateOp>(std::move(child),
                                           std::move(group_by),
                                           std::move(aggregates),
                                           /*partial=*/false);
}

OperatorPtr MakePartialHashAggregate(OperatorPtr child,
                                     std::vector<ExprPtr> group_by,
                                     std::vector<AggSpec> aggregates) {
  return std::make_unique<HashAggregateOp>(std::move(child),
                                           std::move(group_by),
                                           std::move(aggregates),
                                           /*partial=*/true);
}

OperatorPtr MakeOrderBy(OperatorPtr child, std::vector<SortKey> keys) {
  return std::make_unique<OrderByOp>(std::move(child), std::move(keys));
}

OperatorPtr MakeValuesScan(std::vector<Row> rows) {
  return std::make_unique<ValuesScanOp>(std::move(rows));
}

std::vector<Row> Collect(Operator* op, ExecContext* ctx) {
  std::vector<Row> out;
  op->Open(ctx);
  if (ctx->vectorized) {
    Batch b;
    while (op->NextBatch(ctx, &b)) b.AppendActiveRows(&out);
  } else {
    Row row;
    while (op->Next(ctx, &row)) out.push_back(row);
  }
  return out;
}

std::vector<Batch> CollectBatches(Operator* op, ExecContext* ctx) {
  std::vector<Batch> out;
  op->Open(ctx);
  Batch b;
  while (op->NextBatch(ctx, &b)) {
    out.push_back(std::move(b));
    b = Batch();
  }
  return out;
}

}  // namespace hattrick
