#ifndef HATTRICK_EXEC_BATCH_H_
#define HATTRICK_EXEC_BATCH_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"

namespace hattrick {

/// Rows per column-vector batch in vectorized execution. Matches the
/// column store's zone-map block size so a full batch never straddles a
/// pruning boundary. Overridable per query via ExecContext::batch_rows.
inline constexpr size_t kDefaultBatchRows = 1024;

/// A typed column of values — one column of a Batch. Exactly one of the
/// payload vectors is populated, per `type`. Vectors are flat typed
/// storage, so expression kernels run tight loops over them instead of
/// paying a std::variant dispatch per cell (common/value.h).
class ColumnVector {
 public:
  ColumnVector() = default;
  explicit ColumnVector(DataType t) : type_(t) {}

  DataType type() const { return type_; }

  size_t size() const {
    switch (type_) {
      case DataType::kInt64:
        return ints.size();
      case DataType::kDouble:
        return doubles.size();
      case DataType::kString:
        return strings.size();
    }
    return 0;
  }

  /// Drops all values and retypes the vector.
  void Reset(DataType t) {
    type_ = t;
    ints.clear();
    doubles.clear();
    strings.clear();
  }

  /// Appends a dynamically typed value; must match the vector's type.
  void PushValue(const Value& v) {
    assert(v.type() == type_ && "type-skewed column vector");
    switch (type_) {
      case DataType::kInt64:
        ints.push_back(v.AsInt());
        break;
      case DataType::kDouble:
        doubles.push_back(v.AsDouble());
        break;
      case DataType::kString:
        strings.push_back(v.AsString());
        break;
    }
  }

  /// Materializes cell `i` as a dynamically typed value.
  Value GetValue(size_t i) const {
    switch (type_) {
      case DataType::kInt64:
        return Value(ints[i]);
      case DataType::kDouble:
        return Value(doubles[i]);
      case DataType::kString:
        return Value(strings[i]);
    }
    return Value();
  }

  bool is_numeric() const { return type_ != DataType::kString; }

  /// Numeric cell with int -> double promotion (Value::AsDouble).
  double NumericAt(size_t i) const {
    return type_ == DataType::kInt64 ? static_cast<double>(ints[i])
                                     : doubles[i];
  }

  /// Typed payloads. Public by design: kernels and scans read/fill them
  /// directly (this is the batch analogue of Row's public cells).
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strings;

 private:
  DataType type_ = DataType::kInt64;
};

/// Selection vector: indices of the rows of a batch that are logically
/// present, in ascending order. A filter refines the selection instead of
/// compacting the column payloads, so a chain of predicates touches the
/// data once.
struct SelVector {
  std::vector<uint32_t> idx;
};

/// A column-vector batch: `rows` physical rows across `cols` typed
/// vectors, plus an optional selection. When `filtered` is false all
/// physical rows are active and `sel` is ignored; when true only the rows
/// listed in `sel.idx` are active. Operators that rebuild payloads
/// (scans, joins, projections of compacted inputs) emit unfiltered
/// batches; FilterOp emits filtered ones.
struct Batch {
  size_t rows = 0;
  std::vector<ColumnVector> cols;
  SelVector sel;
  bool filtered = false;

  size_t num_cols() const { return cols.size(); }

  /// Number of active (selected) rows.
  size_t ActiveRows() const { return filtered ? sel.idx.size() : rows; }

  /// Physical index of the k-th active row.
  size_t ActiveIndex(size_t k) const {
    return filtered ? sel.idx[k] : k;
  }

  /// Drops all rows, keeping column types.
  void Clear() {
    rows = 0;
    filtered = false;
    sel.idx.clear();
    for (ColumnVector& c : cols) c.Reset(c.type());
  }

  /// Retypes to `types` and drops all rows.
  void ResetTypes(const std::vector<DataType>& types) {
    cols.resize(types.size());
    for (size_t i = 0; i < types.size(); ++i) cols[i].Reset(types[i]);
    rows = 0;
    filtered = false;
    sel.idx.clear();
  }

  /// True when `row`'s cell types match this batch's column types.
  /// Always true for an empty batch (AppendRow re-infers types then).
  /// Operators that batch materialized rows (values scans, aggregation
  /// output) use this to cut a batch early at a type skew —
  /// heterogeneously typed inputs (values scans in tests) stay correct,
  /// just in shorter batches.
  bool TypesMatch(const Row& row) const {
    if (rows == 0) return true;
    if (cols.size() != row.size()) return false;
    for (size_t i = 0; i < row.size(); ++i) {
      if (cols[i].type() != row[i].type()) return false;
    }
    return true;
  }

  /// Appends one row of dynamically typed cells; on the first row of an
  /// untyped batch the column types are inferred from the cells.
  void AppendRow(const Row& row) {
    if (cols.size() != row.size() || rows == 0) {
      if (rows == 0) {
        cols.resize(row.size());
        for (size_t i = 0; i < row.size(); ++i) cols[i].Reset(row[i].type());
      }
    }
    assert(cols.size() == row.size());
    for (size_t i = 0; i < row.size(); ++i) cols[i].PushValue(row[i]);
    ++rows;
  }

  /// Materializes physical row `i` (all columns).
  void MaterializeRow(size_t i, Row* out) const {
    out->clear();
    out->reserve(cols.size());
    for (const ColumnVector& c : cols) out->push_back(c.GetValue(i));
  }

  /// Appends every active row to `out` as materialized Rows.
  void AppendActiveRows(std::vector<Row>* out) const {
    const size_t n = ActiveRows();
    Row row;
    for (size_t k = 0; k < n; ++k) {
      MaterializeRow(ActiveIndex(k), &row);
      out->push_back(row);
    }
  }
};

}  // namespace hattrick

#endif  // HATTRICK_EXEC_BATCH_H_
