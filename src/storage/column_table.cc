#include "storage/column_table.h"

#include <algorithm>
#include <cassert>

#include "txn/mvcc.h"

namespace hattrick {

ColumnTable::ColumnTable(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.num_columns());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].type = schema_.column(i).type;
  }
}

Status ColumnTable::Append(const Row& row, WorkMeter* meter) {
  SharedMutexLock lock(&latch_);
  HATTRICK_RETURN_IF_ERROR(schema_.ValidateRow(row));
  const size_t block = num_rows_ / kBlockRows;
  for (size_t i = 0; i < columns_.size(); ++i) {
    Column& col = columns_[i];
    double numeric = 0;
    switch (col.type) {
      case DataType::kInt64:
        col.ints.push_back(row[i].AsInt());
        numeric = static_cast<double>(row[i].AsInt());
        break;
      case DataType::kDouble:
        col.doubles.push_back(row[i].AsDouble());
        numeric = row[i].AsDouble();
        break;
      case DataType::kString: {
        const std::string& s = row[i].AsString();
        auto [it, inserted] =
            col.dict_index.emplace(s, static_cast<uint32_t>(col.dict.size()));
        if (inserted) col.dict.push_back(s);
        col.codes.push_back(it->second);
        break;
      }
    }
    if (col.type != DataType::kString) {
      if (block >= col.block_min.size()) {
        col.block_min.push_back(numeric);
        col.block_max.push_back(numeric);
      } else {
        col.block_min[block] = std::min(col.block_min[block], numeric);
        col.block_max[block] = std::max(col.block_max[block], numeric);
      }
    }
  }
  ++num_rows_;
  if (meter != nullptr) {
    ++meter->rows_written;
    meter->column_values += columns_.size();
  }
  return Status::OK();
}

size_t ColumnTable::num_rows() const {
  SharedReaderLock lock(&latch_);
  return num_rows_;
}

int64_t ColumnTable::GetInt(size_t col, size_t row) const {
  return columns_[col].ints[row];
}

double ColumnTable::GetDouble(size_t col, size_t row) const {
  const Column& c = columns_[col];
  return c.type == DataType::kInt64 ? static_cast<double>(c.ints[row])
                                    : c.doubles[row];
}

const std::string& ColumnTable::GetString(size_t col, size_t row) const {
  const Column& c = columns_[col];
  return c.dict[c.codes[row]];
}

uint32_t ColumnTable::GetStringCode(size_t col, size_t row) const {
  return columns_[col].codes[row];
}

int64_t ColumnTable::FindStringCode(size_t col, const std::string& s) const {
  const Column& c = columns_[col];
  const auto it = c.dict_index.find(s);
  return it == c.dict_index.end() ? -1 : static_cast<int64_t>(it->second);
}

size_t ColumnTable::DictionarySize(size_t col) const {
  return columns_[col].dict.size();
}

const int64_t* ColumnTable::IntData(size_t col) const {
  return columns_[col].ints.data();
}

const double* ColumnTable::DoubleData(size_t col) const {
  return columns_[col].doubles.data();
}

const uint32_t* ColumnTable::CodeData(size_t col) const {
  return columns_[col].codes.data();
}

const std::string& ColumnTable::DictEntry(size_t col, uint32_t code) const {
  return columns_[col].dict[code];
}

Row ColumnTable::GetRow(size_t row) const {
  Row out;
  out.reserve(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    switch (columns_[i].type) {
      case DataType::kInt64:
        out.emplace_back(GetInt(i, row));
        break;
      case DataType::kDouble:
        out.emplace_back(GetDouble(i, row));
        break;
      case DataType::kString:
        out.emplace_back(GetString(i, row));
        break;
    }
  }
  return out;
}

bool ColumnTable::BlockMinMax(size_t col, size_t block, double* min,
                              double* max) const {
  const Column& c = columns_[col];
  if (c.type == DataType::kString) return false;
  assert(block < c.block_min.size());
  *min = c.block_min[block];
  *max = c.block_max[block];
  return true;
}

Status ColumnTable::UpdateRow(size_t row, const Row& values,
                              WorkMeter* meter) {
  SharedMutexLock lock(&latch_);
  if (row >= num_rows_) return Status::OutOfRange("row beyond table");
  HATTRICK_RETURN_IF_ERROR(schema_.ValidateRow(values));
  const size_t block = row / kBlockRows;
  for (size_t i = 0; i < columns_.size(); ++i) {
    Column& col = columns_[i];
    switch (col.type) {
      case DataType::kInt64:
        col.ints[row] = values[i].AsInt();
        break;
      case DataType::kDouble:
        col.doubles[row] = values[i].AsDouble();
        break;
      case DataType::kString: {
        const std::string& s = values[i].AsString();
        auto [it, inserted] =
            col.dict_index.emplace(s, static_cast<uint32_t>(col.dict.size()));
        if (inserted) col.dict.push_back(s);
        col.codes[row] = it->second;
        break;
      }
    }
    if (col.type != DataType::kString) {
      const double v = values[i].AsDouble();
      col.block_min[block] = std::min(col.block_min[block], v);
      col.block_max[block] = std::max(col.block_max[block], v);
    }
  }
  if (meter != nullptr) {
    ++meter->rows_written;
    meter->column_values += columns_.size();
  }
  return Status::OK();
}

Status ColumnTable::ApplyDelta(size_t row, size_t column,
                               const Value& increment, WorkMeter* meter) {
  SharedMutexLock lock(&latch_);
  if (row >= num_rows_) return Status::OutOfRange("row beyond table");
  if (column >= columns_.size()) {
    return Status::OutOfRange("column beyond schema");
  }
  Column& col = columns_[column];
  const size_t block = row / kBlockRows;
  double widened = 0;
  switch (col.type) {
    case DataType::kInt64:
      col.ints[row] += increment.AsInt();
      widened = static_cast<double>(col.ints[row]);
      break;
    case DataType::kDouble:
      col.doubles[row] += increment.AsDouble();
      widened = col.doubles[row];
      break;
    case DataType::kString:
      return Status::InvalidArgument("delta on a string column");
  }
  col.block_min[block] = std::min(col.block_min[block], widened);
  col.block_max[block] = std::max(col.block_max[block], widened);
  if (meter != nullptr) {
    ++meter->rows_written;
    ++meter->column_values;  // one cell touched, not a full after-image
  }
  return Status::OK();
}

void ColumnTable::AppendVersion(uint64_t csn, size_t rid, const Row& row) {
  SharedMutexLock lock(&delta_mu_);
  assert((delta_log_.empty() || delta_log_.back().csn <= csn) &&
         "version log must stay CSN-ascending (append from commit order)");
  assert(rid == num_rows() + pending_inserts_.size() &&
         "insert version out of sync with the row store's rid space");
  delta_log_.push_back(VersionOp{VersionOp::Kind::kInsert, csn, rid, row});
  pending_inserts_.push_back(&delta_log_.back());
}

void ColumnTable::UpdateVersion(uint64_t csn, size_t rid, const Row& row) {
  SharedMutexLock lock(&delta_mu_);
  assert((delta_log_.empty() || delta_log_.back().csn <= csn) &&
         "version log must stay CSN-ascending (append from commit order)");
  delta_log_.push_back(VersionOp{VersionOp::Kind::kUpdate, csn, rid, row});
  newest_update_[rid] = &delta_log_.back();
}

void ColumnTable::AppendDeltaVersion(uint64_t csn, size_t rid, size_t column,
                                     const Value& increment) {
  SharedMutexLock lock(&delta_mu_);
  assert((delta_log_.empty() || delta_log_.back().csn <= csn) &&
         "version log must stay CSN-ascending (append from commit order)");
  // Materialize the increment against the newest version of the row:
  // its newest pending update, else its pending insert, else the base
  // cell values. Because the commit tail appends in CSN order, nothing
  // can slip between that base and this version.
  Row materialized;
  const size_t base_rows = num_rows();
  const auto newest = newest_update_.find(rid);
  if (newest != newest_update_.end()) {
    materialized = newest->second->row;
  } else if (rid >= base_rows) {
    assert(rid - base_rows < pending_inserts_.size() &&
           "delta targets a row the column copy lacks");
    materialized = pending_inserts_[rid - base_rows]->row;
  } else {
    materialized = GetRow(rid);
  }
  assert(column < materialized.size());
  mvcc::ApplyDeltaValue(&materialized[column], increment);
  delta_log_.push_back(
      VersionOp{VersionOp::Kind::kUpdate, csn, rid, std::move(materialized)});
  newest_update_[rid] = &delta_log_.back();
}

size_t ColumnTable::PendingVersions() const {
  SharedReaderLock lock(&delta_mu_);
  return delta_log_.size();
}

void ColumnTable::SnapshotVersions(uint64_t snapshot,
                                   ColumnDeltaSnapshot* out,
                                   WorkMeter* meter) const {
  SharedReaderLock lock(&delta_mu_);
  // Holding delta_mu_ (shared) makes (base_rows, log prefix) one
  // consistent pair: FoldVersions holds it exclusively across both the
  // log drain and the base apply.
  out->base_rows = num_rows();
  out->dirty.clear();
  out->overrides.clear();
  out->inserts.clear();
  uint64_t hops = 0;
  for (const VersionOp& op : delta_log_) {
    if (op.csn > snapshot) break;  // CSN-ascending: prefix is complete
    ++hops;
    if (op.kind == VersionOp::Kind::kInsert) {
      assert(op.rid == out->base_rows + out->inserts.size() &&
             "insert versions must be rid-contiguous from the base");
      out->inserts.push_back(&op.row);
    } else if (op.rid >= out->base_rows) {
      // Update of a row inserted after the last fold: newest visible
      // version wins in place (the insert is earlier in the prefix).
      out->inserts[op.rid - out->base_rows] = &op.row;
    } else {
      out->overrides[op.rid] = &op.row;  // newest visible version wins
    }
  }
  out->bound = out->base_rows + out->inserts.size();
  if (!out->overrides.empty()) {
    out->dirty.assign((out->base_rows + 63) / 64, 0);
    for (const auto& [rid, row] : out->overrides) {
      out->dirty[rid >> 6] |= uint64_t{1} << (rid & 63);
    }
  }
  if (meter != nullptr) {
    meter->version_hops += hops;
    meter->column_values +=
        (out->overrides.size() + out->inserts.size()) * columns_.size();
  }
}

size_t ColumnTable::FoldVersions(uint64_t horizon, WorkMeter* meter) {
  SharedMutexLock lock(&delta_mu_);
  size_t folded = 0;
  while (!delta_log_.empty() && delta_log_.front().csn <= horizon) {
    const VersionOp& op = delta_log_.front();
    // Replaying the prefix in log (= commit) order is always
    // self-consistent: an update can only target a rid whose insert
    // committed earlier, hence appears earlier in the prefix.
    if (op.kind == VersionOp::Kind::kInsert) {
      assert(op.rid == num_rows() && "fold would break rid contiguity");
      const Status s = Append(op.row, meter);
      assert(s.ok());
      (void)s;
      assert(pending_inserts_.front() == &op);
      pending_inserts_.pop_front();
    } else {
      const Status s = UpdateRow(op.rid, op.row, meter);
      assert(s.ok());
      (void)s;
      const auto newest = newest_update_.find(op.rid);
      assert(newest != newest_update_.end());
      if (newest->second == &op) newest_update_.erase(newest);
    }
    if (meter != nullptr) ++meter->merged_rows;
    delta_log_.pop_front();
    ++folded;
  }
  return folded;
}

void ColumnTable::Clear() {
  {
    SharedMutexLock delta_lock(&delta_mu_);
    delta_log_.clear();
    pending_inserts_.clear();
    newest_update_.clear();
  }
  SharedMutexLock lock(&latch_);
  for (Column& col : columns_) {
    const DataType type = col.type;
    col = Column();
    col.type = type;
  }
  num_rows_ = 0;
}

}  // namespace hattrick
