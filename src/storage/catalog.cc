#include "storage/catalog.h"

#include <cassert>

#include "common/key_encoding.h"

namespace hattrick {

std::string IndexInfo::KeyFor(const Row& row, Rid rid) const {
  std::string out;
  for (size_t col : key_columns) {
    key::EncodeValue(row[col], &out);
  }
  if (!unique) {
    key::EncodeInt64(static_cast<int64_t>(rid), &out);
  }
  return out;
}

RowTable* Catalog::CreateTable(const std::string& name, Schema schema) {
  assert(by_name_.find(name) == by_name_.end() && "duplicate table");
  const TableId id = static_cast<TableId>(tables_.size());
  tables_.push_back(std::make_unique<RowTable>(std::move(schema)));
  names_.push_back(name);
  by_name_.emplace(name, id);
  indexes_by_table_.emplace_back();
  return tables_.back().get();
}

IndexInfo* Catalog::CreateIndex(const std::string& index_name,
                                const std::string& table_name,
                                std::vector<size_t> key_columns,
                                bool unique) {
  assert(indexes_by_name_.find(index_name) == indexes_by_name_.end());
  const auto it = by_name_.find(table_name);
  assert(it != by_name_.end() && "unknown table");
  auto info = std::make_unique<IndexInfo>();
  info->name = index_name;
  info->table_id = it->second;
  info->key_columns = std::move(key_columns);
  info->unique = unique;
  info->tree = std::make_unique<BTree>();
  IndexInfo* raw = info.get();
  indexes_.push_back(std::move(info));
  indexes_by_name_.emplace(index_name, raw);
  indexes_by_table_[raw->table_id].push_back(raw);
  return raw;
}

RowTable* Catalog::GetTable(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : tables_[it->second].get();
}

RowTable* Catalog::GetTable(TableId id) const {
  return id < tables_.size() ? tables_[id].get() : nullptr;
}

IndexInfo* Catalog::GetIndex(const std::string& name) const {
  const auto it = indexes_by_name_.find(name);
  return it == indexes_by_name_.end() ? nullptr : it->second;
}

TableId Catalog::GetTableId(const std::string& name) const {
  const auto it = by_name_.find(name);
  assert(it != by_name_.end() && "unknown table");
  return it->second;
}

const std::vector<IndexInfo*>& Catalog::TableIndexes(TableId id) const {
  assert(id < indexes_by_table_.size());
  return indexes_by_table_[id];
}

std::vector<IndexInfo*> Catalog::AllIndexes() const {
  std::vector<IndexInfo*> out;
  out.reserve(indexes_.size());
  for (const auto& index : indexes_) out.push_back(index.get());
  return out;
}

void Catalog::DropAllIndexes() {
  indexes_.clear();
  indexes_by_name_.clear();
  for (auto& list : indexes_by_table_) list.clear();
}

size_t Catalog::VacuumAll(Ts horizon) {
  size_t dropped = 0;
  for (const auto& table : tables_) dropped += table->Vacuum(horizon);
  return dropped;
}

void Catalog::Seal() {
  for (const auto& table : tables_) table->Seal();
}

void Catalog::Rewind() {
  for (const auto& table : tables_) table->Rewind();
  for (const auto& index : indexes_) {
    index->tree->Clear();
    RowTable* table = tables_[index->table_id].get();
    // kMaxTs - 1 sees every committed version; after the rewind that is
    // exactly the load version of each sealed slot.
    table->Scan(
        kMaxTs - 1,
        [&](Rid rid, const Row& row) {
          index->tree->Insert(index->KeyFor(row, rid), rid, nullptr);
          return true;
        },
        nullptr);
  }
}

}  // namespace hattrick
