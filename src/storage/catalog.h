#ifndef HATTRICK_STORAGE_CATALOG_H_
#define HATTRICK_STORAGE_CATALOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "storage/btree.h"
#include "storage/row_table.h"

namespace hattrick {

/// Numeric table identifier used by WAL records and replication.
using TableId = uint32_t;

/// Metadata and storage of one secondary or primary index.
struct IndexInfo {
  std::string name;
  TableId table_id = 0;
  std::vector<size_t> key_columns;  // ordinals within the table schema
  bool unique = false;
  std::unique_ptr<BTree> tree;

  /// Builds the encoded index key for `row` (rid appended when non-unique).
  std::string KeyFor(const Row& row, Rid rid) const;
};

/// Owns the row tables and indexes of one engine node (primary, replica).
///
/// A node's catalog is deterministic: table ids are assigned in creation
/// order, so a replica that creates the same tables in the same order can
/// replay WAL records by table id.
class Catalog {
 public:
  Catalog() = default;

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates a row table; the name must be unique.
  RowTable* CreateTable(const std::string& name, Schema schema);

  /// Creates an index over `table_name` keyed on `key_columns`.
  IndexInfo* CreateIndex(const std::string& index_name,
                         const std::string& table_name,
                         std::vector<size_t> key_columns, bool unique);

  /// Lookup helpers; return nullptr when absent.
  RowTable* GetTable(const std::string& name) const;
  RowTable* GetTable(TableId id) const;
  IndexInfo* GetIndex(const std::string& name) const;
  TableId GetTableId(const std::string& name) const;

  /// All indexes defined over table `id` (for write-path maintenance).
  const std::vector<IndexInfo*>& TableIndexes(TableId id) const;

  /// Every index in the catalog, in creation order (used to wire
  /// observability counters onto the trees).
  std::vector<IndexInfo*> AllIndexes() const;

  size_t num_tables() const { return tables_.size(); }
  const std::string& table_name(TableId id) const { return names_[id]; }

  /// Vacuums every table at `horizon` (see RowTable::Vacuum); returns
  /// total versions dropped.
  size_t VacuumAll(Ts horizon);

  /// Seals every table's loaded rows as its post-load state (see
  /// RowTable::Seal). Called once, after the bulk load.
  void Seal();

  /// Rewinds every table to its sealed state (see RowTable::Rewind) and
  /// rebuilds this catalog's indexes from the rewound rows in rid order
  /// (benchmark reset). Callers quiesce transactions first.
  void Rewind();

 private:
  std::vector<std::unique_ptr<RowTable>> tables_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, TableId> by_name_;
  std::vector<std::unique_ptr<IndexInfo>> indexes_;
  std::unordered_map<std::string, IndexInfo*> indexes_by_name_;
  std::vector<std::vector<IndexInfo*>> indexes_by_table_;
};

}  // namespace hattrick

#endif  // HATTRICK_STORAGE_CATALOG_H_
