// Tests for the catalog: table/index registration, key derivation, index
// rebuild on rewind to the sealed load state, and the physical-schema
// helpers.

#include <gtest/gtest.h>

#include "common/key_encoding.h"
#include "storage/catalog.h"

namespace hattrick {
namespace {

Schema PersonSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"name", DataType::kString},
                 {"age", DataType::kInt64}});
}

TEST(CatalogTest, CreateAndLookupTables) {
  Catalog catalog;
  RowTable* people = catalog.CreateTable("people", PersonSchema());
  RowTable* pets = catalog.CreateTable("pets", PersonSchema());
  EXPECT_EQ(catalog.num_tables(), 2u);
  EXPECT_EQ(catalog.GetTable("people"), people);
  EXPECT_EQ(catalog.GetTable("pets"), pets);
  EXPECT_EQ(catalog.GetTable("absent"), nullptr);
  EXPECT_EQ(catalog.GetTableId("people"), 0u);
  EXPECT_EQ(catalog.GetTableId("pets"), 1u);
  EXPECT_EQ(catalog.GetTable(TableId{1}), pets);
  EXPECT_EQ(catalog.table_name(0), "people");
}

TEST(CatalogTest, CreateIndexAndTableIndexes) {
  Catalog catalog;
  catalog.CreateTable("people", PersonSchema());
  IndexInfo* pk = catalog.CreateIndex("people_pk", "people", {0}, true);
  IndexInfo* by_name = catalog.CreateIndex("people_name", "people", {1},
                                           false);
  EXPECT_EQ(catalog.GetIndex("people_pk"), pk);
  EXPECT_EQ(catalog.GetIndex("absent"), nullptr);
  const auto& indexes = catalog.TableIndexes(0);
  ASSERT_EQ(indexes.size(), 2u);
  EXPECT_EQ(indexes[0], pk);
  EXPECT_EQ(indexes[1], by_name);
}

TEST(CatalogTest, IndexKeyForUniqueOmitsRid) {
  Catalog catalog;
  catalog.CreateTable("people", PersonSchema());
  IndexInfo* pk = catalog.CreateIndex("pk", "people", {0}, true);
  const Row row{int64_t{7}, std::string("bob"), int64_t{30}};
  EXPECT_EQ(pk->KeyFor(row, 99), key::EncodeKey({Value(int64_t{7})}));
}

TEST(CatalogTest, IndexKeyForNonUniqueAppendsRid) {
  Catalog catalog;
  catalog.CreateTable("people", PersonSchema());
  IndexInfo* by_name = catalog.CreateIndex("name", "people", {1}, false);
  const Row row{int64_t{7}, std::string("bob"), int64_t{30}};
  std::string expected = key::EncodeKey({Value("bob")});
  key::EncodeInt64(99, &expected);
  EXPECT_EQ(by_name->KeyFor(row, 99), expected);
  // Same key values, different rids -> distinct index keys.
  EXPECT_NE(by_name->KeyFor(row, 99), by_name->KeyFor(row, 100));
}

TEST(CatalogTest, CompositeIndexKey) {
  Catalog catalog;
  catalog.CreateTable("people", PersonSchema());
  IndexInfo* composite =
      catalog.CreateIndex("name_age", "people", {1, 2}, true);
  const Row row{int64_t{1}, std::string("amy"), int64_t{41}};
  EXPECT_EQ(composite->KeyFor(row, 0),
            key::EncodeKey({Value("amy"), Value(int64_t{41})}));
}

Row Person(int64_t id, const std::string& name) {
  return Row{id, name, int64_t{20} + id};
}

/// Inserts `row` at `ts` into `table` and every index over it (the load
/// and insert paths of the engines).
Rid InsertIndexed(Catalog* catalog, const std::string& table, const Row& row,
                  Ts ts) {
  const Rid rid = catalog->GetTable(table)->Insert(row, ts, nullptr);
  for (const IndexInfo* index :
       catalog->TableIndexes(catalog->GetTableId(table))) {
    index->tree->Insert(index->KeyFor(row, rid), rid, nullptr);
  }
  return rid;
}

size_t PrefixHits(const IndexInfo& index, const std::string& name) {
  size_t hits = 0;
  index.tree->ScanPrefix(key::EncodeKey({Value(name)}),
                         [&](const std::string&, uint64_t) {
                           ++hits;
                           return true;
                         },
                         nullptr);
  return hits;
}

TEST(CatalogTest, RewindRestoresLoadStateAndIndexes) {
  Catalog catalog;
  RowTable* people = catalog.CreateTable("people", PersonSchema());
  IndexInfo* pk = catalog.CreateIndex("pk", "people", {0}, true);
  for (int i = 0; i < 20; ++i) {
    InsertIndexed(&catalog, "people", Person(i, "p" + std::to_string(i)), 1);
  }
  catalog.Seal();
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(people->AddVersion(7, Person(7, "changed"), 5, nullptr).ok());
    ASSERT_TRUE(people->AddVersion(8, Person(8, "renamed"), 6, nullptr).ok());
    EXPECT_EQ(InsertIndexed(&catalog, "people", Person(20, "late"), 7), 20u);
    EXPECT_EQ(pk->tree->size(), 21u);

    catalog.Rewind();
    EXPECT_EQ(people->NumSlots(), 20u);
    EXPECT_EQ(people->NumVersions(), 20u);
    EXPECT_EQ(pk->tree->size(), 20u);
    uint64_t rid = 0;
    ASSERT_TRUE(pk->tree->Lookup(key::EncodeKey({Value(int64_t{8})}), &rid,
                                 nullptr));
    EXPECT_EQ(rid, 8u);
    EXPECT_FALSE(pk->tree->Lookup(key::EncodeKey({Value(int64_t{20})}), &rid,
                                  nullptr));
    Row row;
    ASSERT_TRUE(people->ReadLatest(7, &row, nullptr));
    EXPECT_EQ(row[1].AsString(), "p7");
  }
}

// A standby catalog carries its own index definitions; the rewind
// rebuilds exactly those, from the load versions rather than the newest
// committed ones.
TEST(CatalogTest, RewindRebuildsOwnIndexDefinitions) {
  Catalog plain;
  plain.CreateTable("people", PersonSchema());
  Catalog standby;
  standby.CreateTable("people", PersonSchema());
  IndexInfo* by_name = standby.CreateIndex("name", "people", {1}, false);
  IndexInfo* by_age = standby.CreateIndex("age", "people", {2}, true);
  for (Catalog* catalog : {&plain, &standby}) {
    InsertIndexed(catalog, "people", Person(1, "old"), 1);
    InsertIndexed(catalog, "people", Person(2, "other"), 1);
    catalog->Seal();
    ASSERT_TRUE(catalog->GetTable("people")
                    ->AddVersion(0, Person(1, "new"), 5, nullptr)
                    .ok());
    InsertIndexed(catalog, "people", Person(3, "new"), 6);
  }
  by_name->tree->Insert(by_name->KeyFor(Person(1, "new"), 0), 0, nullptr);

  plain.Rewind();
  standby.Rewind();
  EXPECT_TRUE(plain.AllIndexes().empty());
  EXPECT_EQ(plain.GetTable("people")->NumSlots(), 2u);
  EXPECT_EQ(by_name->tree->size(), 2u);
  EXPECT_EQ(PrefixHits(*by_name, "old"), 1u);
  EXPECT_EQ(PrefixHits(*by_name, "new"), 0u);
  EXPECT_EQ(by_age->tree->size(), 2u);
  uint64_t rid = 0;
  ASSERT_TRUE(by_age->tree->Lookup(key::EncodeKey({Value(int64_t{22})}), &rid,
                                   nullptr));
  EXPECT_EQ(rid, 1u);
}

}  // namespace
}  // namespace hattrick
