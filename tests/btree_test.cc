// Tests for the in-memory B+-tree, including randomized property tests
// against std::multimap as the reference model.

#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/key_encoding.h"
#include "common/rng.h"
#include "storage/btree.h"

namespace hattrick {
namespace {

std::string IntKey(int64_t v) {
  std::string out;
  key::EncodeInt64(v, &out);
  return out;
}

TEST(BTreeTest, EmptyTree) {
  BTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1u);
  uint64_t value;
  EXPECT_FALSE(tree.Lookup(IntKey(1), &value, nullptr));
}

TEST(BTreeTest, InsertAndLookup) {
  BTree tree;
  tree.Insert(IntKey(10), 100, nullptr);
  tree.Insert(IntKey(20), 200, nullptr);
  uint64_t value = 0;
  ASSERT_TRUE(tree.Lookup(IntKey(10), &value, nullptr));
  EXPECT_EQ(value, 100u);
  ASSERT_TRUE(tree.Lookup(IntKey(20), &value, nullptr));
  EXPECT_EQ(value, 200u);
  EXPECT_FALSE(tree.Lookup(IntKey(15), &value, nullptr));
  EXPECT_EQ(tree.size(), 2u);
}

TEST(BTreeTest, SplitsGrowHeight) {
  BTree tree(/*leaf_capacity=*/4, /*internal_capacity=*/4);
  for (int i = 0; i < 100; ++i) tree.Insert(IntKey(i), i, nullptr);
  EXPECT_EQ(tree.size(), 100u);
  EXPECT_GT(tree.height(), 2u);
  uint64_t value;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Lookup(IntKey(i), &value, nullptr)) << i;
    EXPECT_EQ(value, static_cast<uint64_t>(i));
  }
}

TEST(BTreeTest, ScanRangeAscendingOrder) {
  BTree tree(4, 4);
  for (int i = 99; i >= 0; --i) tree.Insert(IntKey(i), i, nullptr);
  std::vector<uint64_t> seen;
  tree.ScanRange(IntKey(10), IntKey(20),
                 [&](const std::string&, uint64_t v) {
                   seen.push_back(v);
                   return true;
                 },
                 nullptr);
  ASSERT_EQ(seen.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(seen[i], static_cast<uint64_t>(10 + i));
}

TEST(BTreeTest, ScanRangeEmptyHiScansToEnd) {
  BTree tree(4, 4);
  for (int i = 0; i < 20; ++i) tree.Insert(IntKey(i), i, nullptr);
  size_t count = 0;
  tree.ScanRange(IntKey(15), "",
                 [&](const std::string&, uint64_t) {
                   ++count;
                   return true;
                 },
                 nullptr);
  EXPECT_EQ(count, 5u);
}

TEST(BTreeTest, ScanEarlyStop) {
  BTree tree(4, 4);
  for (int i = 0; i < 20; ++i) tree.Insert(IntKey(i), i, nullptr);
  size_t count = 0;
  tree.ScanRange(IntKey(0), "",
                 [&](const std::string&, uint64_t) { return ++count < 3; },
                 nullptr);
  EXPECT_EQ(count, 3u);
}

TEST(BTreeTest, DuplicateKeysAllVisited) {
  BTree tree(4, 4);
  for (uint64_t rid = 0; rid < 50; ++rid) {
    tree.Insert(IntKey(7), rid, nullptr);
  }
  std::set<uint64_t> rids;
  tree.ScanPrefix(IntKey(7),
                  [&](const std::string&, uint64_t v) {
                    rids.insert(v);
                    return true;
                  },
                  nullptr);
  EXPECT_EQ(rids.size(), 50u);
}

TEST(BTreeTest, DuplicatesInterleavedWithOtherKeys) {
  BTree tree(4, 4);
  for (int i = 0; i < 30; ++i) tree.Insert(IntKey(i), 1000 + i, nullptr);
  for (uint64_t rid = 0; rid < 20; ++rid) tree.Insert(IntKey(15), rid, nullptr);
  size_t count = 0;
  tree.ScanPrefix(IntKey(15),
                  [&](const std::string&, uint64_t) {
                    ++count;
                    return true;
                  },
                  nullptr);
  EXPECT_EQ(count, 21u);  // 20 duplicates + the original
}

TEST(BTreeTest, RemoveExistingAndMissing) {
  BTree tree(4, 4);
  for (int i = 0; i < 50; ++i) tree.Insert(IntKey(i), i, nullptr);
  EXPECT_TRUE(tree.Remove(IntKey(25), nullptr));
  EXPECT_FALSE(tree.Remove(IntKey(25), nullptr));
  EXPECT_EQ(tree.size(), 49u);
  uint64_t value;
  EXPECT_FALSE(tree.Lookup(IntKey(25), &value, nullptr));
  EXPECT_TRUE(tree.Lookup(IntKey(24), &value, nullptr));
}

TEST(BTreeTest, MeterCountsNodesAndWrites) {
  BTree tree(4, 4);
  WorkMeter meter;
  for (int i = 0; i < 100; ++i) tree.Insert(IntKey(i), i, &meter);
  EXPECT_EQ(meter.index_writes, 100u);
  EXPECT_GE(meter.index_nodes, 100u);  // at least one node per insert
  WorkMeter lookup_meter;
  uint64_t value;
  tree.Lookup(IntKey(50), &value, &lookup_meter);
  // One descent; boundary lookups may hop to one extra leaf.
  EXPECT_GE(lookup_meter.index_nodes, tree.height());
  EXPECT_LE(lookup_meter.index_nodes, tree.height() + 1);
}

TEST(BTreeTest, ClearResets) {
  BTree tree(4, 4);
  for (int i = 0; i < 100; ++i) tree.Insert(IntKey(i), i, nullptr);
  tree.Clear();
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1u);
  uint64_t value;
  EXPECT_FALSE(tree.Lookup(IntKey(1), &value, nullptr));
}

// Property test: random operations mirrored against std::multimap.
class BTreePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreePropertyTest, MatchesMultimapReference) {
  Rng rng(GetParam());
  BTree tree(/*leaf_capacity=*/8, /*internal_capacity=*/8);
  std::multimap<std::string, uint64_t> reference;

  for (int step = 0; step < 3000; ++step) {
    const int op = static_cast<int>(rng.Uniform(0, 9));
    const int64_t raw_key = rng.Uniform(0, 300);
    const std::string k = IntKey(raw_key);
    if (op < 6) {  // insert
      const uint64_t v = rng.Next() % 1000;
      tree.Insert(k, v, nullptr);
      reference.emplace(k, v);
    } else if (op < 8) {  // remove one
      const bool tree_removed = tree.Remove(k, nullptr);
      const auto it = reference.find(k);
      const bool ref_removed = it != reference.end();
      if (ref_removed) reference.erase(it);
      EXPECT_EQ(tree_removed, ref_removed);
    } else {  // range scan
      const int64_t lo = rng.Uniform(0, 300);
      const int64_t hi = lo + rng.Uniform(0, 50);
      std::multiset<uint64_t> got;
      tree.ScanRange(IntKey(lo), IntKey(hi),
                     [&](const std::string&, uint64_t v) {
                       got.insert(v);
                       return true;
                     },
                     nullptr);
      std::multiset<uint64_t> want;
      for (auto it = reference.lower_bound(IntKey(lo));
           it != reference.lower_bound(IntKey(hi)); ++it) {
        want.insert(it->second);
      }
      EXPECT_EQ(got, want) << "scan [" << lo << "," << hi << ")";
    }
    ASSERT_EQ(tree.size(), reference.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Property: full scans are always sorted regardless of insertion order.
class BTreeSortedScanTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeSortedScanTest, FullScanSorted) {
  Rng rng(GetParam() * 31337);
  BTree tree(6, 6);
  for (int i = 0; i < 2000; ++i) {
    tree.Insert(IntKey(static_cast<int64_t>(rng.Next() % 10000)),
                rng.Next(), nullptr);
  }
  std::vector<std::string> keys;
  tree.ScanRange("", "",
                 [&](const std::string& k, uint64_t) {
                   keys.push_back(k);
                   return true;
                 },
                 nullptr);
  EXPECT_EQ(keys.size(), 2000u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeSortedScanTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace hattrick
