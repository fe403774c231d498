#include "storage/btree.h"

#include <algorithm>
#include <cassert>

#include "common/key_encoding.h"

namespace hattrick {

struct BTree::Node {
  bool leaf = true;
  Node* parent = nullptr;
  std::vector<std::string> keys;
  std::vector<uint64_t> values;  // leaf only; parallel to keys
  std::vector<Node*> children;   // internal only; size == keys.size() + 1
  Node* next = nullptr;          // leaf chain
};

namespace {

void Meter(WorkMeter* meter, uint64_t nodes, uint64_t writes) {
  if (meter != nullptr) {
    meter->index_nodes += nodes;
    meter->index_writes += writes;
  }
}

// Cache-miss weight of one node access: trees beyond ~32k entries spill
// out of the cache hierarchy and every level of growth makes node visits
// more expensive. This is what makes index maintenance degrade
// transactional throughput at large scale factors (the paper's SF100
// observation, Section 6.2) — tree *depth* alone grows only
// logarithmically and would understate the effect.
uint64_t CacheWeight(size_t size) {
  uint64_t weight = 1;
  for (size_t s = size / 16384; s > 0; s /= 4) ++weight;
  return weight;
}

}  // namespace

BTree::BTree(size_t leaf_capacity, size_t internal_capacity)
    : leaf_capacity_(leaf_capacity),
      internal_capacity_(internal_capacity),
      root_(new Node()) {
  assert(leaf_capacity_ >= 2 && internal_capacity_ >= 3);
}

BTree::~BTree() { DeleteSubtree(root_); }

void BTree::DeleteSubtree(Node* node) {
  if (!node->leaf) {
    for (Node* child : node->children) DeleteSubtree(child);
  }
  delete node;
}

// Descends to the leaf that should receive an insertion of `key`
// (rightmost leaf whose range admits the key, so duplicate runs append).
BTree::Node* BTree::FindLeaf(const std::string& key, WorkMeter* meter) const {
  Node* node = root_;
  uint64_t visited = 1;
  while (!node->leaf) {
    const auto it = std::upper_bound(node->keys.begin(), node->keys.end(), key);
    node = node->children[static_cast<size_t>(it - node->keys.begin())];
    ++visited;
  }
  Meter(meter, visited * CacheWeight(size_), 0);
  return node;
}

namespace {

// Descends to the leftmost leaf that may contain the first entry >= key.
// Because duplicate runs may straddle a split separator, descent uses
// lower_bound (ties go left); callers then walk the leaf chain forward.
template <typename NodeT>
NodeT* FindLeafForScan(NodeT* root, const std::string& key, uint64_t weight,
                       WorkMeter* meter) {
  NodeT* node = root;
  uint64_t visited = 1;
  while (!node->leaf) {
    const auto it = std::lower_bound(node->keys.begin(), node->keys.end(), key);
    node = node->children[static_cast<size_t>(it - node->keys.begin())];
    ++visited;
  }
  Meter(meter, visited * weight, 0);
  return node;
}

}  // namespace

void BTree::Insert(const std::string& key, uint64_t value, WorkMeter* meter) {
  SharedMutexLock lock(&latch_);
  Node* leaf = FindLeaf(key, meter);
  InsertIntoLeaf(leaf, key, value, meter);
}

void BTree::InsertIntoLeaf(Node* leaf, const std::string& key, uint64_t value,
                           WorkMeter* meter) {
  const auto it = std::upper_bound(leaf->keys.begin(), leaf->keys.end(), key);
  const size_t pos = static_cast<size_t>(it - leaf->keys.begin());
  leaf->keys.insert(leaf->keys.begin() + pos, key);
  leaf->values.insert(leaf->values.begin() + pos, value);
  ++size_;
  Meter(meter, 0, 1);
  if (leaf->keys.size() > leaf_capacity_) SplitLeaf(leaf);
}

void BTree::SplitLeaf(Node* leaf) {
  if (split_counter_ != nullptr) split_counter_->Inc();
  const size_t mid = leaf->keys.size() / 2;
  Node* right = new Node();
  right->leaf = true;
  right->keys.assign(leaf->keys.begin() + mid, leaf->keys.end());
  right->values.assign(leaf->values.begin() + mid, leaf->values.end());
  leaf->keys.resize(mid);
  leaf->values.resize(mid);
  right->next = leaf->next;
  leaf->next = right;
  InsertIntoParent(leaf, right->keys.front(), right);
}

void BTree::SplitInternal(Node* node) {
  if (split_counter_ != nullptr) split_counter_->Inc();
  const size_t mid = node->keys.size() / 2;
  std::string separator = node->keys[mid];
  Node* right = new Node();
  right->leaf = false;
  right->keys.assign(node->keys.begin() + mid + 1, node->keys.end());
  right->children.assign(node->children.begin() + mid + 1,
                         node->children.end());
  for (Node* child : right->children) child->parent = right;
  node->keys.resize(mid);
  node->children.resize(mid + 1);
  InsertIntoParent(node, std::move(separator), right);
}

void BTree::InsertIntoParent(Node* node, std::string separator,
                             Node* sibling) {
  Node* parent = node->parent;
  if (parent == nullptr) {
    Node* new_root = new Node();
    new_root->leaf = false;
    new_root->keys.push_back(std::move(separator));
    new_root->children = {node, sibling};
    node->parent = new_root;
    sibling->parent = new_root;
    root_ = new_root;
    ++height_;
    return;
  }
  const auto it = std::find(parent->children.begin(), parent->children.end(),
                            node);
  assert(it != parent->children.end());
  const size_t pos = static_cast<size_t>(it - parent->children.begin());
  parent->keys.insert(parent->keys.begin() + pos, std::move(separator));
  parent->children.insert(parent->children.begin() + pos + 1, sibling);
  sibling->parent = parent;
  if (parent->keys.size() > internal_capacity_) SplitInternal(parent);
}

bool BTree::Remove(const std::string& key, WorkMeter* meter) {
  SharedMutexLock lock(&latch_);
  for (Node* n = FindLeafForScan(root_, key, CacheWeight(size_), meter); n != nullptr;
       n = n->next) {
    const auto it = std::lower_bound(n->keys.begin(), n->keys.end(), key);
    if (it != n->keys.end()) {
      if (*it != key) return false;
      const size_t pos = static_cast<size_t>(it - n->keys.begin());
      n->keys.erase(n->keys.begin() + pos);
      n->values.erase(n->values.begin() + pos);
      --size_;
      Meter(meter, 0, 1);
      return true;
    }
    Meter(meter, 1, 0);  // hop to the next leaf
  }
  return false;
}

bool BTree::Lookup(const std::string& key, uint64_t* value,
                   WorkMeter* meter) const {
  SharedReaderLock lock(&latch_);
  for (const Node* n = FindLeafForScan(root_, key, CacheWeight(size_), meter); n != nullptr;
       n = n->next) {
    const auto it = std::lower_bound(n->keys.begin(), n->keys.end(), key);
    if (it != n->keys.end()) {
      if (*it != key) return false;
      *value = n->values[static_cast<size_t>(it - n->keys.begin())];
      return true;
    }
    Meter(meter, 1, 0);
  }
  return false;
}

void BTree::ScanRange(const std::string& lo, const std::string& hi,
                      const Visitor& visitor, WorkMeter* meter) const {
  SharedReaderLock lock(&latch_);
  const Node* n = FindLeafForScan(root_, lo, CacheWeight(size_), meter);
  size_t pos = 0;
  {
    const auto it = std::lower_bound(n->keys.begin(), n->keys.end(), lo);
    pos = static_cast<size_t>(it - n->keys.begin());
  }
  while (n != nullptr) {
    for (; pos < n->keys.size(); ++pos) {
      if (!hi.empty() && n->keys[pos] >= hi) return;
      if (!visitor(n->keys[pos], n->values[pos])) return;
    }
    n = n->next;
    pos = 0;
    if (n != nullptr) Meter(meter, 1, 0);
  }
}

void BTree::ScanPrefix(const std::string& prefix, const Visitor& visitor,
                       WorkMeter* meter) const {
  ScanRange(prefix, key::PrefixSuccessor(prefix), visitor, meter);
}

size_t BTree::size() const {
  SharedReaderLock lock(&latch_);
  return size_;
}

size_t BTree::height() const {
  SharedReaderLock lock(&latch_);
  return height_;
}

void BTree::Clear() {
  SharedMutexLock lock(&latch_);
  DeleteSubtree(root_);
  root_ = new Node();
  size_ = 0;
  height_ = 1;
}

}  // namespace hattrick
