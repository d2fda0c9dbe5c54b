#include "lsm/memtable.h"

#include <algorithm>
#include <new>

namespace endure::lsm {

struct SkipList::Node {
  Entry entry;
  int height;
  std::atomic<Node*> next[1];  // over-allocated to `height` pointers

  static Node* Create(const Entry& e, int height) {
    const size_t bytes =
        sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1);
    Node* n = static_cast<Node*>(::operator new(bytes));
    n->entry = e;
    n->height = height;
    for (int i = 0; i < height; ++i) {
      new (&n->next[i]) std::atomic<Node*>(nullptr);
    }
    return n;
  }
  static void Destroy(Node* n) { ::operator delete(n); }

  Node* Next(int level) const {
    return next[level].load(std::memory_order_acquire);
  }
};

namespace {
/// True when node (k, s) orders strictly before position (key, seq_bound)
/// under (key asc, seq desc).
inline bool NodeBefore(Key k, SeqNum s, Key key, SeqNum seq_bound) {
  if (k != key) return k < key;
  return s > seq_bound;
}
}  // namespace

SkipList::SkipList() : rng_(0x5eed5eedULL) {
  Entry sentinel;
  sentinel.key = 0;
  head_ = Node::Create(sentinel, kMaxHeight);
}

SkipList::~SkipList() {
  Node* n = head_;
  while (n != nullptr) {
    Node* next = n->next[0].load(std::memory_order_relaxed);
    Node::Destroy(n);
    n = next;
  }
}

int SkipList::RandomHeight() {
  // Geometric with p = 1/2.
  int h = 1;
  while (h < kMaxHeight && (rng_.Next() & 1) != 0) ++h;
  return h;
}

SkipList::Node* SkipList::FindGreaterOrEqual(Key key, SeqNum seq_bound,
                                             Node** prev) const {
  Node* x = head_;
  Node* next = nullptr;
  for (int level = height_.load(std::memory_order_acquire) - 1; level >= 0;
       --level) {
    next = x->Next(level);
    while (next != nullptr &&
           NodeBefore(next->entry.key, next->entry.seq, key, seq_bound)) {
      x = next;
      next = x->Next(level);
    }
    if (prev != nullptr) prev[level] = x;
  }
  // Return the level-0 successor the search compared, not a fresh load of
  // x->next[0]: a node the writer links in behind x after the comparison
  // orders before the target, and reloading would hand it back as a miss.
  return next;
}

bool SkipList::Upsert(const Entry& e) {
  Node* prev[kMaxHeight];
  for (int i = 0; i < kMaxHeight; ++i) prev[i] = head_;
  // Ordered position of (key, seq): in front of all same-key versions with
  // a lower seq, behind any with a higher one.
  Node* found = FindGreaterOrEqual(e.key, e.seq, prev);
  const bool key_exists =
      (found != nullptr && found->entry.key == e.key) ||
      (prev[0] != head_ && prev[0]->entry.key == e.key);
  const int h = RandomHeight();
  if (h > height_.load(std::memory_order_relaxed)) {
    // Readers that observe the new height before the node links see the
    // still-null head pointers at the new levels, which is benign.
    height_.store(h, std::memory_order_release);
  }
  Node* n = Node::Create(e, h);
  for (int i = 0; i < h; ++i) {
    n->next[i].store(prev[i]->next[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    // The release store publishes the fully-built node to lock-free
    // readers.
    prev[i]->next[i].store(n, std::memory_order_release);
  }
  versions_.fetch_add(1, std::memory_order_relaxed);
  if (!key_exists) {
    size_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

const Entry* SkipList::Find(Key key, SeqNum seq_bound) const {
  Node* n = FindGreaterOrEqual(key, seq_bound, nullptr);
  if (n != nullptr && n->entry.key == key) return &n->entry;
  return nullptr;
}

std::vector<Entry> SkipList::Dump() const {
  std::vector<Entry> out;
  out.reserve(size());
  for (Iterator it(this); it.Valid(); it.Next()) out.push_back(it.entry());
  return out;
}

void SkipList::Clear() {
  Node* n = head_->next[0].load(std::memory_order_relaxed);
  while (n != nullptr) {
    Node* next = n->next[0].load(std::memory_order_relaxed);
    Node::Destroy(n);
    n = next;
  }
  for (int i = 0; i < kMaxHeight; ++i) {
    head_->next[i].store(nullptr, std::memory_order_relaxed);
  }
  height_.store(1, std::memory_order_relaxed);
  size_.store(0, std::memory_order_relaxed);
  versions_.store(0, std::memory_order_relaxed);
}

SkipList::Iterator::Iterator(const SkipList* list, SeqNum bound)
    : list_(list), node_(list->head_->Next(0)), bound_(bound) {
  SkipToVisible();
}

const Entry& SkipList::Iterator::entry() const {
  ENDURE_DCHECK(Valid());
  return static_cast<const Node*>(node_)->entry;
}

void SkipList::Iterator::SkipToVisible() {
  // node_ sits at the head of some key's version run (versions are
  // contiguous, newest first). Versions newer than the bound are skipped;
  // the first one at or below the bound is the visible version of its key.
  // Skipping past the last version of a key lands on the head of the next
  // key's run, preserving the precondition.
  const Node* n = static_cast<const Node*>(node_);
  while (n != nullptr && n->entry.seq > bound_) n = n->Next(0);
  node_ = n;
}

void SkipList::Iterator::Next() {
  ENDURE_DCHECK(Valid());
  // Skip the remaining (older, shadowed) versions of the current key, then
  // land on the newest visible version of the next key.
  const Node* n = static_cast<const Node*>(node_);
  const Key current = n->entry.key;
  do {
    n = n->Next(0);
  } while (n != nullptr && n->entry.key == current);
  node_ = n;
  SkipToVisible();
}

void SkipList::Iterator::Seek(Key target) {
  // Position at the first version of the first key >= target: with
  // seq_bound = kMaxSeq no same-key version orders before the target, so
  // this lands on the newest stored version.
  node_ = list_->FindGreaterOrEqual(target, kMaxSeq, nullptr);
  SkipToVisible();
}

void SkipList::Iterator::SeekToFirst() {
  node_ = list_->head_->Next(0);
  SkipToVisible();
}

MemTable::MemTable(uint64_t capacity) : capacity_(std::max<uint64_t>(1,
                                                                     capacity)) {}

}  // namespace endure::lsm
