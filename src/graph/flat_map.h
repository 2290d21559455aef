#ifndef CYCLESTREAM_GRAPH_FLAT_MAP_H_
#define CYCLESTREAM_GRAPH_FLAT_MAP_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace cyclestream {

/// Open-addressing hash map from 64-bit keys to small trivially-copyable
/// values: power-of-two capacity, Mix64 finalizer, linear probing. One flat
/// slot array, no per-entry allocation, no separate chaining — the wedge
/// vector's hot `++x[PairKey(u,v)]` becomes a mix, a masked index, and a
/// short probe walk over contiguous memory.
///
/// The all-ones key (~0) is reserved as the empty-slot sentinel. `PairKey`
/// can never produce it (it would require two equal endpoints of id 2³²−1,
/// and pair keys are formed from *distinct* vertices), so the wedge vector
/// and every per-vertex index in this codebase can use the map unrestricted.
///
/// Deliberately minimal: insert/lookup/iterate only — no erase. Iteration
/// order is the slot order (a function of the key set and the insertion
/// history, not of pointer values), so repeated runs over the same data
/// iterate identically.
template <typename V>
class FlatMap64 {
 public:
  /// Reserved empty-slot sentinel; never usable as a key.
  static constexpr std::uint64_t kEmptyKey = ~0ull;

  struct Slot {
    std::uint64_t key = kEmptyKey;
    V value{};
  };

  FlatMap64() = default;

  /// Pre-sizes for `expected` entries (capacity is the next power of two
  /// that keeps the load factor under ~0.75).
  void reserve(std::size_t expected) {
    std::size_t cap = kMinCapacity;
    while (cap * 3 / 4 < expected) cap <<= 1;
    if (cap > slots_.size()) Rehash(cap);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Slots allocated (diagnostics / space accounting).
  std::size_t capacity() const { return slots_.size(); }

  /// Inserts a default-constructed value if absent; returns the value slot.
  V& operator[](std::uint64_t key) {
    assert(key != kEmptyKey);
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) {
      Rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    std::size_t i = Probe(key);
    if (slots_[i].key == kEmptyKey) {
      slots_[i].key = key;
      ++size_;
    }
    return slots_[i].value;
  }

  /// Pointer to the value, or nullptr if absent.
  const V* find(std::uint64_t key) const {
    if (slots_.empty()) return nullptr;
    const std::size_t i = Probe(key);
    return slots_[i].key == key ? &slots_[i].value : nullptr;
  }
  V* find(std::uint64_t key) {
    return const_cast<V*>(std::as_const(*this).find(key));
  }

  const V& at(std::uint64_t key) const {
    const V* v = find(key);
    if (v == nullptr) throw std::out_of_range("FlatMap64::at: missing key");
    return *v;
  }

  bool contains(std::uint64_t key) const { return find(key) != nullptr; }

  void clear() {
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

  /// Forward iterator over occupied slots; dereferences to a `Slot` whose
  /// public `key`/`value` members support `for (const auto& [k, v] : map)`.
  class const_iterator {
   public:
    const_iterator(const Slot* p, const Slot* end) : p_(p), end_(end) {
      SkipEmpty();
    }
    const Slot& operator*() const { return *p_; }
    const Slot* operator->() const { return p_; }
    const_iterator& operator++() {
      ++p_;
      SkipEmpty();
      return *this;
    }
    bool operator==(const const_iterator& o) const { return p_ == o.p_; }
    bool operator!=(const const_iterator& o) const { return p_ != o.p_; }

   private:
    void SkipEmpty() {
      while (p_ != end_ && p_->key == kEmptyKey) ++p_;
    }
    const Slot* p_;
    const Slot* end_;
  };

  /// Visits occupied slots with index in [begin, end) of the slot array, in
  /// index order — the sharded-iteration hook for parallel consumers (each
  /// shard reads a disjoint contiguous slot range).
  template <typename Fn>
  void VisitSlotRange(std::size_t begin, std::size_t end, Fn&& fn) const {
    end = std::min(end, slots_.size());
    for (std::size_t i = begin; i < end; ++i) {
      if (slots_[i].key != kEmptyKey) fn(slots_[i].key, slots_[i].value);
    }
  }

  const_iterator begin() const {
    return const_iterator(slots_.data(), slots_.data() + slots_.size());
  }
  const_iterator end() const {
    return const_iterator(slots_.data() + slots_.size(),
                          slots_.data() + slots_.size());
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  /// First slot that either holds `key` or is empty (the insert position).
  std::size_t Probe(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = Mix64(key) & mask;
    while (slots_[i].key != key && slots_[i].key != kEmptyKey) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Rehash(std::size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    for (const Slot& s : old) {
      if (s.key == kEmptyKey) continue;
      const std::size_t mask = slots_.size() - 1;
      std::size_t i = Mix64(s.key) & mask;
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// Key-only sibling of FlatMap64 for membership tests over 64-bit keys
/// (edge keys, mostly): the same Mix64 linear probing, the same reserved
/// ~0 sentinel, no erase — but 8-byte slots, half of what a
/// FlatMap64<uint8_t> pays per slot once the value is padded to alignment.
class FlatSet64 {
 public:
  static constexpr std::uint64_t kEmptyKey = ~0ull;

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  /// Pre-sizes for `expected` keys, as FlatMap64::reserve.
  void reserve(std::size_t expected) {
    std::size_t cap = kMinCapacity;
    while (cap * 3 / 4 < expected) cap <<= 1;
    if (cap > slots_.size()) Rehash(cap);
  }

  /// Inserts `key`; true if it was absent.
  bool insert(std::uint64_t key) {
    assert(key != kEmptyKey);
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) {
      Rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    std::uint64_t& slot = slots_[Probe(key)];
    if (slot == key) return false;
    slot = key;
    ++size_;
    return true;
  }

  bool contains(std::uint64_t key) const {
    return !slots_.empty() && slots_[Probe(key)] == key;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  /// First slot that either holds `key` or is empty.
  std::size_t Probe(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = Mix64(key) & mask;
    while (slots_[i] != key && slots_[i] != kEmptyKey) i = (i + 1) & mask;
    return i;
  }

  void Rehash(std::size_t new_capacity) {
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(new_capacity, kEmptyKey);
    for (const std::uint64_t key : old) {
      if (key != kEmptyKey) slots_[Probe(key)] = key;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t size_ = 0;
};

}  // namespace cyclestream

#endif  // CYCLESTREAM_GRAPH_FLAT_MAP_H_
