#pragma once

// Open-addressing hash containers for the steady-state day loop.
// libstdc++'s node-based std::unordered_map/set allocate one node per
// insert forever, so a container that keeps growing by a trickle
// (the candidate counters, the first-seen dedup sets) can never go
// allocation-quiet. These flat tables store entries inline in one
// power-of-two slot array with linear probing: a warm table inserts
// with zero heap traffic, growth is geometric (amortized-zero, and
// reserve() can front-load it entirely), and clear() keeps capacity.
//
// No erase — nothing in the day loop removes entries — which keeps
// the probe sequences tombstone-free. Iteration order is the slot
// order (a deterministic function of the inserted key set and the
// growth history, but NOT sorted): every consumer that needs a
// canonical order sorts, exactly as the unordered_map consumers
// already did.
//
// The grow()/reserve() members are the only allocation sites, kept
// out-of-line-able under -fno-inline so the symlint noalloc policy can
// allowlist them by name next to std::vector's growth machinery (the
// same capacity-elastic policy: allocate while warming up, never
// again — the runtime counting-allocator test pins the quiet half).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace v6h::util {

inline constexpr std::uint64_t flat_hash_mix(std::uint64_t x) {
  // splitmix64 finalizer: the containers mask the hash down to a
  // power of two, so user hashes (AddressHash and friends) get one
  // extra full-avalanche round instead of trusting their low bits.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

template <typename Key, typename T, typename Hash>
class FlatMap {
 public:
  using value_type = std::pair<Key, T>;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Drop all entries, keep capacity (steady-state reuse).
  void clear() {
    std::fill(used_.begin(), used_.end(), std::uint8_t{0});
    size_ = 0;
  }

  /// Pre-size so that `n` entries fit without any further growth.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (n + n / 2 >= cap) cap <<= 1;  // keep load under ~2/3
    if (cap > slots_.size()) rehash(cap);
  }

  /// Find or default-insert, returning (entry, inserted). The flat
  /// equivalent of unordered_map::try_emplace(key): a present key is
  /// untouched — and unlike the node containers, probing for a
  /// present key allocates nothing ever.
  std::pair<value_type*, bool> try_emplace(const Key& key) {
    if (need_grow()) grow();
    std::size_t i = index_of(key);
    while (used_[i]) {
      if (slots_[i].first == key) return {&slots_[i], false};
      i = (i + 1) & mask_;
    }
    used_[i] = 1;
    slots_[i].first = key;
    // T(), not T{}: list-init would reject mapped types whose default
    // state comes from an explicit defaulted-argument constructor.
    slots_[i].second = T();
    ++size_;
    return {&slots_[i], true};
  }

  T& operator[](const Key& key) { return try_emplace(key).first->second; }

  const T* find(const Key& key) const {
    if (slots_.empty()) return nullptr;
    std::size_t i = index_of(key);
    while (used_[i]) {
      if (slots_[i].first == key) return &slots_[i].second;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  T* find(const Key& key) {
    return const_cast<T*>(static_cast<const FlatMap*>(this)->find(key));
  }

  template <bool Const>
  class Iter {
   public:
    using Map = std::conditional_t<Const, const FlatMap, FlatMap>;
    using Ref = std::conditional_t<Const, const value_type&, value_type&>;
    Iter(Map* map, std::size_t i) : map_(map), i_(i) { skip(); }
    Ref operator*() const { return map_->slots_[i_]; }
    Iter& operator++() {
      ++i_;
      skip();
      return *this;
    }
    bool operator!=(const Iter& other) const { return i_ != other.i_; }

   private:
    void skip() {
      while (i_ < map_->slots_.size() && !map_->used_[i_]) ++i_;
    }
    Map* map_;
    std::size_t i_;
  };

  Iter<false> begin() { return {this, 0}; }
  Iter<false> end() { return {this, slots_.size()}; }
  Iter<true> begin() const { return {this, 0}; }
  Iter<true> end() const { return {this, slots_.size()}; }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  std::size_t index_of(const Key& key) const {
    return static_cast<std::size_t>(flat_hash_mix(Hash{}(key))) & mask_;
  }
  bool need_grow() const {
    return slots_.empty() || (size_ + 1) + (size_ + 1) / 2 >= slots_.size();
  }
  void grow() { rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2); }

  void rehash(std::size_t cap) {
    std::vector<value_type> old_slots(cap);
    std::vector<std::uint8_t> old_used(cap, 0);
    old_slots.swap(slots_);
    old_used.swap(used_);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (!old_used[i]) continue;
      std::size_t j = index_of(old_slots[i].first);
      while (used_[j]) j = (j + 1) & mask_;
      used_[j] = 1;
      slots_[j] = std::move(old_slots[i]);
    }
  }

  std::vector<value_type> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

template <typename Key, typename Hash>
class FlatSet {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    std::fill(used_.begin(), used_.end(), std::uint8_t{0});
    size_ = 0;
  }

  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (n + n / 2 >= cap) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
  }

  /// True when `key` was inserted (first sighting).
  bool insert(const Key& key) {
    if (need_grow()) grow();
    std::size_t i = index_of(key);
    while (used_[i]) {
      if (slots_[i] == key) return false;
      i = (i + 1) & mask_;
    }
    used_[i] = 1;
    slots_[i] = key;
    ++size_;
    return true;
  }

  bool contains(const Key& key) const {
    if (slots_.empty()) return false;
    std::size_t i = index_of(key);
    while (used_[i]) {
      if (slots_[i] == key) return true;
      i = (i + 1) & mask_;
    }
    return false;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  std::size_t index_of(const Key& key) const {
    return static_cast<std::size_t>(flat_hash_mix(Hash{}(key))) & mask_;
  }
  bool need_grow() const {
    return slots_.empty() || (size_ + 1) + (size_ + 1) / 2 >= slots_.size();
  }
  void grow() { rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2); }

  void rehash(std::size_t cap) {
    std::vector<Key> old_slots(cap);
    std::vector<std::uint8_t> old_used(cap, 0);
    old_slots.swap(slots_);
    old_used.swap(used_);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (!old_used[i]) continue;
      std::size_t j = index_of(old_slots[i]);
      while (used_[j]) j = (j + 1) & mask_;
      used_[j] = 1;
      slots_[j] = std::move(old_slots[i]);
    }
  }

  std::vector<Key> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace v6h::util
