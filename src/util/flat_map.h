// Sorted flat containers: a set and a map kept as one sorted vector.
//
// They stand in for std::set / std::map where a container is small, built
// once and walked far more often than it is edited (guest configuration
// state, action parameters).  Iteration order is the same as the node-based
// containers' (ascending by key), so any bytes rendered by walking one are
// the same too.  Elements live in one allocation; an insert or erase moves
// the ones after it, and invalidates every iterator and reference.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <stdexcept>
#include <utility>
#include <vector>

namespace vmp::util {

namespace flat_detail {

/// Sorts `items` by `key_of` and drops every repeat of a key after its
/// first occurrence, as repeated inserts into a std::set / std::map would.
template <typename T, typename KeyOf>
void sort_unique_first_wins(std::vector<T>* items, KeyOf key_of) {
  const auto less = [&](const T& a, const T& b) {
    return key_of(a) < key_of(b);
  };
  if (std::adjacent_find(items->begin(), items->end(),
                         [&](const T& a, const T& b) { return !less(a, b); }) ==
      items->end()) {
    return;  // already strictly ascending: the common, encoder-made case
  }
  std::stable_sort(items->begin(), items->end(), less);
  items->erase(std::unique(items->begin(), items->end(),
                           [&](const T& a, const T& b) {
                             return !less(a, b);
                           }),
               items->end());
}

}  // namespace flat_detail

/// A sorted set of unique keys in one vector.
template <typename Key>
class FlatSet {
 public:
  using value_type = Key;
  using container_type = std::vector<Key>;
  using iterator = typename container_type::const_iterator;
  using const_iterator = iterator;

  FlatSet() = default;
  FlatSet(std::initializer_list<Key> init) : items_(init) { normalize(); }
  /// Takes `items` in any order; a repeated key keeps its first occurrence.
  static FlatSet from_unsorted(container_type items) {
    FlatSet out;
    out.items_ = std::move(items);
    out.normalize();
    return out;
  }

  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  void clear() { items_.clear(); }

  template <typename K>
  const_iterator find(const K& key) const {
    auto it = lower_bound(key);
    return it != end() && !(key < *it) ? it : end();
  }
  template <typename K>
  std::size_t count(const K& key) const { return find(key) != end() ? 1 : 0; }

  /// Inserts `key` unless present; second is whether it was inserted.
  std::pair<const_iterator, bool> insert(Key key) {
    auto it = lower_bound(key);
    if (it != end() && !(key < *it)) return {it, false};
    return {items_.insert(it, std::move(key)), true};
  }
  template <typename K>
  std::size_t erase(const K& key) {
    auto it = find(key);
    if (it == end()) return 0;
    items_.erase(it);
    return 1;
  }

  bool operator==(const FlatSet& other) const = default;

 private:
  template <typename K>
  const_iterator lower_bound(const K& key) const {
    return std::lower_bound(items_.begin(), items_.end(), key,
                            [](const Key& a, const K& k) { return a < k; });
  }
  void normalize() {
    flat_detail::sort_unique_first_wins(&items_,
                                        [](const Key& k) -> const Key& {
                                          return k;
                                        });
  }

  container_type items_;
};

/// A sorted map with unique keys in one vector of (key, value) pairs.
template <typename Key, typename Value>
class FlatMap {
 public:
  using value_type = std::pair<Key, Value>;
  using container_type = std::vector<value_type>;
  using iterator = typename container_type::iterator;
  using const_iterator = typename container_type::const_iterator;

  FlatMap() = default;
  FlatMap(std::initializer_list<value_type> init) : items_(init) {
    normalize();
  }
  /// Takes `items` in any order; a repeated key keeps its first occurrence.
  static FlatMap from_unsorted(container_type items) {
    FlatMap out;
    out.items_ = std::move(items);
    out.normalize();
    return out;
  }

  iterator begin() { return items_.begin(); }
  iterator end() { return items_.end(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  void clear() { items_.clear(); }

  template <typename K>
  iterator find(const K& key) {
    auto it = lower_bound(key);
    return it != end() && !(key < it->first) ? it : end();
  }
  template <typename K>
  const_iterator find(const K& key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }
  template <typename K>
  std::size_t count(const K& key) const { return find(key) != end() ? 1 : 0; }

  template <typename K>
  const Value& at(const K& key) const {
    auto it = find(key);
    if (it == end()) throw std::out_of_range("FlatMap::at: no such key");
    return it->second;
  }
  /// The value at `key`, value-initialised first when absent.
  Value& operator[](const Key& key) {
    auto it = lower_bound(key);
    if (it == end() || key < it->first) it = items_.emplace(it, key, Value());
    return it->second;
  }
  /// Inserts unless `key` is present; second is whether it was inserted.
  std::pair<iterator, bool> insert(value_type entry) {
    auto it = lower_bound(entry.first);
    if (it != end() && !(entry.first < it->first)) return {it, false};
    return {items_.insert(it, std::move(entry)), true};
  }
  template <typename K>
  std::size_t erase(const K& key) {
    auto it = find(key);
    if (it == end()) return 0;
    items_.erase(it);
    return 1;
  }

  bool operator==(const FlatMap& other) const = default;

 private:
  template <typename K>
  iterator lower_bound(const K& key) {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const value_type& a, const K& k) { return a.first < k; });
  }
  void normalize() {
    flat_detail::sort_unique_first_wins(
        &items_, [](const value_type& e) -> const Key& { return e.first; });
  }

  container_type items_;
};

}  // namespace vmp::util
