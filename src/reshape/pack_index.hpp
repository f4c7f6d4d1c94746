// Index structures that make bin-packing placements O(log b), and the
// placement rules built on them.
//
// The naive packers scan every open bin per item — quadratic over a
// million-file corpus.  These structures carry the same decisions in
// logarithmic time:
//
//   * ResidualTree — a tournament tree (segment tree with max aggregation)
//     over per-bin residual capacities.  find_first(need) descends from the
//     root preferring the left child, so it returns the *leftmost* bin with
//     residual >= need — exactly the bin naive first-fit would pick.  It
//     holds one leaf per opened bin, doubling as bins open, so its memory
//     follows the bins a packer produces, not the items it places.
//   * BestFitIndex — a balanced multiset keyed on (free space, bin index).
//     lower_bound((need, 0)) yields the fullest bin that still fits, with
//     ties broken toward the earliest-opened bin — exactly naive best-fit.
//   * LoadHeap — a lazy min-heap over (bin load, bin index) for the
//     least-loaded-bin scans in pack_into_k / uniform_bins.  Loads only
//     grow, so stale entries surface before fresh ones and are popped.
//
// Residuals are signed: pack_into_k spills past capacity, driving a bin's
// residual negative, and a negative residual must simply never match a
// (non-negative) item size.
//
// The placement rules below walk any sequence of elements with `id` and
// `size` members — pack::Item or corpus::VirtualFile.  first_fit_bins
// builds Bins (first_fit, and merge_to_unit over a corpus's files in
// place); place_into_k and place_least_loaded report each decision as
// place(bin, element), so pack_into_k / uniform_bins fill Bins from them
// and the planner keeps only per-instance totals.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "reshape/binpack.hpp"

namespace reshape::pack {
namespace detail {

/// Tournament tree over bin residual capacities; leftmost-fit queries and
/// point updates in O(log b) for b opened bins.
class ResidualTree {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  /// Index of the leftmost bin with residual >= need, or npos.  `need`
  /// must be non-negative (unopened leaves sit at a negative sentinel).
  [[nodiscard]] std::size_t find_first(std::int64_t need) const {
    if (tree_[1] < need) return npos;
    std::size_t node = 1;
    while (node < leaves_) {
      node *= 2;
      if (tree_[node] < need) ++node;
    }
    return node - leaves_;
  }

  /// Opens the next bin with the given residual; returns its index.
  std::size_t push_bin(std::int64_t residual) {
    if (bins_ == leaves_) grow();
    const std::size_t bin = bins_++;
    set(bin, residual);
    return bin;
  }

  /// Lowers a bin's residual by `amount` (may go negative: spill mode).
  void deduct(std::size_t bin, std::int64_t amount) {
    set(bin, tree_[leaves_ + bin] - amount);
  }

  [[nodiscard]] std::int64_t residual(std::size_t bin) const {
    return tree_[leaves_ + bin];
  }

 private:
  /// Writes a leaf and refreshes its ancestors, stopping at the first one
  /// whose max is unchanged: everything above it is unchanged too.
  void set(std::size_t bin, std::int64_t value) {
    std::size_t node = leaves_ + bin;
    tree_[node] = value;
    for (node /= 2; node >= 1; node /= 2) {
      const std::int64_t max = std::max(tree_[2 * node], tree_[2 * node + 1]);
      if (tree_[node] == max) break;
      tree_[node] = max;
    }
  }

  /// Doubles the leaves.  The old tree becomes the new root's left
  /// subtree: its level of width w moves from [w, 2w) to [2w, 3w).
  void grow() {
    std::vector<std::int64_t> wider(4 * leaves_, kClosed);
    for (std::size_t width = 1; width <= leaves_; width *= 2) {
      std::copy_n(tree_.begin() + static_cast<std::ptrdiff_t>(width), width,
                  wider.begin() + static_cast<std::ptrdiff_t>(2 * width));
    }
    wider[1] = tree_[1];
    tree_ = std::move(wider);
    leaves_ *= 2;
  }

  static constexpr std::int64_t kClosed =
      std::numeric_limits<std::int64_t>::min();

  std::size_t leaves_ = 1;
  std::size_t bins_ = 0;
  std::vector<std::int64_t> tree_ = std::vector<std::int64_t>(2, kClosed);
};

/// Balanced multiset of (free space, bin index): tightest-fit queries in
/// O(log b) with naive best-fit's first-opened tie-break.
class BestFitIndex {
 public:
  /// Fullest bin with free >= need (ties: lowest index), or npos.
  [[nodiscard]] std::size_t tightest(std::int64_t need) const {
    const auto it = by_free_.lower_bound({need, 0});
    if (it == by_free_.end()) return npos;
    return it->second;
  }

  void insert(std::size_t bin, std::int64_t free) {
    by_free_.emplace(free, bin);
  }

  /// Re-keys `bin` from free space `from` to `to`.
  void update(std::size_t bin, std::int64_t from, std::int64_t to) {
    by_free_.erase(by_free_.find({from, bin}));
    by_free_.emplace(to, bin);
  }

  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

 private:
  std::set<std::pair<std::int64_t, std::size_t>> by_free_;
};

/// Lazy min-heap over bin loads for least-loaded-bin selection in O(log n)
/// amortized.  Matches std::min_element's lowest-index tie-break because
/// entries order lexicographically on (load, index).
class LoadHeap {
 public:
  explicit LoadHeap(std::size_t bins) : load_(bins, 0) {
    for (std::size_t i = 0; i < bins; ++i) heap_.emplace(0, i);
  }

  /// Index of the least-loaded bin (lowest index among ties).
  [[nodiscard]] std::size_t min_index() {
    while (heap_.top().first != load_[heap_.top().second]) heap_.pop();
    return heap_.top().second;
  }

  void add(std::size_t bin, std::uint64_t amount) {
    load_[bin] += amount;
    heap_.emplace(load_[bin], bin);
  }

 private:
  std::vector<std::uint64_t> load_;
  std::priority_queue<std::pair<std::uint64_t, std::size_t>,
                      std::vector<std::pair<std::uint64_t, std::size_t>>,
                      std::greater<>>
      heap_;
};

/// The indices keep residuals as signed 64-bit; sizes at or above 2^63
/// would alias the unopened-leaf sentinel range.
inline std::int64_t signed_size(Bytes size) {
  RESHAPE_REQUIRE(
      size.count() <=
          static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()),
      "item size exceeds the packer's 2^63-1 byte limit");
  return static_cast<std::int64_t>(size.count());
}

}  // namespace detail

/// `items` in `order`: the span itself for kOriginal; for kDecreasing, a
/// stably size-sorted copy kept in `sorted`.
template <typename T>
std::span<const T> in_order(std::span<const T> items, ItemOrder order,
                            std::vector<T>& sorted) {
  if (order == ItemOrder::kOriginal) return items;
  sorted.assign(items.begin(), items.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const T& a, const T& b) { return a.size > b.size; });
  return sorted;
}

/// Subset-sum first-fit into Bins: each element goes to the leftmost
/// open bin with room, or opens a bin of max(capacity, size) — files are
/// unsplittable, so an oversize one gets a bin of its own size.
template <typename T>
std::vector<Bin> first_fit_bins(std::span<const T> seq, Bytes capacity) {
  RESHAPE_REQUIRE(capacity.count() > 0, "bin capacity must be nonzero");
  std::vector<Bin> bins;
  detail::ResidualTree tree;
  for (const T& x : seq) {
    const std::int64_t need = detail::signed_size(x.size);
    std::size_t at = tree.find_first(need);
    if (at == detail::ResidualTree::npos) {
      bins.push_back(Bin{std::max(capacity, x.size), Bytes{0}, {}});
      at = tree.push_bin(
          static_cast<std::int64_t>((bins.back().capacity - x.size).count()));
    } else {
      tree.deduct(at, need);
    }
    bins[at].used += x.size;
    bins[at].item_ids.push_back(x.id);
  }
  return bins;
}

/// pack_into_k's rule over exactly `k` bins of `capacity`: first-fit, and
/// an element that fits nowhere spills into the least-loaded bin.
template <typename T, typename Place>
void place_into_k(std::span<const T> seq, std::size_t k, Bytes capacity,
                  Place&& place) {
  RESHAPE_REQUIRE(k > 0, "need at least one bin");
  RESHAPE_REQUIRE(capacity.count() > 0, "bin capacity must be nonzero");
  detail::ResidualTree tree;
  detail::LoadHeap loads(k);
  for (std::size_t i = 0; i < k; ++i) {
    tree.push_bin(static_cast<std::int64_t>(capacity.count()));
  }
  for (const T& x : seq) {
    const std::int64_t need = detail::signed_size(x.size);
    std::size_t at = tree.find_first(need);
    if (at == detail::ResidualTree::npos) {
      // Spill to the least-loaded bin; capacity becomes advisory.
      at = loads.min_index();
    }
    tree.deduct(at, need);
    loads.add(at, x.size.count());
    place(at, x);
  }
}

/// uniform_bins' rule: each element goes to the least-loaded of `k` bins
/// (lowest index among ties).
template <typename T, typename Place>
void place_least_loaded(std::span<const T> seq, std::size_t k,
                        Place&& place) {
  RESHAPE_REQUIRE(k > 0, "need at least one bin");
  detail::LoadHeap loads(k);
  for (const T& x : seq) {
    const std::size_t at = loads.min_index();
    loads.add(at, x.size.count());
    place(at, x);
  }
}

}  // namespace reshape::pack
