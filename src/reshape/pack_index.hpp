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
//   * LoadTree — a winner tree over k bin loads for the least-loaded-bin
//     choices of pack_into_k / uniform_bins: the root is the lightest bin
//     (lowest index among ties), and a placement rewrites one path.
//
// Residuals are signed: pack_into_k spills past capacity, driving a bin's
// residual negative, and a negative residual must simply never match a
// (non-negative) item size.
//
// The placement rules below walk any sequence of elements with `id` and
// `size` members — pack::Item or corpus::VirtualFile — and report each
// decision as place(bin, element).  first_fit / pack_into_k /
// uniform_bins fill Bins from those calls (add_to_bin), merge_to_unit also
// digests each block as its files land, and the planner keeps only
// per-instance totals.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
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

/// Winner tree over `bins` loads: each internal node holds the index of
/// its subtree's least-loaded bin, lowest index among ties — the bin
/// std::min_element picks — so the root holds the overall one.  Leaves are
/// padded to a power of two with UINT64_MAX loads; padding sits right of
/// every real leaf and ties go left, so it never wins.  add() replays the
/// one leaf-to-root path: no pushes, no stale entries, no allocation.
class LoadTree {
 public:
  explicit LoadTree(std::size_t bins)
      : leaves_(std::bit_ceil(bins)), load_(leaves_, kPad), win_(2 * leaves_) {
    std::fill_n(load_.begin(), bins, 0);
    for (std::size_t i = 0; i < leaves_; ++i) win_[leaves_ + i] = i;
    for (std::size_t n = leaves_ - 1; n >= 1; --n) replay(n);
  }

  /// Index of the least-loaded bin (lowest index among ties).
  [[nodiscard]] std::size_t min_index() const { return win_[1]; }

  void add(std::size_t bin, std::uint64_t amount) {
    load_[bin] += amount;
    for (std::size_t n = (leaves_ + bin) / 2; n >= 1; n /= 2) replay(n);
  }

 private:
  /// Node n takes the lighter child's winner; the left one on a tie.
  void replay(std::size_t n) {
    const std::size_t left = win_[2 * n];
    const std::size_t right = win_[2 * n + 1];
    win_[n] = load_[right] < load_[left] ? right : left;
  }

  static constexpr std::uint64_t kPad =
      std::numeric_limits<std::uint64_t>::max();

  std::size_t leaves_;
  std::vector<std::uint64_t> load_;  // per leaf
  std::vector<std::size_t> win_;     // per node; leaves hold themselves
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

/// Subset-sum first-fit: each element goes to the leftmost open bin with
/// room, or opens the next bin with room for max(capacity, size) — files
/// are unsplittable, so an oversize one gets a bin of its own size.  A
/// place(bin, element) whose bin is one past every bin reported so far
/// opens that bin.
template <typename T, typename Place>
void place_first_fit(std::span<const T> seq, Bytes capacity, Place&& place) {
  RESHAPE_REQUIRE(capacity.count() > 0, "bin capacity must be nonzero");
  detail::ResidualTree tree;
  for (const T& x : seq) {
    const std::int64_t need = detail::signed_size(x.size);
    std::size_t at = tree.find_first(need);
    if (at == detail::ResidualTree::npos) {
      at = tree.push_bin(static_cast<std::int64_t>(
          (std::max(capacity, x.size) - x.size).count()));
    } else {
      tree.deduct(at, need);
    }
    place(at, x);
  }
}

/// Adds `x` to bins[at].  `at == bins.size()` is a bin place_first_fit
/// just opened: it is appended with room for max(capacity, x.size) first.
template <typename T>
void add_to_bin(std::vector<Bin>& bins, std::size_t at, const T& x,
                Bytes capacity) {
  if (at == bins.size()) {
    bins.push_back(Bin{std::max(capacity, x.size), Bytes{0}, {}});
  }
  bins[at].used += x.size;
  bins[at].item_ids.push_back(x.id);
}

/// pack_into_k's rule over exactly `k` bins of `capacity`: first-fit, and
/// an element that fits nowhere spills into the least-loaded bin.
template <typename T, typename Place>
void place_into_k(std::span<const T> seq, std::size_t k, Bytes capacity,
                  Place&& place) {
  RESHAPE_REQUIRE(k > 0, "need at least one bin");
  RESHAPE_REQUIRE(capacity.count() > 0, "bin capacity must be nonzero");
  detail::ResidualTree tree;
  detail::LoadTree loads(k);
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
  detail::LoadTree loads(k);
  for (const T& x : seq) {
    const std::size_t at = loads.min_index();
    loads.add(at, x.size.count());
    place(at, x);
  }
}

}  // namespace reshape::pack
