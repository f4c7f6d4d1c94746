// Bin packing — the mechanism behind input reshaping.
//
// The paper merges small files into unit-sized blocks with the subset-sum
// first-fit heuristic (§1, §4, citing Vazirani): bins have capacity equal
// to the desired unit file size, and items are offered to the first bin
// with room.  §5.2 deliberately packs in *original order* rather than
// descending order, because first-fit-decreasing front-loads large files
// and the POS tagger degrades on them; both orders are provided, along
// with best-fit and next-fit baselines and a fixed-bin-count mode used by
// the deadline planner.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"

namespace reshape::pack {

/// One item to pack (a file).
struct Item {
  std::uint64_t id = 0;
  Bytes size{0};
};

/// One bin (a merged block / an instance's share).
struct Bin {
  Bytes capacity{0};
  Bytes used{0};
  std::vector<std::uint64_t> item_ids;

  [[nodiscard]] Bytes free() const { return capacity - used; }
  [[nodiscard]] bool fits(Bytes size) const { return used + size <= capacity; }
};

enum class ItemOrder {
  kOriginal,    // as provided (the paper's choice for POS, §5.2)
  kDecreasing,  // first-fit-decreasing: tighter bins, front-loads big files
};

struct PackResult {
  std::vector<Bin> bins;

  [[nodiscard]] std::size_t bin_count() const { return bins.size(); }
  [[nodiscard]] Bytes total_packed() const;
  /// Mean fill fraction across bins.
  [[nodiscard]] double mean_utilization() const;
  /// Number of items across all bins.
  [[nodiscard]] std::size_t item_count() const;
};

/// Subset-sum first-fit: opens a new bin of `capacity` whenever no
/// existing bin fits.  Items larger than `capacity` get a dedicated
/// oversize bin (files are unsplittable, §5).  Each placement is O(log b)
/// via a tournament tree over bin residuals; bin assignments are
/// bit-for-bit identical to first_fit_reference.
[[nodiscard]] PackResult first_fit(std::span<const Item> items, Bytes capacity,
                                   ItemOrder order = ItemOrder::kOriginal);

/// Best-fit: place each item in the fullest bin that still fits it.
/// Each placement is O(log b) via a balanced multiset keyed on free
/// space; bin assignments are bit-for-bit identical to
/// best_fit_reference.
[[nodiscard]] PackResult best_fit(std::span<const Item> items, Bytes capacity,
                                  ItemOrder order = ItemOrder::kOriginal);

/// Textbook O(n·b) first-fit: scans every open bin per item.  Kept as the
/// equivalence oracle for the tree-based first_fit and as the baseline in
/// bench/micro_binpack.
[[nodiscard]] PackResult first_fit_reference(
    std::span<const Item> items, Bytes capacity,
    ItemOrder order = ItemOrder::kOriginal);

/// Textbook O(n·b) best-fit scan.  Oracle/baseline for best_fit.
[[nodiscard]] PackResult best_fit_reference(
    std::span<const Item> items, Bytes capacity,
    ItemOrder order = ItemOrder::kOriginal);

/// Next-fit: only the most recently opened bin is a candidate.
[[nodiscard]] PackResult next_fit(std::span<const Item> items, Bytes capacity);

/// Packs into exactly `k` bins of `capacity` by first-fit; items that fit
/// in no bin spill into the currently least-loaded bin (capacity is a
/// target, not a hard limit — the planner prefers a balanced overflow to
/// an unschedulable input).  Returns k bins.  O(n log k): tournament-tree
/// fit queries plus a winner tree over the loads for the spill target.
[[nodiscard]] std::vector<Bin> pack_into_k(std::span<const Item> items,
                                           std::size_t k, Bytes capacity,
                                           ItemOrder order = ItemOrder::kOriginal);

/// Balanced assignment into `k` bins: each item goes to the least-loaded
/// bin (greedy makespan balance; the paper's "distribute the data
/// uniformly" improvement, Fig. 8(b)).  O(n log k) via a winner tree.
[[nodiscard]] std::vector<Bin> uniform_bins(std::span<const Item> items,
                                            std::size_t k);

/// Lower bound on bins needed: ceil(total / capacity).
[[nodiscard]] std::size_t bin_lower_bound(std::span<const Item> items,
                                          Bytes capacity);

}  // namespace reshape::pack
