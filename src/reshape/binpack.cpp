#include "reshape/binpack.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "reshape/pack_index.hpp"

namespace reshape::pack {

Bytes PackResult::total_packed() const {
  Bytes total{0};
  for (const Bin& b : bins) total += b.used;
  return total;
}

double PackResult::mean_utilization() const {
  if (bins.empty()) return 0.0;
  double sum = 0.0;
  for (const Bin& b : bins) {
    if (b.capacity.count() > 0) {
      sum += b.used.as_double() / b.capacity.as_double();
    }
  }
  return sum / static_cast<double>(bins.size());
}

std::size_t PackResult::item_count() const {
  std::size_t n = 0;
  for (const Bin& b : bins) n += b.item_ids.size();
  return n;
}

namespace {

void place_new_bin(std::vector<Bin>& bins, const Item& item, Bytes capacity) {
  Bin bin;
  // Oversize items are unsplittable: give them a bin of their own size.
  bin.capacity = std::max(capacity, item.size);
  bin.used = item.size;
  bin.item_ids.push_back(item.id);
  bins.push_back(std::move(bin));
}

/// place(bin, item) callback that adds the item to `bins[bin]`.
auto add_to(std::vector<Bin>& bins, Bytes capacity) {
  return [&bins, capacity](std::size_t at, const Item& item) {
    add_to_bin(bins, at, item, capacity);
  };
}

}  // namespace

PackResult first_fit(std::span<const Item> items, Bytes capacity,
                     ItemOrder order) {
  PackResult result;
  std::vector<Item> sorted;
  place_first_fit(in_order(items, order, sorted), capacity,
                  add_to(result.bins, capacity));
  return result;
}

PackResult best_fit(std::span<const Item> items, Bytes capacity,
                    ItemOrder order) {
  RESHAPE_REQUIRE(capacity.count() > 0, "bin capacity must be nonzero");
  PackResult result;
  detail::BestFitIndex index;
  std::vector<Item> sorted;
  for (const Item& item : in_order(items, order, sorted)) {
    const std::int64_t need = detail::signed_size(item.size);
    const std::size_t at = index.tightest(need);
    if (at != detail::BestFitIndex::npos) {
      Bin& bin = result.bins[at];
      const auto free_before = static_cast<std::int64_t>(bin.free().count());
      bin.used += item.size;
      bin.item_ids.push_back(item.id);
      index.update(at, free_before, free_before - need);
    } else {
      place_new_bin(result.bins, item, capacity);
      index.insert(result.bins.size() - 1,
                   static_cast<std::int64_t>(result.bins.back().free().count()));
    }
  }
  return result;
}

PackResult first_fit_reference(std::span<const Item> items, Bytes capacity,
                               ItemOrder order) {
  RESHAPE_REQUIRE(capacity.count() > 0, "bin capacity must be nonzero");
  PackResult result;
  std::vector<Item> sorted;
  for (const Item& item : in_order(items, order, sorted)) {
    bool placed = false;
    for (Bin& bin : result.bins) {
      if (bin.fits(item.size)) {
        bin.used += item.size;
        bin.item_ids.push_back(item.id);
        placed = true;
        break;
      }
    }
    if (!placed) place_new_bin(result.bins, item, capacity);
  }
  return result;
}

PackResult best_fit_reference(std::span<const Item> items, Bytes capacity,
                              ItemOrder order) {
  RESHAPE_REQUIRE(capacity.count() > 0, "bin capacity must be nonzero");
  PackResult result;
  std::vector<Item> sorted;
  for (const Item& item : in_order(items, order, sorted)) {
    Bin* best = nullptr;
    for (Bin& bin : result.bins) {
      if (bin.fits(item.size) && (best == nullptr || bin.free() < best->free())) {
        best = &bin;
      }
    }
    if (best != nullptr) {
      best->used += item.size;
      best->item_ids.push_back(item.id);
    } else {
      place_new_bin(result.bins, item, capacity);
    }
  }
  return result;
}

PackResult next_fit(std::span<const Item> items, Bytes capacity) {
  RESHAPE_REQUIRE(capacity.count() > 0, "bin capacity must be nonzero");
  PackResult result;
  for (const Item& item : items) {
    if (!result.bins.empty() && result.bins.back().fits(item.size)) {
      result.bins.back().used += item.size;
      result.bins.back().item_ids.push_back(item.id);
    } else {
      place_new_bin(result.bins, item, capacity);
    }
  }
  return result;
}

std::vector<Bin> pack_into_k(std::span<const Item> items, std::size_t k,
                             Bytes capacity, ItemOrder order) {
  std::vector<Bin> bins(k, Bin{capacity, Bytes{0}, {}});
  std::vector<Item> sorted;
  place_into_k(in_order(items, order, sorted), k, capacity,
               add_to(bins, capacity));
  return bins;
}

std::vector<Bin> uniform_bins(std::span<const Item> items, std::size_t k) {
  RESHAPE_REQUIRE(k > 0, "need at least one bin");
  Bytes total{0};
  for (const Item& item : items) total += item.size;
  std::vector<Bin> bins(k, Bin{total, Bytes{0}, {}});  // capacity advisory
  place_least_loaded(items, k, add_to(bins, total));
  return bins;
}

std::size_t bin_lower_bound(std::span<const Item> items, Bytes capacity) {
  RESHAPE_REQUIRE(capacity.count() > 0, "bin capacity must be nonzero");
  Bytes total{0};
  for (const Item& item : items) total += item.size;
  return static_cast<std::size_t>(
      (total.count() + capacity.count() - 1) / capacity.count());
}

}  // namespace reshape::pack
