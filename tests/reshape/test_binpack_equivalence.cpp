// The contract of the O(log b) packers: bit-for-bit identical bin
// assignments to the naive reference scans, across 1k seeded corpora with
// varied sizes, oversize items and both item orders; the fixed-k
// placements against std::min_element scans; and the growing tournament
// tree against a linear scan of the same residuals.

#include "reshape/binpack.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "reshape/pack_index.hpp"

#include "common/rng.hpp"
#include "corpus/distribution.hpp"

namespace reshape::pack {
namespace {

void expect_identical(const PackResult& got, const PackResult& want,
                      const char* algo, std::uint64_t seed) {
  ASSERT_EQ(got.bin_count(), want.bin_count())
      << algo << " bin count diverged, seed " << seed;
  for (std::size_t b = 0; b < got.bins.size(); ++b) {
    ASSERT_EQ(got.bins[b].capacity, want.bins[b].capacity)
        << algo << " bin " << b << " capacity, seed " << seed;
    ASSERT_EQ(got.bins[b].used, want.bins[b].used)
        << algo << " bin " << b << " used, seed " << seed;
    ASSERT_EQ(got.bins[b].item_ids, want.bins[b].item_ids)
        << algo << " bin " << b << " contents, seed " << seed;
  }
}

/// A small corpus with the long-tail size distribution, plus injected
/// oversize items (several times the largest capacity under test) and
/// occasional zero-size files.
std::vector<Item> fuzz_items(Rng& rng) {
  const corpus::FileSizeDistribution dist = corpus::text_400k_sizes();
  const std::size_t n =
      1 + static_cast<std::size_t>(rng.uniform_int(0, 299));
  std::vector<Item> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Bytes size = dist.sample(rng);
    const double roll = rng.uniform();
    if (roll < 0.05) {
      size = size * 64 + 2_MB;  // guaranteed oversize for every capacity
    } else if (roll < 0.08) {
      size = Bytes(0);
    }
    items.push_back(Item{i, size});
  }
  return items;
}

Bytes fuzz_capacity(Rng& rng) {
  constexpr std::uint64_t kChoices[] = {1'000, 8'000, 64'000, 256'000,
                                        1'000'000};
  return Bytes(kChoices[rng.uniform_below(std::size(kChoices))]);
}

TEST(PackEquivalence, TreeFirstFitMatchesReferenceAcross1kCorpora) {
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(seed);
    const std::vector<Item> items = fuzz_items(rng);
    const Bytes cap = fuzz_capacity(rng);
    for (const ItemOrder order :
         {ItemOrder::kOriginal, ItemOrder::kDecreasing}) {
      expect_identical(first_fit(items, cap, order),
                       first_fit_reference(items, cap, order), "first_fit",
                       seed);
    }
  }
}

TEST(PackEquivalence, MultisetBestFitMatchesReferenceAcross1kCorpora) {
  for (std::uint64_t seed = 1000; seed < 2000; ++seed) {
    Rng rng(seed);
    const std::vector<Item> items = fuzz_items(rng);
    const Bytes cap = fuzz_capacity(rng);
    for (const ItemOrder order :
         {ItemOrder::kOriginal, ItemOrder::kDecreasing}) {
      expect_identical(best_fit(items, cap, order),
                       best_fit_reference(items, cap, order), "best_fit",
                       seed);
    }
  }
}

// pack_into_k and uniform_bins moved from linear min-scans to a tournament
// tree + lazy min-heap; pin them to inline transcriptions of the original
// loops.

std::vector<Bin> naive_pack_into_k(std::span<const Item> items, std::size_t k,
                                   Bytes capacity) {
  std::vector<Bin> bins(k);
  for (Bin& b : bins) b.capacity = capacity;
  for (const Item& item : items) {
    Bin* target = nullptr;
    for (Bin& bin : bins) {
      if (bin.fits(item.size)) {
        target = &bin;
        break;
      }
    }
    if (target == nullptr) {
      target = &*std::min_element(
          bins.begin(), bins.end(),
          [](const Bin& a, const Bin& b) { return a.used < b.used; });
    }
    target->used += item.size;
    target->item_ids.push_back(item.id);
  }
  return bins;
}

std::vector<Bin> naive_uniform_bins(std::span<const Item> items,
                                    std::size_t k) {
  std::vector<Bin> bins(k);
  Bytes total{0};
  for (const Item& item : items) total += item.size;
  for (Bin& b : bins) b.capacity = total;
  for (const Item& item : items) {
    Bin& target = *std::min_element(
        bins.begin(), bins.end(),
        [](const Bin& a, const Bin& b) { return a.used < b.used; });
    target.used += item.size;
    target.item_ids.push_back(item.id);
  }
  return bins;
}

TEST(PackEquivalence, FixedBinPackersMatchNaiveScans) {
  for (std::uint64_t seed = 2000; seed < 2200; ++seed) {
    Rng rng(seed);
    const std::vector<Item> items = fuzz_items(rng);
    const Bytes cap = fuzz_capacity(rng);
    const std::size_t k =
        1 + static_cast<std::size_t>(rng.uniform_int(0, 15));
    const PackResult got_k{pack_into_k(items, k, cap)};
    const PackResult want_k{naive_pack_into_k(items, k, cap)};
    expect_identical(got_k, want_k, "pack_into_k", seed);
    const PackResult got_u{uniform_bins(items, k)};
    const PackResult want_u{naive_uniform_bins(items, k)};
    expect_identical(got_u, want_u, "uniform_bins", seed);
  }
}

// The placement rules themselves against the textbook scans, decision by
// decision: place_least_loaded takes std::min_element's bin (lowest index
// among ties); place_into_k takes the leftmost bin with room, else spills
// there.  Instance counts from 1 to more than the item count, all-equal sizes
// (every choice a tie), zero-size items, and oversize items that spill.

std::vector<std::size_t> naive_placements(const std::vector<Item>& items,
                                          std::size_t k, Bytes capacity) {
  std::vector<Bytes> used(k, Bytes{0});
  std::vector<std::size_t> placed;
  for (const Item& item : items) {
    std::size_t at = 0;
    if (capacity.count() > 0) {
      while (at < k && used[at] + item.size > capacity) ++at;
    }
    if (capacity.count() == 0 || at == k) {
      at = static_cast<std::size_t>(
          std::min_element(used.begin(), used.end()) - used.begin());
    }
    used[at] += item.size;
    placed.push_back(at);
  }
  return placed;
}

/// place_into_k when `capacity` is nonzero, else place_least_loaded.
std::vector<std::size_t> tree_placements(const std::vector<Item>& items,
                                         std::size_t k, Bytes capacity) {
  std::vector<std::size_t> placed;
  const auto record = [&placed](std::size_t at, const Item&) {
    placed.push_back(at);
  };
  const std::span<const Item> seq(items);
  if (capacity.count() > 0) {
    place_into_k(seq, k, capacity, record);
  } else {
    place_least_loaded(seq, k, record);
  }
  return placed;
}

TEST(PackEquivalence, WinnerTreePlacementsMatchNaiveScans) {
  Rng rng(5150);
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{7}, std::size_t{64}, std::size_t{85},
                              std::size_t{1000}}) {
    std::vector<std::vector<Item>> sets;
    for (int i = 0; i < 8; ++i) sets.push_back(fuzz_items(rng));
    for (const Bytes size : {Bytes(0), Bytes(100)}) {  // ties everywhere
      std::vector<Item> same;
      for (std::uint64_t id = 0; id < 3 * k + 5; ++id) {
        same.push_back(Item{id, size});
      }
      sets.push_back(same);
      same.resize(k / 2);  // fewer items than bins
      sets.push_back(std::move(same));
    }
    for (const std::vector<Item>& items : sets) {
      Bytes volume{0};
      for (const Item& item : items) volume += item.size;
      // No capacity (uniform), a tight one (most items spill), one at 3/4
      // of an even share (the tail spills), and room for everything.
      for (const Bytes cap :
           {Bytes(0), Bytes(1'000), volume * 3 / (4 * k) + Bytes(1),
            volume + Bytes(1)}) {
        ASSERT_EQ(tree_placements(items, k, cap),
                  naive_placements(items, k, cap))
            << "k " << k << ", " << items.size() << " items, capacity "
            << cap.count();
      }
    }
  }
}

// The tree starts at one leaf and doubles as bins open.  Bin counts on
// both sides of every power of two up to 2^12 leaves: `target` items in
// (cap/2, cap] or oversize each open a bin of their own, and zero-size and
// tiny items land in the open bins' residuals (or open more).
TEST(PackEquivalence, GrowingTreeMatchesReferenceAcrossDoublings) {
  const Bytes cap(1'000'000);
  Rng rng(4242);
  for (std::size_t leaves = 1; leaves <= 4096; leaves *= 2) {
    for (const std::size_t target : {leaves, leaves + 1}) {
      std::vector<Item> items;
      for (std::size_t opened = 0; opened < target;) {
        const double roll = rng.uniform();
        Bytes size(0);
        if (roll < 0.1) {
          size = Bytes(0);
        } else if (roll < 0.3) {
          size = Bytes(1 + rng.uniform_below(20'000));
        } else if (roll < 0.35) {
          size = cap * 3 + Bytes(rng.uniform_below(1000));  // oversize
          ++opened;
        } else {
          size = cap / 2 + Bytes(1 + rng.uniform_below(500'000));
          ++opened;
        }
        items.push_back(Item{items.size(), size});
      }
      for (const ItemOrder order :
           {ItemOrder::kOriginal, ItemOrder::kDecreasing}) {
        const PackResult want = first_fit_reference(items, cap, order);
        ASSERT_GE(want.bin_count(), target);
        expect_identical(first_fit(items, cap, order), want,
                         "first_fit (doubling)", target);
      }
    }
  }
}

// deduct() stops its upward walk at the first ancestor whose max does not
// change.  Lowering the max leaf below its sibling must still lower every
// ancestor on the way up; lowering a non-max leaf must leave them alone.
TEST(ResidualTree, DeductBelowSiblingUpdatesAncestors) {
  detail::ResidualTree tree;
  for (const std::int64_t r : {10, 8, 5, 9}) tree.push_bin(r);
  EXPECT_EQ(tree.find_first(10), 0u);
  tree.deduct(0, 7);  // 10 -> 3, below its sibling's 8
  EXPECT_EQ(tree.residual(0), 3);
  EXPECT_EQ(tree.find_first(10), detail::ResidualTree::npos);
  EXPECT_EQ(tree.find_first(9), 3u);
  EXPECT_EQ(tree.find_first(8), 1u);
  EXPECT_EQ(tree.find_first(3), 0u);
  tree.deduct(2, 1);  // 5 -> 4: not a max anywhere above it
  EXPECT_EQ(tree.residual(2), 4);
  EXPECT_EQ(tree.find_first(9), 3u);
  EXPECT_EQ(tree.find_first(4), 1u);
  EXPECT_EQ(tree.find_first(3), 0u);
  tree.deduct(3, 20);  // 9 -> -11: spilled past capacity
  EXPECT_EQ(tree.find_first(9), detail::ResidualTree::npos);
  EXPECT_EQ(tree.find_first(0), 0u);
  tree.deduct(0, 3);
  tree.deduct(1, 8);
  tree.deduct(2, 4);  // every residual <= 0 now
  EXPECT_EQ(tree.find_first(1), detail::ResidualTree::npos);
  EXPECT_EQ(tree.find_first(0), 0u);
}

// Random opens and deductions (growth included) against a linear scan.
TEST(ResidualTree, MatchesLinearScanUnderRandomOps) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    detail::ResidualTree tree;
    std::vector<std::int64_t> residuals;
    for (int op = 0; op < 3000; ++op) {
      if (residuals.empty() || rng.uniform() < 0.3) {
        const auto r = static_cast<std::int64_t>(rng.uniform_below(1000));
        ASSERT_EQ(tree.push_bin(r), residuals.size());
        residuals.push_back(r);
      } else {
        const std::size_t bin = rng.uniform_below(residuals.size());
        const auto amount = static_cast<std::int64_t>(rng.uniform_below(300));
        tree.deduct(bin, amount);
        residuals[bin] -= amount;
      }
      const auto need = static_cast<std::int64_t>(rng.uniform_below(1000));
      const auto it =
          std::find_if(residuals.begin(), residuals.end(),
                       [need](std::int64_t r) { return r >= need; });
      const std::size_t want =
          it == residuals.end()
              ? detail::ResidualTree::npos
              : static_cast<std::size_t>(it - residuals.begin());
      ASSERT_EQ(tree.find_first(need), want) << "seed " << seed << " op " << op;
    }
  }
}

}  // namespace
}  // namespace reshape::pack
