#include "reshape/merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "corpus/distribution.hpp"

namespace reshape::pack {
namespace {

corpus::Corpus sample_corpus(std::size_t n = 2000, std::uint64_t seed = 1) {
  Rng rng(seed);
  return corpus::Corpus::generate(corpus::text_400k_sizes(), n, rng);
}

TEST(MergeToUnit, EveryFileInExactlyOneBlock) {
  const corpus::Corpus c = sample_corpus();
  const MergedCorpus merged = merge_to_unit(c, 1_MB);
  std::set<std::uint64_t> seen;
  for (const Bin& block : merged.blocks) {
    for (const std::uint64_t id : block.item_ids) {
      EXPECT_TRUE(seen.insert(id).second);
    }
  }
  EXPECT_EQ(seen.size(), c.file_count());
  EXPECT_EQ(merged.total_volume(), c.total_volume());
}

TEST(MergeToUnit, BlocksRespectUnit) {
  const corpus::Corpus c = sample_corpus();
  const MergedCorpus merged = merge_to_unit(c, 1_MB);
  EXPECT_LE(merged.largest_block(), 1_MB);
  EXPECT_GT(merged.fill_factor(), 0.8);  // first-fit packs densely here
  EXPECT_LT(merged.block_count(), c.file_count());
}

TEST(MergeToUnit, ReducesFileCountDramatically) {
  // The headline mechanism: 2000 small files -> a handful of unit blocks.
  const corpus::Corpus c = sample_corpus();
  const MergedCorpus merged = merge_to_unit(c, 1_MB);
  EXPECT_LT(merged.block_count() * 100, c.file_count());
}

std::vector<Item> items_of(std::span<const corpus::VirtualFile> files) {
  std::vector<Item> items;
  for (const corpus::VirtualFile& f : files) items.push_back(Item{f.id, f.size});
  return items;
}

void expect_same_blocks(const std::vector<Bin>& got,
                        const std::vector<Bin>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t b = 0; b < got.size(); ++b) {
    EXPECT_EQ(got[b].capacity, want[b].capacity) << "block " << b;
    EXPECT_EQ(got[b].used, want[b].used) << "block " << b;
    ASSERT_EQ(got[b].item_ids, want[b].item_ids) << "block " << b;
  }
}

// merge_to_unit packs the corpus's files in place; it must give exactly
// the blocks and digests of first_fit over the materialised items.  The
// sampled corpus keeps its source ids, so ids are not positions, and the
// 64 kB unit is below the largest files (oversize blocks).
TEST(MergeToUnit, MatchesFirstFitOverMaterialisedItems) {
  Rng rng(7);
  const corpus::Corpus c =
      sample_corpus(20'000, 3).sample_volume(Bytes(40'000'000), rng);
  const std::vector<Item> items = items_of(c.files());
  for (const Bytes unit : {64_kB, 1_MB, 10_MB}) {
    for (const ItemOrder order :
         {ItemOrder::kOriginal, ItemOrder::kDecreasing}) {
      const MergedCorpus merged = merge_to_unit(c, unit, order);
      const PackResult want = first_fit(items, unit, order);
      expect_same_blocks(merged.blocks, want.bins);
      ASSERT_EQ(merged.digests.size(), want.bins.size());
      for (std::size_t b = 0; b < want.bins.size(); ++b) {
        EXPECT_EQ(merged.digests[b], block_digest(want.bins[b]));
      }
    }
  }
}

// The merge builds each block's digest while it places the files; every
// digest must equal block_digest over the finished block.  The unit sits
// below the largest files (oversize blocks), and the second corpus ends
// in a file too large for any open block, so its last file opens its last
// block.
TEST(MergeToUnit, DigestsEqualBlockDigest) {
  const auto expect_digests = [](const MergedCorpus& merged) {
    ASSERT_EQ(merged.digests.size(), merged.block_count());
    for (std::size_t b = 0; b < merged.block_count(); ++b) {
      EXPECT_EQ(merged.digests[b], block_digest(merged.blocks[b]))
          << "block " << b;
    }
  };
  std::vector<corpus::VirtualFile> files = sample_corpus(5000, 9).files();
  const corpus::Corpus plain{files};
  files.push_back(corpus::VirtualFile{files.size(), 3_MB, 1.0});
  const corpus::Corpus last_opens{std::move(files)};
  for (const corpus::Corpus* c : {&plain, &last_opens}) {
    for (const Bytes unit : {64_kB, 1_MB}) {
      for (const ItemOrder order :
           {ItemOrder::kOriginal, ItemOrder::kDecreasing}) {
        expect_digests(merge_to_unit(*c, unit, order));
        expect_digests(merge_to_unit_parallel(*c, unit, order, 3));
      }
    }
  }
  const MergedCorpus merged = merge_to_unit(last_opens, 1_MB);
  EXPECT_EQ(merged.blocks.back().item_ids,
            std::vector<std::uint64_t>{last_opens.file_count() - 1});
  EXPECT_GT(merged.blocks.back().used, 1_MB);
}

// Each shard packs its slice of the files in place: the blocks are
// first_fit over each contiguous slice's items, concatenated.
TEST(MergeToUnitParallel, ShardsMatchFirstFitOverTheirSlices) {
  const corpus::Corpus c = sample_corpus(10'000, 5);
  for (const ItemOrder order :
       {ItemOrder::kOriginal, ItemOrder::kDecreasing}) {
    const MergedCorpus merged = merge_to_unit_parallel(c, 1_MB, order, 3);
    std::vector<Bin> want;
    const std::size_t grain = (c.file_count() + 2) / 3;
    for (std::size_t begin = 0; begin < c.file_count(); begin += grain) {
      const std::size_t n = std::min(grain, c.file_count() - begin);
      const std::vector<Item> items =
          items_of(std::span(c.files()).subspan(begin, n));
      for (Bin& bin : first_fit(items, 1_MB, order).bins) {
        want.push_back(std::move(bin));
      }
    }
    expect_same_blocks(merged.blocks, want);
  }
}

TEST(MergeToUnitParallel, EveryFileInExactlyOneBlock) {
  const corpus::Corpus c = sample_corpus();
  const MergedCorpus merged =
      merge_to_unit_parallel(c, 1_MB, ItemOrder::kOriginal, 4);
  std::set<std::uint64_t> seen;
  for (const Bin& block : merged.blocks) {
    for (const std::uint64_t id : block.item_ids) {
      EXPECT_TRUE(seen.insert(id).second);
    }
    EXPECT_LE(block.used, block.capacity);
  }
  EXPECT_EQ(seen.size(), c.file_count());
  EXPECT_EQ(merged.total_volume(), c.total_volume());
}

TEST(MergeToUnitParallel, DeterministicForFixedShardCount) {
  const corpus::Corpus c = sample_corpus();
  const MergedCorpus a =
      merge_to_unit_parallel(c, 500_kB, ItemOrder::kOriginal, 4);
  const MergedCorpus b =
      merge_to_unit_parallel(c, 500_kB, ItemOrder::kOriginal, 4);
  ASSERT_EQ(a.block_count(), b.block_count());
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    EXPECT_EQ(a.blocks[i].item_ids, b.blocks[i].item_ids);
  }
}

TEST(MergeToUnitParallel, OneShardIsExactlySequential) {
  const corpus::Corpus c = sample_corpus();
  const MergedCorpus seq = merge_to_unit(c, 1_MB);
  const MergedCorpus par =
      merge_to_unit_parallel(c, 1_MB, ItemOrder::kOriginal, 1);
  ASSERT_EQ(par.block_count(), seq.block_count());
  for (std::size_t i = 0; i < seq.blocks.size(); ++i) {
    EXPECT_EQ(par.blocks[i].item_ids, seq.blocks[i].item_ids);
  }
}

TEST(MergeToUnitParallel, FillFactorNearSequential) {
  // The documented approximation: only each shard's tail bins go
  // underfilled, so the fill factor drop stays small on a corpus much
  // larger than shards * unit.
  const corpus::Corpus c = sample_corpus(4000, 3);
  const MergedCorpus seq = merge_to_unit(c, 1_MB);
  const MergedCorpus par =
      merge_to_unit_parallel(c, 1_MB, ItemOrder::kOriginal, 4);
  EXPECT_GE(par.block_count(), seq.block_count());
  EXPECT_LT(seq.fill_factor() - par.fill_factor(), 0.15);
}

TEST(MergeToUnitParallel, InvalidUnitThrows) {
  const corpus::Corpus c = sample_corpus(50);
  EXPECT_THROW((void)merge_to_unit_parallel(c, Bytes(0)), Error);
}

TEST(DeriveMultiple, ConcatenatesConsecutiveBlocks) {
  const corpus::Corpus c = sample_corpus();
  const MergedCorpus base = merge_to_unit(c, 500_kB);
  const MergedCorpus doubled = derive_multiple(base, 2);
  EXPECT_EQ(doubled.unit, 1_MB);
  EXPECT_EQ(doubled.block_count(), (base.block_count() + 1) / 2);
  EXPECT_EQ(doubled.total_volume(), base.total_volume());
  // m == 1 is the identity.
  const MergedCorpus same = derive_multiple(base, 1);
  EXPECT_EQ(same.block_count(), base.block_count());
  EXPECT_THROW((void)derive_multiple(base, 0), Error);
}

TEST(DeriveMultiple, PreservesItemPartition) {
  const corpus::Corpus c = sample_corpus(500, 7);
  const MergedCorpus base = merge_to_unit(c, 200_kB);
  const MergedCorpus m4 = derive_multiple(base, 4);
  std::set<std::uint64_t> seen;
  for (const Bin& block : m4.blocks) {
    for (const std::uint64_t id : block.item_ids) {
      EXPECT_TRUE(seen.insert(id).second);
    }
  }
  EXPECT_EQ(seen.size(), c.file_count());
}

TEST(Materialize, ConcatenatesRealBytes) {
  std::vector<corpus::VirtualFile> files;
  std::vector<std::string> texts{"aaa", "bb", "cccc", "d"};
  for (std::uint64_t i = 0; i < texts.size(); ++i) {
    files.push_back(corpus::VirtualFile{i, Bytes(texts[i].size()), 1.0});
  }
  const corpus::Corpus c{std::move(files)};
  const MergedCorpus merged = merge_to_unit(c, Bytes(5));
  const std::vector<std::string> blocks = materialize(merged, texts);
  ASSERT_EQ(blocks.size(), merged.block_count());
  std::size_t total = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    EXPECT_EQ(blocks[b].size(), merged.blocks[b].used.count());
    total += blocks[b].size();
  }
  EXPECT_EQ(total, 10u);  // all bytes survive the merge
}

TEST(Materialize, BadIdThrows) {
  MergedCorpus merged;
  merged.unit = Bytes(10);
  Bin bad;
  bad.item_ids.push_back(99);
  merged.blocks.push_back(bad);
  EXPECT_THROW((void)materialize(merged, {"only-one"}), Error);
}

TEST(MergedCorpus, EmptyAccessors) {
  const MergedCorpus empty;
  EXPECT_EQ(empty.block_count(), 0u);
  EXPECT_EQ(empty.total_volume(), 0_B);
  EXPECT_DOUBLE_EQ(empty.fill_factor(), 0.0);
}

TEST(BlockDigests, EveryMergeStampsOnePerBlock) {
  const corpus::Corpus c = sample_corpus();
  const MergedCorpus merged = merge_to_unit(c, 1_MB);
  ASSERT_EQ(merged.digests.size(), merged.block_count());
  for (std::size_t b = 0; b < merged.block_count(); ++b) {
    EXPECT_EQ(merged.digests[b], block_digest(merged.blocks[b]));
    EXPECT_NE(merged.digests[b], 0u);
  }
}

TEST(BlockDigests, SequentialAndOneShardParallelAgree) {
  // One shard produces the identical partition, so the digests must be
  // bit-identical too: the digest is a function of the logical block, not
  // of the code path that built it.
  const corpus::Corpus c = sample_corpus();
  const MergedCorpus seq = merge_to_unit(c, 1_MB);
  const MergedCorpus par =
      merge_to_unit_parallel(c, 1_MB, ItemOrder::kOriginal, 1);
  ASSERT_EQ(seq.digests.size(), par.digests.size());
  EXPECT_EQ(seq.digests, par.digests);
}

TEST(BlockDigests, DerivedBlocksGetFreshDigests) {
  const corpus::Corpus c = sample_corpus();
  const MergedCorpus base = merge_to_unit(c, 500_kB);
  const MergedCorpus doubled = derive_multiple(base, 2);
  ASSERT_EQ(doubled.digests.size(), doubled.block_count());
  for (std::size_t b = 0; b < doubled.block_count(); ++b) {
    EXPECT_EQ(doubled.digests[b], block_digest(doubled.blocks[b]));
  }
}

TEST(BlockDigests, DistinctBlocksDisagree) {
  const corpus::Corpus c = sample_corpus();
  const MergedCorpus merged = merge_to_unit(c, 1_MB);
  ASSERT_GE(merged.block_count(), 2u);
  std::set<std::uint64_t> unique(merged.digests.begin(),
                                 merged.digests.end());
  // FNV-1a over distinct id sets: collisions across a few hundred blocks
  // would indicate a broken update loop, not bad luck.
  EXPECT_EQ(unique.size(), merged.digests.size());
}

TEST(ContentDigests, CatchAFlippedByte) {
  std::vector<corpus::VirtualFile> files;
  std::vector<std::string> texts{"aaa", "bb", "cccc", "d"};
  for (std::uint64_t i = 0; i < texts.size(); ++i) {
    files.push_back(corpus::VirtualFile{i, Bytes(texts[i].size()), 1.0});
  }
  const corpus::Corpus c{std::move(files)};
  const MergedCorpus merged = merge_to_unit(c, Bytes(5));
  std::vector<std::string> blocks = materialize(merged, texts);
  const std::vector<std::uint64_t> expected = content_digests(blocks);
  EXPECT_TRUE(verify_blocks(blocks, expected).empty());

  blocks[1][0] ^= 0x01;  // one silently corrupted bit
  const std::vector<std::size_t> bad = verify_blocks(blocks, expected);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], 1u);
}

TEST(ContentDigests, CountMismatchThrows) {
  const std::vector<std::string> blocks{"x", "y"};
  const std::vector<std::uint64_t> expected = content_digests({"x"});
  EXPECT_THROW((void)verify_blocks(blocks, expected), Error);
}

}  // namespace
}  // namespace reshape::pack
