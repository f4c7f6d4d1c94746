#include "corpus/corpus.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.hpp"

namespace reshape::corpus {
namespace {

Corpus small_corpus() {
  std::vector<VirtualFile> files;
  for (std::uint64_t i = 0; i < 10; ++i) {
    files.push_back(VirtualFile{i, Bytes((i + 1) * 1000), 1.0});
  }
  return Corpus(std::move(files));
}

TEST(Corpus, TotalsAndMeans) {
  const Corpus c = small_corpus();
  EXPECT_EQ(c.file_count(), 10u);
  EXPECT_EQ(c.total_volume(), Bytes(55'000));
  EXPECT_EQ(c.mean_file_size(), Bytes(5'500));
  EXPECT_EQ(c.max_file_size(), Bytes(10'000));
  EXPECT_FALSE(c.empty());
}

/// max_file_size() is cached at construction; it must equal a scan.
Bytes scanned_max(const Corpus& c) {
  Bytes max{0};
  for (const VirtualFile& f : c.files()) max = std::max(max, f.size);
  return max;
}

TEST(Corpus, MaxFileSizeEqualsScan) {
  EXPECT_EQ(Corpus().max_file_size(), Bytes(0));
  Rng rng(12);
  const Corpus c = Corpus::generate(text_400k_sizes(), 5000, rng);
  EXPECT_EQ(c.max_file_size(), scanned_max(c));
  EXPECT_GT(c.max_file_size(), Bytes(0));
  for (const Bytes target : {Bytes(0), 1_MB, c.total_volume()}) {
    const Corpus head = c.take_volume(target);
    EXPECT_EQ(head.max_file_size(), scanned_max(head));
    const Corpus sample = c.sample_volume(target, rng);
    EXPECT_EQ(sample.max_file_size(), scanned_max(sample));
  }
  for (const std::size_t k :
       {std::size_t{1}, std::size_t{7}, std::size_t{20'000}}) {
    for (const Corpus& part : c.split_even(k)) {
      EXPECT_EQ(part.max_file_size(), scanned_max(part));
    }
  }
}

TEST(Corpus, GenerateDrawsFromDistribution) {
  const FileSizeDistribution d = text_400k_sizes();
  Rng rng(1);
  const Corpus c = Corpus::generate(d, 1000, rng);
  EXPECT_EQ(c.file_count(), 1000u);
  EXPECT_LE(c.max_file_size(), d.max());
  for (const VirtualFile& f : c.files()) {
    EXPECT_DOUBLE_EQ(f.complexity, 1.0);  // spread disabled
  }
}

TEST(Corpus, GenerateWithComplexitySpread) {
  const FileSizeDistribution d = text_400k_sizes();
  Rng rng(2);
  const Corpus c = Corpus::generate(d, 2000, rng, 0.3);
  bool varied = false;
  for (const VirtualFile& f : c.files()) {
    EXPECT_GE(f.complexity, 0.3);
    if (f.complexity != 1.0) varied = true;
  }
  EXPECT_TRUE(varied);
}

TEST(Corpus, SampleVolumeApproximatesTarget) {
  const FileSizeDistribution d = text_400k_sizes();
  Rng rng(3);
  const Corpus c = Corpus::generate(d, 20'000, rng);
  const Corpus sample = c.sample_volume(5_MB, rng);
  EXPECT_GE(sample.total_volume(), 5_MB);
  // Overshoot is at most one file.
  EXPECT_LE(sample.total_volume(), 5_MB + c.max_file_size());
}

TEST(Corpus, SampleIsWithoutReplacement) {
  const Corpus c = small_corpus();
  Rng rng(4);
  const Corpus sample = c.sample_volume(Bytes(30'000), rng);
  std::set<std::uint64_t> ids;
  for (const VirtualFile& f : sample.files()) {
    EXPECT_TRUE(ids.insert(f.id).second) << "duplicate file in sample";
  }
}

TEST(Corpus, SampleLargerThanCorpusThrows) {
  const Corpus c = small_corpus();
  Rng rng(5);
  EXPECT_THROW((void)c.sample_volume(Bytes(1'000'000), rng), Error);
}

TEST(Corpus, TakeVolumePreservesOrder) {
  const Corpus c = small_corpus();
  const Corpus head = c.take_volume(Bytes(6'000));
  ASSERT_GE(head.file_count(), 3u);
  EXPECT_EQ(head.files()[0].id, 0u);
  EXPECT_EQ(head.files()[1].id, 1u);
  EXPECT_GE(head.total_volume(), Bytes(6'000));
}

TEST(Corpus, SplitEvenCoversAllFilesOnce) {
  const FileSizeDistribution d = text_400k_sizes();
  Rng rng(6);
  const Corpus c = Corpus::generate(d, 5000, rng);
  const auto parts = c.split_even(7);
  ASSERT_EQ(parts.size(), 7u);
  std::size_t files = 0;
  Bytes volume{0};
  for (const Corpus& p : parts) {
    files += p.file_count();
    volume += p.total_volume();
  }
  EXPECT_EQ(files, c.file_count());
  EXPECT_EQ(volume, c.total_volume());
}

TEST(Corpus, SplitEvenBalancesVolume) {
  const FileSizeDistribution d = text_400k_sizes();
  Rng rng(7);
  const Corpus c = Corpus::generate(d, 20'000, rng);
  const auto parts = c.split_even(10);
  const double ideal = c.total_volume().as_double() / 10.0;
  for (const Corpus& p : parts) {
    EXPECT_NEAR(p.total_volume().as_double(), ideal, ideal * 0.15);
  }
}

TEST(Corpus, SplitMorePartsThanFilesPadsEmpty) {
  const Corpus c = small_corpus();
  const auto parts = c.split_even(20);
  EXPECT_EQ(parts.size(), 20u);
  EXPECT_THROW((void)c.split_even(0), Error);
}

TEST(Corpus, SizeHistogramMatchesFigOneForm) {
  const Corpus c = small_corpus();
  const Histogram h = c.size_histogram(1_kB, 12_kB);
  EXPECT_EQ(h.bin_count(), 12u);
  // File of size (i+1)*1000 lands in bin i+1 except the 1000-byte one.
  EXPECT_EQ(h.count_in_bin(1), 1u);
  EXPECT_EQ(h.total(), 10u);
  EXPECT_EQ(h.overflow(), 0u);
}

TEST(Corpus, FractionBelow) {
  const Corpus c = small_corpus();
  EXPECT_DOUBLE_EQ(c.fraction_below(Bytes(5'001)), 0.5);
  EXPECT_DOUBLE_EQ(c.fraction_below(Bytes(100'000)), 1.0);
  EXPECT_DOUBLE_EQ(Corpus().fraction_below(1_kB), 0.0);
}

}  // namespace
}  // namespace reshape::corpus
