// Virtual corpora: collections of file metadata without materialized bytes.
//
// The paper's experiments run over volumes up to 900 GB; the simulator only
// needs each file's size (and a language-complexity scalar for the POS
// experiments), so a corpus is metadata.  Real bytes, when needed (unit
// tests, the application profiler), come from corpus::TextGenerator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "corpus/distribution.hpp"

namespace reshape::corpus {

/// Metadata for one (virtual) input file.
struct VirtualFile {
  std::uint64_t id = 0;
  Bytes size{0};
  /// Language-complexity multiplier for CPU-bound text analysis (1.0 =
  /// corpus average; Dubliners-vs-Agnes-Grey showed ~1.7x, §5.2).
  double complexity = 1.0;
};

class Corpus {
 public:
  Corpus() = default;
  explicit Corpus(std::vector<VirtualFile> files);

  /// Generates `count` files from a size distribution.  Complexities are
  /// drawn around 1.0 with the given spread (0 disables).  A cluster size
  /// above 1 gives consecutive files a shared complexity draw — documents
  /// from the same source (one outlet's articles, one author's abstracts)
  /// share linguistic complexity, which is why §5.2 finds random sampling
  /// "vital to capture the variation in text complexity".
  [[nodiscard]] static Corpus generate(const FileSizeDistribution& dist,
                                       std::size_t count, Rng& rng,
                                       double complexity_spread = 0.0,
                                       std::size_t complexity_cluster = 1);

  [[nodiscard]] const std::vector<VirtualFile>& files() const {
    return files_;
  }
  [[nodiscard]] std::size_t file_count() const { return files_.size(); }
  [[nodiscard]] bool empty() const { return files_.empty(); }
  [[nodiscard]] Bytes total_volume() const { return total_; }
  /// Cached at construction; a corpus never changes after it.
  [[nodiscard]] Bytes max_file_size() const { return max_; }
  [[nodiscard]] Bytes mean_file_size() const;
  /// Volume-weighted mean language complexity (1.0 for a default corpus).
  [[nodiscard]] double mean_complexity() const;

  /// Random subset of roughly `target` bytes, sampled without replacement
  /// in random order (the paper's random 2 GB / 5 MB samples, §5.1-5.2).
  [[nodiscard]] Corpus sample_volume(Bytes target, Rng& rng) const;

  /// First files summing to roughly `target` bytes, in corpus order.
  [[nodiscard]] Corpus take_volume(Bytes target) const;

  /// A contiguous run of files of roughly `target` bytes starting at a
  /// random position — "a random directory": unlike sample_volume it
  /// preserves source-level structure (shared complexity), which is what
  /// makes small random samples representative of corpus variability.
  [[nodiscard]] Corpus sample_contiguous(Bytes target, Rng& rng) const;

  /// Splits into `k` corpora of contiguous files with near-equal volume
  /// (used to stage data across EBS volumes).
  [[nodiscard]] std::vector<Corpus> split_even(std::size_t k) const;

  /// Size histogram with `bin` granularity over [0, limit) — Fig. 1's
  /// frequency distributions.
  [[nodiscard]] Histogram size_histogram(Bytes bin, Bytes limit) const;

  /// Fraction of files strictly smaller than `threshold`.
  [[nodiscard]] double fraction_below(Bytes threshold) const;

 private:
  std::vector<VirtualFile> files_;
  Bytes total_{0};
  Bytes max_{0};
};

}  // namespace reshape::corpus
