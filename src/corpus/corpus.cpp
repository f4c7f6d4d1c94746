#include "corpus/corpus.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace reshape::corpus {

Corpus::Corpus(std::vector<VirtualFile> files) : files_(std::move(files)) {
  for (const VirtualFile& f : files_) {
    total_ += f.size;
    max_ = std::max(max_, f.size);
  }
}

Corpus Corpus::generate(const FileSizeDistribution& dist, std::size_t count,
                        Rng& rng, double complexity_spread,
                        std::size_t complexity_cluster) {
  RESHAPE_REQUIRE(complexity_cluster >= 1, "cluster size must be >= 1");
  std::vector<VirtualFile> files;
  files.reserve(count);
  double cluster_complexity = 1.0;
  for (std::size_t i = 0; i < count; ++i) {
    if (complexity_spread > 0.0 && i % complexity_cluster == 0) {
      cluster_complexity =
          std::max(0.3, rng.normal(1.0, complexity_spread));
    }
    VirtualFile f;
    f.id = i;
    f.size = dist.sample(rng);
    f.complexity = complexity_spread > 0.0 ? cluster_complexity : 1.0;
    files.push_back(f);
  }
  return Corpus(std::move(files));
}

Bytes Corpus::mean_file_size() const {
  if (files_.empty()) return Bytes(0);
  return total_ / files_.size();
}

double Corpus::mean_complexity() const {
  if (files_.empty() || total_.count() == 0) return 1.0;
  double weighted = 0.0;
  for (const VirtualFile& f : files_) {
    weighted += f.complexity * f.size.as_double();
  }
  return weighted / total_.as_double();
}

Corpus Corpus::sample_volume(Bytes target, Rng& rng) const {
  RESHAPE_REQUIRE(target <= total_,
                  "sample target exceeds the corpus volume");
  std::vector<std::size_t> order(files_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  std::vector<VirtualFile> chosen;
  Bytes sum{0};
  for (const std::size_t i : order) {
    if (sum >= target) break;
    chosen.push_back(files_[i]);
    sum += files_[i].size;
  }
  return Corpus(std::move(chosen));
}

Corpus Corpus::take_volume(Bytes target) const {
  std::vector<VirtualFile> chosen;
  Bytes sum{0};
  for (const VirtualFile& f : files_) {
    if (sum >= target) break;
    chosen.push_back(f);
    sum += f.size;
  }
  return Corpus(std::move(chosen));
}

Corpus Corpus::sample_contiguous(Bytes target, Rng& rng) const {
  RESHAPE_REQUIRE(target <= total_, "sample target exceeds the corpus volume");
  RESHAPE_REQUIRE(!files_.empty(), "cannot sample an empty corpus");
  const std::size_t start =
      static_cast<std::size_t>(rng.uniform_below(files_.size()));
  std::vector<VirtualFile> chosen;
  Bytes sum{0};
  for (std::size_t i = start; i < files_.size() && sum < target; ++i) {
    chosen.push_back(files_[i]);
    sum += files_[i].size;
  }
  // Wrap around if the tail was too short.
  for (std::size_t i = 0; i < start && sum < target; ++i) {
    chosen.push_back(files_[i]);
    sum += files_[i].size;
  }
  return Corpus(std::move(chosen));
}

std::vector<Corpus> Corpus::split_even(std::size_t k) const {
  RESHAPE_REQUIRE(k > 0, "cannot split into zero parts");
  const Bytes per_part = Bytes(total_.count() / k + 1);
  std::vector<Corpus> parts;
  parts.reserve(k);
  std::vector<VirtualFile> current;
  Bytes sum{0};
  for (const VirtualFile& f : files_) {
    current.push_back(f);
    sum += f.size;
    if (sum >= per_part && parts.size() + 1 < k) {
      parts.emplace_back(std::move(current));
      current.clear();
      sum = Bytes(0);
    }
  }
  parts.emplace_back(std::move(current));
  while (parts.size() < k) parts.emplace_back();
  return parts;
}

Histogram Corpus::size_histogram(Bytes bin, Bytes limit) const {
  RESHAPE_REQUIRE(bin.count() > 0 && bin < limit, "bad histogram shape");
  const std::size_t bins = limit.count() / bin.count();
  Histogram h(0.0, static_cast<double>(bins * bin.count()), bins);
  for (const VirtualFile& f : files_) h.add(f.size.as_double());
  return h;
}

double Corpus::fraction_below(Bytes threshold) const {
  if (files_.empty()) return 0.0;
  std::size_t below = 0;
  for (const VirtualFile& f : files_) {
    if (f.size < threshold) ++below;
  }
  return static_cast<double>(below) / static_cast<double>(files_.size());
}

}  // namespace reshape::corpus
