#include "provision/planner.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "provision/cost.hpp"
#include "reshape/pack_index.hpp"

namespace reshape::provision {

std::string_view to_string(PackingStrategy strategy) {
  switch (strategy) {
    case PackingStrategy::kFirstFit: return "first-fit";
    case PackingStrategy::kUniform: return "uniform";
    case PackingStrategy::kAdjusted: return "adjusted-deadline";
  }
  return "?";
}

Bytes ExecutionPlan::total_volume() const {
  Bytes total{0};
  for (const Assignment& a : assignments) total += a.volume;
  return total;
}

// Only per-instance totals are kept; each instance's complexity sum runs
// in file order, as a walk over a packed bin's ids would.
std::vector<Assignment> assign(const corpus::Corpus& data,
                               PackingStrategy strategy, std::size_t instances,
                               Bytes target) {
  struct Tally {
    Bytes volume{0};
    std::uint64_t files = 0;
    double complexity = 0.0;
  };
  std::vector<Tally> tallies(instances);
  const auto add = [&tallies](std::size_t at, const corpus::VirtualFile& f) {
    tallies[at].volume += f.size;
    ++tallies[at].files;
    tallies[at].complexity += f.complexity;
  };
  const std::span<const corpus::VirtualFile> files(data.files());
  if (strategy == PackingStrategy::kFirstFit) {
    pack::place_into_k(files, instances, target, add);
  } else {
    pack::place_least_loaded(files, instances, add);
  }
  std::vector<Assignment> assignments;
  for (const Tally& t : tallies) {
    if (t.files == 0) continue;  // drop unused bins
    Assignment a;
    a.volume = t.volume;
    a.file_count = t.files;
    a.mean_complexity = t.complexity / static_cast<double>(t.files);
    assignments.push_back(a);
  }
  return assignments;
}

namespace {

/// The fewest instances a balanced plan can keep within x0, by pigeonhole.
/// If c_j files are each larger than x0 / (j + 1) and c_j > j * k, some
/// instance of k holds j + 1 of them and exceeds x0; so k >= ceil(c_j / j)
/// for every j >= 1, and k >= ceil(V / x0).  Past j = n / ceil(V / x0)
/// no ceil(c_j / j) (c_j <= n) can beat ceil(V / x0); j also stops at
/// kMaxShare, which keeps the count table small and the scan to one
/// compare for any file under x0 / (kMaxShare + 1).
std::size_t balanced_lower_bound(const corpus::Corpus& data, Bytes x0) {
  constexpr std::uint64_t kMaxShare = 4096;
  const std::size_t volume_bound = instances_needed(data.total_volume(), x0);
  if (volume_bound == 0) return 0;  // nothing but empty files
  const std::uint64_t x = x0.count();
  const std::uint64_t max_j =
      std::min<std::uint64_t>(kMaxShare, data.file_count() / volume_bound);
  // A file counts towards c_j from j = floor(x0 / size) up, so only files
  // above x0 / (max_j + 1) count towards some j <= max_j.
  const std::uint64_t floor_size = x / (max_j + 1);
  if (data.max_file_size().count() <= floor_size) return volume_bound;
  std::vector<std::uint64_t> from(max_j + 1, 0);
  for (const corpus::VirtualFile& f : data.files()) {
    if (f.size.count() > floor_size) ++from[x / f.size.count()];
  }
  std::size_t bound = volume_bound;
  std::uint64_t larger = 0;  // c_j
  for (std::uint64_t j = 1; j <= max_j; ++j) {
    larger += from[j];
    bound = std::max(bound, static_cast<std::size_t>((larger + j - 1) / j));
  }
  return bound;
}

}  // namespace

ExecutionPlan plan(const model::Predictor& predictor,
                   const corpus::Corpus& data, const PlanOptions& options) {
  RESHAPE_REQUIRE(!data.empty(), "nothing to plan for");
  RESHAPE_REQUIRE(options.deadline.value() > 0.0, "deadline must be positive");

  ExecutionPlan plan;
  plan.strategy = options.strategy;
  plan.deadline = options.deadline;
  plan.planning_deadline =
      options.strategy == PackingStrategy::kAdjusted
          ? model::adjusted_deadline(options.deadline, options.residuals,
                                     options.miss_probability)
          : options.deadline;

  const Bytes x0 = predictor.max_volume_within(plan.planning_deadline);
  RESHAPE_REQUIRE(x0.count() > 0,
                  "even an empty input misses this deadline under the model");
  // Files are unsplittable: the largest file must fit within x0.
  RESHAPE_REQUIRE(
      data.max_file_size() <= x0,
      "deadline is below the processing time of the largest unsplittable file");
  plan.per_instance_target = x0;

  // Greedy balancing over ceil(V / x0) instances can leave the largest
  // share above x0, and then the plan's own makespan misses its deadline.
  // The balanced strategies start at a bound every smaller count provably
  // misses, then add an instance and balance again until it fits.  That
  // stops: every file is <= x0, and once the instances outnumber the
  // files each one gets a share of its own.
  const auto largest_volume = [&plan] {
    Bytes largest{0};
    for (const Assignment& a : plan.assignments) {
      largest = std::max(largest, a.volume);
    }
    return largest;
  };
  std::size_t instances = options.strategy == PackingStrategy::kFirstFit
                              ? instances_needed(data.total_volume(), x0)
                              : balanced_lower_bound(data, x0);
  plan.assignments = assign(data, options.strategy, instances, x0);
  while (options.strategy != PackingStrategy::kFirstFit &&
         largest_volume() > x0) {
    plan.assignments = assign(data, options.strategy, ++instances, x0);
  }
  plan.predicted_makespan = predictor.predict(largest_volume());

  // Each instance bills ceil(hours of its own predicted run).
  double hours = 0.0;
  for (const Assignment& a : plan.assignments) {
    hours += std::ceil(predictor.predict(a.volume).hours());
  }
  plan.predicted_instance_hours = hours;
  plan.predicted_cost = options.hourly_rate * hours;
  return plan;
}

ExecutionPlan StaticPlanner::plan(const corpus::Corpus& data,
                                  const PlanOptions& options) const {
  return provision::plan(predictor_, data, options);
}

}  // namespace reshape::provision
