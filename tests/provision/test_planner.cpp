#include "provision/planner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "corpus/distribution.hpp"
#include "provision/cost.hpp"
#include "reshape/binpack.hpp"

namespace reshape::provision {
namespace {

/// The paper's Eq. (3): f(x) = 0.327 + 0.865e-4 x (x in bytes).
model::Predictor eq3_predictor() {
  std::vector<double> xs, ys;
  for (double v = 1e4; v <= 1e6; v += 1e5) {
    xs.push_back(v);
    ys.push_back(0.327 + 0.865e-4 * v);
  }
  return model::Predictor::fit(xs, ys);
}

corpus::Corpus gigabyte_corpus(std::uint64_t seed = 1) {
  Rng rng(seed);
  // ~1.09 GB of Text_400K-like files (enough files to sum to it).
  corpus::Corpus all =
      corpus::Corpus::generate(corpus::text_400k_sizes(), 300'000, rng);
  return all.take_volume(Bytes(1'090'000'000));
}

TEST(StaticPlanner, OneHourDeadlineNeedsTwentySevenInstances) {
  // §5.2: D = 3600 under Eq. (3) prescribes 27 instances for the 1 GB set.
  const StaticPlanner planner(eq3_predictor());
  PlanOptions options;
  options.deadline = 1_h;
  options.strategy = PackingStrategy::kUniform;
  const ExecutionPlan plan = planner.plan(gigabyte_corpus(), options);
  EXPECT_EQ(plan.instance_count(), 27u);
  EXPECT_EQ(plan.strategy, PackingStrategy::kUniform);
  EXPECT_DOUBLE_EQ(plan.planning_deadline.value(), 3600.0);
}

TEST(StaticPlanner, TwoHourDeadlineNeedsFourteen) {
  // §5.2 / Fig. 9(a): D = 7200 under Eq. (3) gives 14 instances.
  const StaticPlanner planner(eq3_predictor());
  PlanOptions options;
  options.deadline = 2_h;
  const ExecutionPlan plan = planner.plan(gigabyte_corpus(), options);
  EXPECT_EQ(plan.instance_count(), 14u);
}

TEST(StaticPlanner, LowerSlopeModelNeedsFewerInstances) {
  // Eq. (4) (slope 0.725e-4) prescribes 22 for 1 h and 11 for 2 h.  At
  // 1 h the balanced 22-way split's largest share is 3.8 kB over x0
  // (predicted makespan 1.000077 x D), so the plan takes a 23rd instance.
  std::vector<double> xs, ys;
  for (double v = 1e4; v <= 1e6; v += 1e5) {
    xs.push_back(v);
    ys.push_back(3.086 + 0.725482e-4 * v);
  }
  const StaticPlanner planner(model::Predictor::fit(xs, ys));
  PlanOptions options;
  options.deadline = 1_h;
  const corpus::Corpus data = gigabyte_corpus();
  const ExecutionPlan one_hour = planner.plan(data, options);
  EXPECT_EQ(instances_needed(data.total_volume(),
                             one_hour.per_instance_target),
            22u);
  EXPECT_EQ(one_hour.instance_count(), 23u);
  EXPECT_LE(one_hour.predicted_makespan, options.deadline);
  options.deadline = 2_h;
  EXPECT_EQ(planner.plan(data, options).instance_count(), 11u);
}

TEST(StaticPlanner, PlanCoversWholeCorpusExactly) {
  const StaticPlanner planner(eq3_predictor());
  PlanOptions options;
  options.deadline = 1_h;
  const corpus::Corpus data = gigabyte_corpus();
  for (const PackingStrategy strategy :
       {PackingStrategy::kFirstFit, PackingStrategy::kUniform}) {
    options.strategy = strategy;
    const ExecutionPlan plan = planner.plan(data, options);
    EXPECT_EQ(plan.total_volume(), data.total_volume());
    std::size_t files = 0;
    for (const Assignment& a : plan.assignments) files += a.file_count;
    EXPECT_EQ(files, data.file_count());
  }
}

TEST(StaticPlanner, UniformBinsAreBalanced) {
  const StaticPlanner planner(eq3_predictor());
  PlanOptions options;
  options.deadline = 1_h;
  options.strategy = PackingStrategy::kUniform;
  const ExecutionPlan plan = planner.plan(gigabyte_corpus(), options);
  Bytes lo = plan.assignments[0].volume, hi = plan.assignments[0].volume;
  for (const Assignment& a : plan.assignments) {
    lo = std::min(lo, a.volume);
    hi = std::max(hi, a.volume);
  }
  EXPECT_LT((hi - lo).as_double() / hi.as_double(), 0.05);
}

TEST(StaticPlanner, FirstFitFrontLoadsFullBins) {
  // Fig. 8(a): first-fit fills early bins to x0 and leaves the tail bin
  // light, so the spread is wide.
  const StaticPlanner planner(eq3_predictor());
  PlanOptions options;
  options.deadline = 1_h;
  options.strategy = PackingStrategy::kFirstFit;
  const ExecutionPlan plan = planner.plan(gigabyte_corpus(), options);
  Bytes lo = plan.assignments[0].volume, hi = plan.assignments[0].volume;
  for (const Assignment& a : plan.assignments) {
    lo = std::min(lo, a.volume);
    hi = std::max(hi, a.volume);
  }
  EXPECT_GT(hi.as_double() / std::max(1.0, lo.as_double()), 1.1);
  EXPECT_LE(hi, plan.per_instance_target);
}

TEST(StaticPlanner, UniformMakespanBelowFirstFit) {
  // The Fig. 8(a) -> 8(b) improvement.
  const StaticPlanner planner(eq3_predictor());
  const corpus::Corpus data = gigabyte_corpus();
  PlanOptions ff;
  ff.deadline = 1_h;
  ff.strategy = PackingStrategy::kFirstFit;
  PlanOptions uni = ff;
  uni.strategy = PackingStrategy::kUniform;
  EXPECT_LE(planner.plan(data, uni).predicted_makespan,
            planner.plan(data, ff).predicted_makespan);
}

TEST(StaticPlanner, AdjustedStrategyLowersPlanningDeadline) {
  const StaticPlanner planner(eq3_predictor());
  PlanOptions options;
  options.deadline = 1_h;
  options.strategy = PackingStrategy::kAdjusted;
  options.residuals.mean = 0.0;
  options.residuals.stddev = 0.1525 / 1.2816;
  const ExecutionPlan plan = planner.plan(gigabyte_corpus(), options);
  // D1 = 3600 / 1.1525 ~= 3124 (the paper's adjusted deadline).
  EXPECT_NEAR(plan.planning_deadline.value(), 3124.0, 5.0);
  EXPECT_LT(plan.planning_deadline, plan.deadline);
  // A tighter planning deadline can only need more instances.
  PlanOptions plain = options;
  plain.strategy = PackingStrategy::kUniform;
  EXPECT_GE(plan.instance_count(),
            planner.plan(gigabyte_corpus(), plain).instance_count());
}

TEST(StaticPlanner, PredictedCostUsesHourCeil) {
  const StaticPlanner planner(eq3_predictor());
  PlanOptions options;
  options.deadline = 1_h;
  options.strategy = PackingStrategy::kUniform;
  const ExecutionPlan plan = planner.plan(gigabyte_corpus(), options);
  // Every instance runs under an hour -> cost = instances * rate.
  EXPECT_NEAR(plan.predicted_cost.amount(),
              static_cast<double>(plan.instance_count()) * 0.085, 1e-9);
  EXPECT_DOUBLE_EQ(plan.predicted_instance_hours,
                   static_cast<double>(plan.instance_count()));
}

// Text_400K-like corpora under a pos-like model.  The greedy ceil(V / x0)
// split can put a share over x0 (seed 1, 600 s, adjusted: predicted
// makespan 1.0016 x the planning deadline); balanced plans then add
// instances until the predicted makespan meets the deadline.
TEST(StaticPlanner, BalancedPlansNeverPredictAMiss) {
  const model::Predictor predictor(model::AffineFit{58.26, 8.262e-05, {}});
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const corpus::Corpus data = corpus::Corpus::generate(
        corpus::text_400k_sizes(), 100'000, rng, 0.15, 1000);
    for (const Seconds deadline : {Seconds(600.0), Seconds(1800.0), 1_h}) {
      for (const PackingStrategy strategy :
           {PackingStrategy::kUniform, PackingStrategy::kAdjusted}) {
        PlanOptions options;
        options.deadline = deadline;
        options.strategy = strategy;
        options.residuals.stddev = 0.05;
        const ExecutionPlan plan = StaticPlanner(predictor).plan(data, options);
        EXPECT_LE(plan.predicted_makespan, plan.planning_deadline)
            << "seed " << seed << ", " << deadline.value() << " s, "
            << to_string(strategy);
        for (const Assignment& a : plan.assignments) {
          EXPECT_LE(a.volume, plan.per_instance_target);
        }
      }
    }
  }
}

TEST(StaticPlanner, PredictedMakespanWithinPlanningDeadline) {
  const StaticPlanner planner(eq3_predictor());
  PlanOptions options;
  options.deadline = 1_h;
  options.strategy = PackingStrategy::kUniform;
  const ExecutionPlan plan = planner.plan(gigabyte_corpus(), options);
  EXPECT_LE(plan.predicted_makespan.value(),
            plan.planning_deadline.value() * 1.01);
}

TEST(StaticPlanner, ImpossibleDeadlinesThrow) {
  const StaticPlanner planner(eq3_predictor());
  PlanOptions options;
  options.deadline = Seconds(0.2);  // below even the intercept
  EXPECT_THROW((void)planner.plan(gigabyte_corpus(), options), Error);
  options.deadline = Seconds(0.0);
  EXPECT_THROW((void)planner.plan(gigabyte_corpus(), options), Error);
}

TEST(StaticPlanner, DeadlineBelowLargestFileThrows) {
  // A deadline tighter than the largest unsplittable file's processing
  // time cannot be met (§5: "D > time taken to process largest file").
  const StaticPlanner planner(eq3_predictor());
  PlanOptions options;
  options.deadline = Seconds(2.0);  // ~23 kB capacity; files reach 705 kB
  EXPECT_THROW((void)planner.plan(gigabyte_corpus(), options), Error);
}

TEST(StaticPlanner, EmptyCorpusThrows) {
  const StaticPlanner planner(eq3_predictor());
  PlanOptions options;
  EXPECT_THROW((void)planner.plan(corpus::Corpus(), options), Error);
}

// ---- the packing step against the Bin-level packers ----------------------

/// The planner's former path, kept as the oracle: positional items into
/// pack_into_k or uniform_bins, then a walk over each non-empty bin's ids.
std::vector<Assignment> oracle_assign(const corpus::Corpus& data,
                                      PackingStrategy strategy, std::size_t k,
                                      Bytes target) {
  std::vector<pack::Item> items;
  for (std::size_t i = 0; i < data.file_count(); ++i) {
    items.push_back(pack::Item{i, data.files()[i].size});
  }
  const std::vector<pack::Bin> bins =
      strategy == PackingStrategy::kFirstFit
          ? pack::pack_into_k(items, k, target)
          : pack::uniform_bins(items, k);
  std::vector<Assignment> assignments;
  for (const pack::Bin& bin : bins) {
    if (bin.item_ids.empty()) continue;
    Assignment a;
    a.volume = bin.used;
    a.file_count = bin.item_ids.size();
    double complexity = 0.0;
    for (const std::uint64_t id : bin.item_ids) {
      complexity += data.files()[id].complexity;
    }
    a.mean_complexity = complexity / static_cast<double>(bin.item_ids.size());
    assignments.push_back(a);
  }
  return assignments;
}

void expect_same_assignments(const std::vector<Assignment>& got,
                             const std::vector<Assignment>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].volume, want[i].volume) << "instance " << i;
    EXPECT_EQ(got[i].file_count, want[i].file_count) << "instance " << i;
    // Bit-identical, not near: the complexity sums run in the same order.
    EXPECT_EQ(got[i].mean_complexity, want[i].mean_complexity)
        << "instance " << i;
    EXPECT_EQ(got[i].value, want[i].value) << "instance " << i;
  }
}

corpus::Corpus clustered_corpus(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return corpus::Corpus::generate(corpus::text_400k_sizes(), n, rng, 0.15,
                                  100);
}

TEST(PlanAssign, MatchesBinLevelPackersAtAnyInstanceCount) {
  const corpus::Corpus data = clustered_corpus(3000, 11);
  const std::size_t n = data.file_count();
  for (const PackingStrategy strategy :
       {PackingStrategy::kFirstFit, PackingStrategy::kUniform,
        PackingStrategy::kAdjusted}) {
    // k = 1, a few, the file count, and past it (empty bins dropped).
    for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                                std::size_t{7}, std::size_t{64}, n, n + 5}) {
      for (const Bytes target :
           {data.max_file_size(), data.total_volume() / k + Bytes(1)}) {
        const std::vector<Assignment> got = assign(data, strategy, k, target);
        expect_same_assignments(got, oracle_assign(data, strategy, k, target));
        if (k > n) {
          EXPECT_LE(got.size(), n);
        }
      }
    }
  }
}

TEST(PlanAssign, ZeroInstancesThrow) {
  const corpus::Corpus data = clustered_corpus(10, 1);
  EXPECT_THROW((void)assign(data, PackingStrategy::kUniform, 0, 1_MB), Error);
  EXPECT_THROW((void)assign(data, PackingStrategy::kFirstFit, 0, 1_MB), Error);
}

TEST(StaticPlanner, PlanMatchesBinLevelOracle) {
  const StaticPlanner planner(eq3_predictor());
  const corpus::Corpus data = clustered_corpus(40'000, 3);
  for (const PackingStrategy strategy :
       {PackingStrategy::kFirstFit, PackingStrategy::kUniform,
        PackingStrategy::kAdjusted}) {
    for (const Seconds deadline : {Seconds(600.0), 1_h, 2_h}) {
      PlanOptions options;
      options.deadline = deadline;
      options.strategy = strategy;
      options.residuals.stddev = 0.1;
      const ExecutionPlan plan = planner.plan(data, options);
      const Bytes x0 = plan.per_instance_target;
      // ceil(V / x0) instances, plus one at a time while a balanced
      // plan's largest share exceeds x0.
      std::size_t k = instances_needed(data.total_volume(), x0);
      std::vector<Assignment> want = oracle_assign(data, strategy, k, x0);
      const auto over = [&want, x0] {
        return std::any_of(want.begin(), want.end(), [x0](const Assignment& a) {
          return a.volume > x0;
        });
      };
      while (strategy != PackingStrategy::kFirstFit && over()) {
        want = oracle_assign(data, strategy, ++k, x0);
      }
      expect_same_assignments(plan.assignments, want);
    }
  }
}

// Files close to x0 defeat the greedy split: 60 B files under x0 = 100 B
// need one instance each, and adding one instance per rebalance took
// O(n) rebalances.  Balanced plans start at the pigeonhole bound instead;
// they must land on the plan the one-at-a-time loop reaches.
model::Predictor one_second_per_byte() {
  return model::Predictor(model::AffineFit{0.0, 1.0, {}});
}

corpus::Corpus files_of(const std::vector<std::uint64_t>& sizes) {
  std::vector<corpus::VirtualFile> files;
  for (const std::uint64_t size : sizes) {
    files.push_back(corpus::VirtualFile{files.size(), Bytes(size), 1.0});
  }
  return corpus::Corpus(std::move(files));
}

TEST(StaticPlanner, OvershootBoundMatchesOneAtATimeLoop) {
  const StaticPlanner planner(one_second_per_byte());
  Rng rng(60);
  for (const std::size_t n :
       {std::size_t{1000}, std::size_t{2000}, std::size_t{4000}}) {
    // 50 B files pair up exactly at x0: a size of exactly x0 / (j + 1)
    // must not count towards c_j.
    std::vector<std::uint64_t> sixty(n, 60), fifty(n, 50), mixed, small;
    for (std::size_t i = 0; i < n; ++i) {
      mixed.push_back(1 + rng.uniform_below(100));  // every j counts
      small.push_back(1 + rng.uniform_below(12));   // j up to 100
    }
    for (const corpus::Corpus& data : {files_of(sixty), files_of(fifty),
                                       files_of(mixed), files_of(small)}) {
      for (const PackingStrategy strategy :
           {PackingStrategy::kUniform, PackingStrategy::kAdjusted}) {
        PlanOptions options;
        options.deadline = Seconds(100.0);
        options.strategy = strategy;
        const ExecutionPlan plan = planner.plan(data, options);
        const Bytes x0 = plan.per_instance_target;
        ASSERT_EQ(x0, Bytes(100));
        std::size_t k = instances_needed(data.total_volume(), x0);
        std::vector<Assignment> want = oracle_assign(data, strategy, k, x0);
        while (std::any_of(want.begin(), want.end(), [x0](const Assignment& a) {
          return a.volume > x0;
        })) {
          want = oracle_assign(data, strategy, ++k, x0);
        }
        expect_same_assignments(plan.assignments, want);
      }
    }
  }
}

// At 200k files the one-at-a-time loop would take 80k rebalances of 200k
// files each; from the bound it is one.
TEST(StaticPlanner, OvershootBoundPlansLargeCorporaAtOnce) {
  const StaticPlanner planner(one_second_per_byte());
  PlanOptions options;
  options.deadline = Seconds(100.0);
  options.strategy = PackingStrategy::kUniform;
  const ExecutionPlan plan =
      planner.plan(files_of(std::vector<std::uint64_t>(200'000, 60)), options);
  ASSERT_EQ(plan.assignments.size(), 200'000u);
  for (const Assignment& a : plan.assignments) {
    EXPECT_EQ(a.volume, Bytes(60));
    EXPECT_EQ(a.file_count, 1u);
  }
  EXPECT_LE(plan.predicted_makespan, plan.planning_deadline);
}

TEST(PackingStrategyNames, Render) {
  EXPECT_EQ(to_string(PackingStrategy::kFirstFit), "first-fit");
  EXPECT_EQ(to_string(PackingStrategy::kAdjusted), "adjusted-deadline");
}

}  // namespace
}  // namespace reshape::provision
