// The §3.1/§7 checkpoint rescheduler: execute_plan with a checkpoint set.

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "corpus/distribution.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "provision/executor.hpp"

namespace reshape::provision {
namespace {

model::Predictor eq3_predictor() {
  std::vector<double> xs, ys;
  for (double v = 1e4; v <= 1e6; v += 1e5) {
    xs.push_back(v);
    ys.push_back(0.327 + 0.865e-4 * v);
  }
  return model::Predictor::fit(xs, ys);
}

corpus::Corpus data_200mb(std::uint64_t seed = 1) {
  Rng rng(seed);
  corpus::Corpus all =
      corpus::Corpus::generate(corpus::text_400k_sizes(), 60'000, rng);
  return all.take_volume(200_MB);
}

ExecutionPlan uniform_plan(const corpus::Corpus& data) {
  const StaticPlanner planner(eq3_predictor());
  PlanOptions options;
  options.deadline = 1_h;
  options.strategy = PackingStrategy::kUniform;
  return planner.plan(data, options);
}

/// EBS-staged execution with the monitor 600 s after each boot.
ExecutionOptions rescheduling() {
  ExecutionOptions options;
  options.checkpoint = Seconds(600.0);
  return options;
}

ExecutionReport run(const cloud::ProviderConfig& config, std::uint64_t seed,
                    const ExecutionPlan& plan, const ExecutionOptions& options,
                    std::uint64_t noise_seed) {
  sim::Simulation sim;
  cloud::CloudProvider provider(sim, Rng(seed), config);
  Rng noise(noise_seed);
  return execute_plan(provider, plan, cloud::pos_profile(), options, noise);
}

cloud::ProviderConfig half_slow_config() {
  cloud::ProviderConfig config;
  config.mixture.p_fast = 0.5;
  config.mixture.p_slow = 0.5;
  return config;
}

const std::string* arg_of(const obs::TraceEvent& e, const std::string& key) {
  for (const obs::TraceArg& a : e.args) {
    if (a.key == key) return &a.json;
  }
  return nullptr;
}

TEST(DynamicExecution, CompletesEveryAssignment) {
  const ExecutionPlan plan = uniform_plan(data_200mb());
  const ExecutionReport report =
      run(cloud::ProviderConfig{}, 31, plan, rescheduling(), 1);
  EXPECT_EQ(report.instance_count(), plan.instance_count());
  for (const InstanceOutcome& o : report.outcomes) {
    EXPECT_GT(o.work_time.value(), 0.0);
  }
}

TEST(DynamicExecution, ReplacesSlowInstances) {
  // Force a fleet with many slow instances so replacement triggers.
  const ExecutionPlan plan = uniform_plan(data_200mb());
  obs::reset();
  obs::set_enabled(true);
  const ExecutionReport report =
      run(half_slow_config(), 77, plan, rescheduling(), 2);
  obs::set_enabled(false);
  const std::vector<obs::TraceEvent> events = obs::trace().snapshot();
  obs::reset();
  EXPECT_GT(report.replacements, 0u);
  if (!obs::compiled_in()) return;  // the trace check needs recording sites

  std::size_t seen = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.name != "reschedule") continue;
    ++seen;
    const std::string* replaced = arg_of(e, "replaced");
    const std::string* replacement = arg_of(e, "replacement");
    const std::string* old_bar = arg_of(e, "old_projection_s");
    const std::string* new_bar = arg_of(e, "new_completion_s");
    ASSERT_TRUE(replaced && replacement && old_bar && new_bar);
    EXPECT_NE(*replaced, *replacement);
    // The policy only switches when it projects an improvement.
    EXPECT_LT(std::stod(*new_bar), std::stod(*old_bar));
  }
  EXPECT_EQ(seen, report.replacements);
}

TEST(DynamicExecution, BeatsStaticOnSlowFleet) {
  const ExecutionPlan plan = uniform_plan(data_200mb());
  const ExecutionReport static_report =
      run(half_slow_config(), 77, plan, ExecutionOptions{}, 2);
  const ExecutionReport dynamic_report =
      run(half_slow_config(), 77, plan, rescheduling(), 2);
  EXPECT_LT(dynamic_report.makespan.value(), static_report.makespan.value());
  EXPECT_LE(dynamic_report.missed, static_report.missed);
}

TEST(DynamicExecution, NoReplacementsOnUniformFastFleet) {
  cloud::ProviderConfig config;
  config.mixture = cloud::uniform_fast_mixture();
  const ExecutionPlan plan = uniform_plan(data_200mb());
  const ExecutionReport report = run(config, 5, plan, rescheduling(), 3);
  EXPECT_EQ(report.replacements, 0u);
  EXPECT_EQ(report.missed, 0u);
}

TEST(DynamicExecution, IdleMonitorLeavesTheReportUnchanged) {
  // On an all-fast fleet the monitor never acts, so the run must equal the
  // same run without it, field for field.
  cloud::ProviderConfig config;
  config.mixture = cloud::uniform_fast_mixture();
  const ExecutionPlan plan = uniform_plan(data_200mb());
  const ExecutionReport plain = run(config, 5, plan, ExecutionOptions{}, 3);
  const ExecutionReport monitored = run(config, 5, plan, rescheduling(), 3);
  EXPECT_EQ(monitored.replacements, 0u);
  EXPECT_EQ(monitored.makespan, plain.makespan);
  EXPECT_EQ(monitored.cost, plain.cost);
  EXPECT_EQ(monitored.instance_hours, plain.instance_hours);
  EXPECT_EQ(monitored.missed, plain.missed);
  ASSERT_EQ(monitored.outcomes.size(), plain.outcomes.size());
  for (std::size_t i = 0; i < plain.outcomes.size(); ++i) {
    EXPECT_EQ(monitored.outcomes[i].work_time, plain.outcomes[i].work_time);
    EXPECT_EQ(monitored.outcomes[i].exec_time, plain.outcomes[i].exec_time);
    EXPECT_EQ(monitored.outcomes[i].id, plain.outcomes[i].id);
  }
}

// --- Fault tolerance (composition with the injector) ----------------------

cloud::ProviderConfig crashy_config(double crash_rate) {
  cloud::ProviderConfig config;
  config.mixture = cloud::uniform_fast_mixture();
  config.faults.crash_rate_per_hour = crash_rate;
  return config;
}

ExecutionOptions recovery_options() {
  ExecutionOptions options = rescheduling();
  // The uniform-fast fleet benches writes at 65 * 0.92 = 59.8 MB/s, so the
  // paper's 60 MB/s bar would reject every replacement; screen just below.
  options.relaunch_threshold = Rate::megabytes_per_second(55.0);
  options.max_relaunches = 10;
  return options;
}

TEST(DynamicFaults, SurvivesCrashesAroundTheCheckpoint) {
  // A high crash rate makes failures land before, at and after the 600 s
  // checkpoint across the fleet; every assignment must still terminate
  // (completed or abandoned — with a generous relaunch budget, completed).
  const ExecutionPlan plan = uniform_plan(data_200mb());
  const ExecutionReport report =
      run(crashy_config(3.0), 31, plan, recovery_options(), 1);
  ASSERT_GE(report.failures, 1u)
      << "seed no longer injects a crash; pick another seed";
  EXPECT_EQ(report.abandoned, 0u);
  EXPECT_GE(report.relaunches, 1u);
  EXPECT_GT(report.recovery_time.value(), 0.0);
  for (const InstanceOutcome& o : report.outcomes) {
    EXPECT_TRUE(o.completed);
    EXPECT_GT(o.work_time.value(), 0.0);
  }
}

TEST(DynamicFaults, ExhaustedRelaunchBudgetAbandonsCleanly) {
  // Crashes every few simulated minutes: no run survives to completion.
  const ExecutionPlan plan = uniform_plan(data_200mb());
  ExecutionOptions options = rescheduling();
  options.max_relaunches = 0;
  const ExecutionReport report =
      run(crashy_config(40.0), 31, plan, options, 1);
  ASSERT_GT(report.abandoned, 0u);
  for (const InstanceOutcome& o : report.outcomes) {
    if (!o.completed) {
      EXPECT_FALSE(o.error.empty());
      EXPECT_FALSE(o.met_deadline);
    }
  }
}

TEST(DynamicFaults, CrashyRunsReplayBitIdentically) {
  const ExecutionPlan plan = uniform_plan(data_200mb());
  const ExecutionReport a =
      run(crashy_config(3.0), 31, plan, recovery_options(), 1);
  const ExecutionReport b =
      run(crashy_config(3.0), 31, plan, recovery_options(), 1);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.relaunches, b.relaunches);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.replacements, b.replacements);
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].work_time, b.outcomes[i].work_time);
    EXPECT_EQ(a.outcomes[i].failures, b.outcomes[i].failures);
  }
}

TEST(DynamicFaults, ZeroFaultModelKeepsCountersZeroAndBehaviourIdentical) {
  // Guard for the fault-hook plumbing: with the zero model the monitored
  // run must not record failures or recovery time.
  cloud::ProviderConfig config;
  config.mixture = cloud::uniform_fast_mixture();
  const ExecutionPlan plan = uniform_plan(data_200mb());
  const ExecutionReport report = run(config, 5, plan, rescheduling(), 3);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.relaunches, 0u);
  EXPECT_EQ(report.abandoned, 0u);
  EXPECT_DOUBLE_EQ(report.recovery_time.value(), 0.0);
}

TEST(DynamicExecution, RequiresEbs) {
  const ExecutionPlan plan = uniform_plan(data_200mb());
  ExecutionOptions options = rescheduling();
  options.data_on_ebs = false;
  EXPECT_THROW(
      (void)run(cloud::ProviderConfig{}, 5, plan, options, 4), Error);
}

}  // namespace
}  // namespace reshape::provision
