// §3.1/§7 — dynamic rescheduling ablation: static execution vs
// checkpoint-based replacement of lagging instances.
//
// The paper sketches the policy (monitor during execution; if an instance
// is slow, start a replacement and re-attach its EBS volume — no data
// transfer) and motivates it with the switch calculus.  This table runs
// the same plan both ways over fleets of increasing slow-instance share
// and reports makespan, misses, cost and the number of replacements.

#include "bench_util.hpp"
#include "corpus/corpus.hpp"
#include "corpus/distribution.hpp"
#include "provision/executor.hpp"
#include "provision/planner.hpp"

using namespace reshape;

namespace {

model::Predictor reference_predictor() {
  std::vector<double> xs, ys;
  for (double v = 1e5; v <= 1e7; v += 2e6) {
    xs.push_back(v);
    ys.push_back(0.327 + 0.865e-4 * v);
  }
  return model::Predictor::fit(xs, ys);
}

}  // namespace

int main() {
  bench::banner("Dynamic rescheduling (§3.1, §7)",
                "replace lagging instances via EBS re-attachment");

  const Rng root(313);
  Rng corpus_rng = root.split("corpus");
  const corpus::Corpus data =
      corpus::Corpus::generate(corpus::text_400k_sizes(), 80'000, corpus_rng)
          .take_volume(250_MB);

  provision::StaticPlanner planner(reference_predictor());
  provision::PlanOptions plan_options;
  plan_options.deadline = 30_min;
  plan_options.strategy = provision::PackingStrategy::kUniform;
  const provision::ExecutionPlan plan = planner.plan(data, plan_options);
  std::printf("plan: %zu instances, %s each, deadline %s\n\n",
              plan.instance_count(), plan.per_instance_target.str().c_str(),
              plan.deadline.str().c_str());

  Table t({"slow share", "mode", "makespan", "missed", "instance-hours",
           "cost", "replacements"});
  for (const double p_slow : {0.0, 0.2, 0.4}) {
    cloud::ProviderConfig config;
    config.mixture.p_fast = 1.0 - p_slow;
    config.mixture.p_slow = p_slow;

    // The same EBS-staged run without and with the checkpoint monitor.
    for (const bool dynamic : {false, true}) {
      sim::Simulation sim;
      cloud::CloudProvider fleet(sim, Rng(991), config);
      Rng noise(17);
      provision::ExecutionOptions exec;
      if (dynamic) exec.checkpoint = Seconds(240.0);
      const provision::ExecutionReport report = provision::execute_plan(
          fleet, plan, cloud::pos_profile(), exec, noise);
      t.add(fmt(100.0 * p_slow, 0) + "%", dynamic ? "dynamic" : "static",
            report.makespan, report.missed, fmt(report.instance_hours, 0),
            report.cost, dynamic ? std::to_string(report.replacements) : "-");
    }
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("replacement pays a boot + attach penalty but recovers most of\n"
              "a slow instance's overrun; on an all-good fleet the monitor\n"
              "never fires, costing nothing — the §3.1 calculus in action.\n");
  return 0;
}
