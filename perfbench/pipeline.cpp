// pipeline_html18m / pipeline_text400k: the paper's chain at paper scale.
//
// One operation is one chain, exactly as reshape_cli runs it: merge_to_unit
// at the 10 MB unit, acquire_screened plus five probe volumes of five
// run_time reps, Predictor::fit, StaticPlanner::plan (uniform), then
// execute_plan on a screened fleet, then retrieval of the result objects.
//   HTML_18mil, 18M files, grep, deadline 7200 s, reshaped input (2 instances)
//   Text_400K, 400k files, pos, deadline 1800 s, original files (~85)
// The corpus is generated in set-up.  Each workload also runs, once per
// round, an operation that fails because of a known fault (README.md,
// "Known faults"): the HTML one compares `reshape_cli --dynamic` with the
// static run; the Text_400K one checks that the plan's predicted makespan
// is within its deadline.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cloud/app_profile.hpp"
#include "cloud/provider.hpp"
#include "cloud/types.hpp"
#include "cloud/workload.hpp"
#include "common.hpp"
#include "common/stats.hpp"
#include "corpus/corpus.hpp"
#include "corpus/distribution.hpp"
#include "model/predictor.hpp"
#include "provision/executor.hpp"
#include "provision/planner.hpp"
#include "provision/retrieval.hpp"
#include "reshape/merge.hpp"
#include "sim/simulation.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace reshape;

constexpr Bytes kUnit = 10_MB;  // reshape_cli's default unit

struct ChainSpec {
  const char* name;
  corpus::FileSizeDistribution (*sizes)();
  std::size_t files;
  bool grep;  // grep over reshaped blocks; otherwise pos over the originals
  Seconds deadline;
  double output_ratio;  // result volume per input byte (retrieval)
  // Set-up repetitions before the first round.  Set-up is timed once more
  // after every round, so that its median samples the whole run rather
  // than one moment of the host.
  int setups;
  // The check that the plan's predicted makespan is within its deadline
  // is this workload's known-fault operation rather than an output check.
  bool overshoot_fault;
};

const ChainSpec kHtml{"html18m", corpus::html_18mil_sizes, 18'000'000, true,
                      Seconds(7200.0), 0.01, 3, false};
const ChainSpec kText{"text400k", corpus::text_400k_sizes, 400'000, false,
                      Seconds(1800.0), 1.1, 1, true};

/// The seed of the Text_400K known-fault operation's fixed inputs: its plan
/// overshoots the deadline (README.md, "Known faults").
constexpr std::uint64_t kOvershootSeed = 1;

enum Stage { kMerge, kScreen, kFit, kPlan, kExecute, kRetrieve, kStages };

/// Stage laps of one chain.  Untraced, only the chain's start and end are
/// read; traced, every stage boundary is.
class Laps {
 public:
  explicit Laps(bool traced) : traced_(traced) {}
  void lap(Stage stage) {
    if (!traced_) return;
    const Clock::time_point now = Clock::now();
    stage_s[stage] = std::chrono::duration<double>(now - last_).count();
    last_ = now;
  }
  [[nodiscard]] double total() const { return since(start_); }

  double stage_s[kStages] = {};

 private:
  bool traced_;
  Clock::time_point start_ = Clock::now();
  Clock::time_point last_ = start_;
};

struct ChainResult {
  double wall_s = 0.0;
  double stage_s[kStages] = {};
  std::size_t blocks = 0;
  double fill = 0.0;
  std::size_t instances = 0;
  std::size_t missed = 0;
  double cost = 0.0;
  double makespan_ratio = 0.0;
  bool plan_over_deadline = false;
  std::uint64_t launches = 0;
  std::size_t failures = 0;
  std::string failure;  // first failed output check
};

// ---------------------------------------------------------------- oracles

/// FNV-1a over each member id's eight little-endian bytes, then the used
/// byte count: the block digest definition, written out independently.
std::uint64_t fnv1a_block(const pack::Bin& bin) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  };
  for (const std::uint64_t id : bin.item_ids) mix(id);
  mix(bin.used.count());
  return h;
}

std::string check_merge(const corpus::Corpus& data,
                        const pack::MergedCorpus& merged) {
  Checks c;
  const std::vector<corpus::VirtualFile>& files = data.files();
  std::vector<const corpus::VirtualFile*> by_id(files.size(), nullptr);
  for (const corpus::VirtualFile& f : files) {
    if (f.id >= files.size() || by_id[f.id] != nullptr) {
      return "corpus file ids are not 0..n-1";
    }
    by_id[f.id] = &f;
  }
  std::vector<bool> seen(files.size(), false);
  std::uint64_t total = 0;
  c.expect(merged.digests.size() == merged.blocks.size(),
           "one digest per block");
  for (std::size_t b = 0; b < merged.blocks.size(); ++b) {
    const pack::Bin& bin = merged.blocks[b];
    std::uint64_t used = 0;
    for (const std::uint64_t id : bin.item_ids) {
      if (id >= files.size() || seen[id]) {
        return "a file id is in more than one block, or unknown";
      }
      seen[id] = true;
      used += by_id[id]->size.count();
    }
    c.expect(used == bin.used.count(), "block used size = sum of its files");
    // Files are unsplittable: a file larger than the unit travels alone.
    c.expect(bin.used <= kUnit || bin.item_ids.size() == 1,
             "no block exceeds the unit");
    c.expect(b < merged.digests.size() &&
                 merged.digests[b] == fnv1a_block(bin),
             "block digest = FNV-1a over member ids and used size");
    total += bin.used.count();
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    if (!seen[i]) return "a file id is in no block";
  }
  c.expect(total == data.total_volume().count(),
           "block sizes sum to the corpus volume");
  return c.failure();
}

/// The meter's bill recomputed apart from it: each instance's billed
/// running time rounded up to whole hours, times the hourly price.
double hourly_bill(const cloud::CloudProvider& provider, Seconds now) {
  const double rate =
      cloud::spec_for(cloud::InstanceType::kSmall).hourly_rate.amount();
  double total = 0.0;
  for (const auto& record : provider.cost_records(now)) {
    total += std::ceil(record.running_s / 3600.0) * rate;
  }
  return total;
}

// ------------------------------------------------------------------ chain

corpus::Corpus generate(const ChainSpec& spec, const Rng& root) {
  Rng rng = root.split(spec.name);
  return corpus::Corpus::generate(spec.sizes(), spec.files, rng, 0.15, 1000);
}

cloud::AppCostProfile app_of(const ChainSpec& spec) {
  return spec.grep ? cloud::grep_profile() : cloud::pos_profile();
}

/// Probe volumes and their mean run times, from one screened instance.
struct Probes {
  std::vector<double> xs, ys;
  std::uint64_t launches = 0;
  std::size_t failures = 0;
};

/// acquire_screened plus five probe volumes of five run_time reps.
Probes screen_and_probe(const corpus::Corpus& data, const ChainSpec& spec,
                        const Rng& root) {
  const cloud::AppCostProfile app = app_of(spec);
  sim::Simulation sim;
  cloud::CloudProvider ec2(sim, root.split("cloud"), cloud::ProviderConfig{});
  const auto acq = ec2.acquire_screened(
      cloud::InstanceType::kSmall, cloud::AvailabilityZone{cloud::Region::kUsEast, 0});
  Rng noise = root.split("noise");
  Probes p;
  const Bytes probe_base =
      std::min(data.total_volume() / 10, Bytes(500'000'000));
  for (int k = 1; k <= 5; ++k) {
    const corpus::Corpus head =
        data.take_volume(probe_base * static_cast<std::uint64_t>(k));
    const cloud::DataLayout layout =
        spec.grep ? cloud::DataLayout::reshaped(head.total_volume(), kUnit)
                  : cloud::DataLayout::original(head.total_volume(),
                                                head.file_count(),
                                                head.mean_file_size());
    RunningStats reps;
    for (int rep = 0; rep < 5; ++rep) {
      reps.add(cloud::run_time(app, layout, ec2.instance(acq.id),
                               cloud::LocalStorage{}, noise)
                   .value());
    }
    p.xs.push_back(head.total_volume().as_double());
    p.ys.push_back(reps.mean());
  }
  p.launches = ec2.launches();
  p.failures = ec2.failure_count();
  return p;
}

provision::PlanOptions plan_options(const ChainSpec& spec,
                                    const model::Predictor& predictor,
                                    const Probes& probes) {
  provision::PlanOptions options;
  options.deadline = spec.deadline;
  options.strategy = provision::PackingStrategy::kUniform;
  options.residuals =
      model::relative_residuals(predictor, probes.xs, probes.ys);
  return options;
}

ChainResult run_chain(const corpus::Corpus& data, const ChainSpec& spec,
                      const Rng& root, bool traced) {
  ChainResult r;
  Laps laps(traced);

  const pack::MergedCorpus merged = pack::merge_to_unit(data, kUnit);
  laps.lap(kMerge);

  const Probes probes = screen_and_probe(data, spec, root);
  laps.lap(kScreen);

  const model::Predictor predictor =
      model::Predictor::fit(probes.xs, probes.ys);
  const provision::PlanOptions options =
      plan_options(spec, predictor, probes);
  laps.lap(kFit);

  const provision::ExecutionPlan plan =
      provision::StaticPlanner(predictor).plan(data, options);
  laps.lap(kPlan);

  sim::Simulation exec_sim;
  cloud::ProviderConfig fleet_config;
  fleet_config.mixture = cloud::screened_fleet_mixture();
  cloud::CloudProvider fleet(exec_sim, root.split("fleet"), fleet_config);
  Rng run_noise = root.split("runs");
  provision::ExecutionOptions exec;
  exec.reshaped_unit = spec.grep ? kUnit : Bytes(0);
  const provision::ExecutionReport report =
      provision::execute_plan(fleet, plan, app_of(spec), exec, run_noise);
  laps.lap(kExecute);

  const provision::OutputSegmentation output =
      spec.grep ? provision::OutputSegmentation::per_block(
                      data.total_volume(), kUnit, spec.output_ratio)
                : provision::OutputSegmentation::per_input_file(
                      data.file_count(), data.total_volume(),
                      spec.output_ratio);
  Rng retrieve_rng = root.split("retrieve");
  const Seconds retrieval = provision::retrieval_time_sampled(
      output, fleet.config().s3, retrieve_rng);
  laps.lap(kRetrieve);
  r.wall_s = laps.total();

  for (int s = 0; s < kStages; ++s) r.stage_s[s] = laps.stage_s[s];
  r.blocks = merged.block_count();
  r.fill = merged.fill_factor();
  r.instances = plan.instance_count();
  r.missed = report.missed;
  r.cost = report.cost.amount();
  r.makespan_ratio =
      report.makespan.value() / plan.predicted_makespan.value();
  r.plan_over_deadline = plan.predicted_makespan > plan.deadline;
  r.launches = probes.launches + fleet.launches();
  r.failures = probes.failures + fleet.failure_count();

  Checks c;
  const std::string merge_failure = check_merge(data, merged);
  c.expect(merge_failure.empty(), merge_failure);
  const double bill = hourly_bill(fleet, exec_sim.now());
  c.expect(std::fabs(report.cost.amount() - bill) <= 1e-9 * std::max(1.0, bill),
           "reported cost = billed hours rounded up x hourly price");
  c.expect(spec.overshoot_fault || !r.plan_over_deadline,
           "the plan's predicted makespan is within its deadline");
  c.expect(report.instance_count() == plan.instance_count(),
           "one outcome per planned instance");
  c.expect(retrieval.value() > 0.0, "retrieval takes time");
  r.failure = c.failure();
  return r;
}

// ------------------------------------------------------- the known fault

/// Runs reshape_cli (built beside this binary) and returns its standard
/// output; waits for it to end.
std::string run_cli(const std::vector<std::string>& args, int& status) {
  char self[4096];
  const ssize_t n = readlink("/proc/self/exe", self, sizeof self - 1);
  if (n <= 0) throw std::runtime_error("cannot locate perfbench binary");
  std::string exe(self, static_cast<std::size_t>(n));
  exe = exe.substr(0, exe.rfind('/') + 1) + "reshape_cli";

  std::vector<std::string> argv_s{exe};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    throw std::runtime_error("cannot start " + exe);
  }
  std::string out;
  char buf[4096];
  ssize_t got = 0;
  while ((got = read(fds[0], buf, sizeof buf)) > 0) {
    out.append(buf, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  int wstatus = 0;
  while (waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  status = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
  return out;
}

/// Deadlines met, parsed from reshape_cli's "[run] ... missed M/N" line.
std::optional<long> deadlines_met(const std::string& out) {
  const std::size_t at = out.find("missed ");
  if (at == std::string::npos) return std::nullopt;
  long missed = 0, total = 0;
  if (std::sscanf(out.c_str() + at, "missed %ld/%ld", &missed, &total) != 2) {
    return std::nullopt;
  }
  return total - missed;
}

/// `reshape_cli --dynamic` on these flags builds its rescheduling options
/// without the reshaped unit, so the rescheduler processes the original
/// 50 kB files and misses a deadline the static run meets.  The operation
/// fails while the rescheduled run meets fewer deadlines than the static
/// one.  Returns whether it failed; a run that cannot be parsed is an
/// error.
bool dynamic_meets_fewer_deadlines() {
  const std::vector<std::string> flags{"--corpus", "html",  "--files",
                                       "4000000",  "--deadline", "7200",
                                       "--seed",   "3"};
  std::vector<std::string> dynamic_flags = flags;
  dynamic_flags.push_back("--dynamic");
  int static_status = 0, dynamic_status = 0;
  const auto met_static = deadlines_met(run_cli(flags, static_status));
  const auto met_dynamic =
      deadlines_met(run_cli(dynamic_flags, dynamic_status));
  // reshape_cli exits 0 when every deadline is met and 1 otherwise.
  if (!met_static || !met_dynamic || static_status < 0 || static_status > 1 ||
      dynamic_status < 0 || dynamic_status > 1) {
    throw std::runtime_error("reshape_cli did not run to its end");
  }
  return *met_dynamic < *met_static;
}

}  // namespace

void run_pipeline(const Options& options, Run& run, bool html) {
  const ChainSpec& spec = html ? kHtml : kText;
  const Rng root(options.seed);

  // Set-up: generate the corpus (regenerating it gives the same corpus).
  corpus::Corpus data;
  Samples setups;
  auto set_up = [&] {
    data = corpus::Corpus();
    data = generate(spec, root);
  };
  for (int i = 0; i < spec.setups; ++i) setups.add(timed(set_up));
  std::fprintf(stderr, "[%s] set-up %.3f s: %zu files, %s\n", spec.name,
               setups.median(), data.file_count(),
               data.total_volume().str().c_str());

  // The known-fault operation's fixed inputs (not timed as set-up).
  corpus::Corpus fault_data;
  std::optional<model::Predictor> fault_predictor;
  provision::PlanOptions fault_options;
  if (spec.overshoot_fault) {
    const Rng fixed(kOvershootSeed);
    fault_data = generate(spec, fixed);
    const Probes probes = screen_and_probe(fault_data, spec,
                                           fixed.split("chain"));
    fault_predictor = model::Predictor::fit(probes.xs, probes.ys);
    fault_options = plan_options(spec, *fault_predictor, probes);
  }

  Samples untraced, traced;
  Samples stages[kStages], residue;
  ChainResult last;
  const Rng chain_root = root.split("chain");
  run_rounds(options, [&](std::size_t round) {
    const bool traced_round = options.trace && round % 2 == 1;
    ChainResult r = run_chain(data, spec, chain_root, traced_round);
    (traced_round ? traced : untraced).add(r.wall_s);
    if (traced_round) {
      double sum = 0.0;
      for (int s = 0; s < kStages; ++s) {
        stages[s].add(r.stage_s[s]);
        sum += r.stage_s[s];
      }
      residue.add((r.wall_s - sum) * 1e3);
    }
    run.op(r.failure);
    if (html) {
      run.known_failure(dynamic_meets_fewer_deadlines(),
                        "reshape_cli --dynamic meets fewer deadlines than the "
                        "static run (rescheduler drops the reshaped unit)");
    } else {
      // Fails while the fixed inputs' plan, or this seed's, overshoots.
      const provision::ExecutionPlan plan =
          provision::StaticPlanner(*fault_predictor)
              .plan(fault_data, fault_options);
      run.known_failure(
          plan.predicted_makespan > plan.deadline || r.plan_over_deadline,
          "the uniform plan's predicted makespan exceeds its deadline");
    }
    last = std::move(r);
    setups.add(timed(set_up));
  });

  const double setup_s = setups.median();
  run.metric("setup_s", setup_s);
  run.metric("peak_rss_mb", peak_rss_mb());
  run.metric("op_p50_ms", untraced.median() * 1e3);
  if (!options.trace) return;

  run.metric("trace.overhead_pct",
             100.0 * (traced.median() - untraced.median()) / untraced.median());
  run.metric(html ? "html18m_s" : "text400k_ms",
             html ? untraced.median() : untraced.median() * 1e3);
  run.metric("corpus.generate_s", setup_s);
  run.metric("reshape.merge_s", stages[kMerge].median());
  run.metric("reshape.merge_items_per_s",
             static_cast<double>(data.file_count()) / stages[kMerge].median());
  run.metric("reshape.blocks", static_cast<double>(last.blocks));
  run.metric("reshape.fill_factor", last.fill);
  {
    // Reference only: nothing in production calls the parallel merge.
    // Three shards keep this process within four threads.
    const Clock::time_point t0 = Clock::now();
    const pack::MergedCorpus parallel = pack::merge_to_unit_parallel(
        data, kUnit, pack::ItemOrder::kOriginal, 3);
    run.metric("reshape.merge_parallel_s", since(t0));
    run.metric("reshape.merge_parallel_fill_factor", parallel.fill_factor());
  }
  run.metric("cloud.screen_s", stages[kScreen].median());
  run.metric("cloud.launches", static_cast<double>(last.launches));
  run.metric("cloud.failures", static_cast<double>(last.failures));
  run.metric("model.fit_s", stages[kFit].median());
  run.metric("model.makespan_ratio", last.makespan_ratio);
  run.metric("provision.plan_s", stages[kPlan].median());
  run.metric("provision.instances", static_cast<double>(last.instances));
  run.metric("provision.execute_s", stages[kExecute].median());
  run.metric("provision.retrieve_s", stages[kRetrieve].median());
  run.metric("provision.deadlines_missed", static_cast<double>(last.missed));
  run.metric("provision.cost_usd", last.cost);
  run.metric("pipeline.residue_ms", residue.median());
  std::fprintf(stderr,
               "[%s] chain median %.4f s untraced, %.4f s traced "
               "(timer cost %+.2f%%); stage medians sum to %.4f s\n",
               spec.name, untraced.median(), traced.median(),
               100.0 * (traced.median() - untraced.median()) /
                   untraced.median(),
               [&] {
                 double s = 0.0;
                 for (const Samples& st : stages) s += st.median();
                 return s;
               }());
}

}  // namespace perfbench
