// Shared plumbing of the perfbench program: options, clocks, sample
// statistics, operation accounting and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Wall-clock samples with order statistics.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Accounting for one workload run: operations attempted and failed, the
/// output verdict, and the measured metrics.
class Run {
 public:
  /// Records one operation.  `check_failure` is empty when every output
  /// check of the operation passed; otherwise it names the failed check,
  /// the operation counts as failed and the run's output is wrong.
  void op(const std::string& check_failure);
  /// Records an operation that fails because of a known, named fault of
  /// the program: it counts as failed but leaves the verdict alone.
  void known_failure(bool failed, const std::string& what);

  /// Sets a measured figure; its name is one that BENCHMARK.json declares.
  void metric(const std::string& name, double value);

  /// Prints the verdict, the operation counts and every measured figure
  /// as one JSON object, the last line of standard output.
  void print() const;

 private:
  bool correct_ = true;
  bool known_reported_ = false;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, double> values_;
};

/// Collects the first failed check of an operation.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok && failure_.empty()) failure_ = what;
  }
  [[nodiscard]] const std::string& failure() const { return failure_; }

 private:
  std::string failure_;
};

/// Peak resident set size of this process so far, MiB.
double peak_rss_mb();

/// Runs whole rounds until `options.seconds` have elapsed.  A traced run
/// alternates untraced and traced rounds, so it runs at least two.
template <typename Round>
void run_rounds(const Options& options, Round&& round) {
  const Clock::time_point t0 = Clock::now();
  const std::size_t min_rounds = options.trace ? 2 : 1;
  std::size_t rounds = 0;
  do {
    round(rounds);
    ++rounds;
  } while (rounds < min_rounds || since(t0) < options.seconds);
}

/// Seconds `f` takes.
template <typename F>
double timed(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return since(t0);
}

/// Times `setup` `times` times and returns the median seconds; the last
/// set-up's state is the one the run keeps.
template <typename Setup>
double median_setup(int times, Setup&& setup) {
  Samples s;
  for (int i = 0; i < times; ++i) s.add(timed(setup));
  return s.median();
}

/// `html`: the HTML_18mil chain (grep, reshaped); otherwise Text_400K
/// (pos, original files).
void run_pipeline(const Options& options, Run& run, bool html);
void run_text_bytes(const Options& options, Run& run);
void run_plan_serve(const Options& options, Run& run);

}  // namespace perfbench
