// perfbench — the end-to-end benchmark of the reshape pipeline.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: pipeline_html18m, pipeline_text400k, text_bytes, plan_serve
// (see README.md).  Each run sets up its seeded inputs, repeats whole
// rounds of the workload's operations for S seconds, checks every output
// against the benchmark's own oracles, and prints one JSON object as the
// last line of standard output: the verdict, the operation counts and
// every figure it measured, by name.  With --trace 1 it also times each
// layer.  run.py turns that line into the benchmark's result, with the
// metric names and units of BENCHMARK.json.  Progress and diagnostics go
// to standard error.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace perfbench {

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void Run::op(const std::string& check_failure) {
  ++attempted_;
  if (check_failure.empty()) return;
  ++failed_;
  if (correct_) {
    std::fprintf(stderr, "perfbench: output check failed: %s\n",
                 check_failure.c_str());
  }
  correct_ = false;
}

void Run::known_failure(bool failed, const std::string& what) {
  ++attempted_;
  if (!failed) return;
  if (!known_reported_) {
    std::fprintf(stderr, "perfbench: known fault: %s\n", what.c_str());
    known_reported_ = true;
  }
  ++failed_;
}

void Run::metric(const std::string& name, double value) {
  if (!std::isfinite(value)) {
    throw std::logic_error("non-finite metric " + name);
  }
  values_[name] = value;
}

void Run::print() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"values\": {";
  bool first = true;
  for (const auto& [name, v] : values_) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": " + value;
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload pipeline_html18m|pipeline_text400k|"
               "text_bytes|plan_serve --seed N --seconds S --trace 0|1\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      usage(argv[0]);
    }
  }
  if (!(options.seconds > 0.0)) usage(argv[0]);

  perfbench::Run run;
  try {
    if (options.workload == "pipeline_html18m") {
      perfbench::run_pipeline(options, run, /*html=*/true);
    } else if (options.workload == "pipeline_text400k") {
      perfbench::run_pipeline(options, run, /*html=*/false);
    } else if (options.workload == "text_bytes") {
      perfbench::run_text_bytes(options, run);
    } else if (options.workload == "plan_serve") {
      perfbench::run_plan_serve(options, run);
    } else {
      usage(argv[0]);
    }
    run.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
