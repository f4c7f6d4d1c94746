// Bin-packing core microbenchmark — the perf trajectory tracker for the
// reshaping hot path.
//
// Times the naive O(n·b) reference packers against the tournament-tree
// first-fit and multiset best-fit at n in {10k, 100k, 1M}, plus the
// sharded parallel merge, and emits BENCH_binpack.json with items/sec for
// each.  Every timed configuration is first checked for bit-identical bin
// assignments against its reference oracle, and the winner-tree
// placements of pack_into_k / uniform_bins against the naive
// std::min_element scans, so a speedup can never come from a behaviour
// change.
//
// Modes:
//   micro_binpack           full sweep (the 1M naive baseline takes a
//                           minute or two by design — that is the point),
//                           then the pipeline's packing at paper scale:
//                           merge_to_unit of an HTML_18mil-shaped corpus
//                           of 18M files into 10 MB blocks (with the
//                           process's peak RSS), and provision::assign
//                           (uniform) of it onto 2 instances and of a
//                           400k-file Text_400K corpus onto 85
//   micro_binpack --smoke   n=10k only; exits nonzero if any packer
//                           diverges from its naive scan or the tree-based
//                           first-fit is slower than the naive reference.
//                           Wired up as the `bench-smoke` CTest target.
//
// Observability flags (untimed — recording only turns on after the timed
// sweep, for one extra merge pass, so the numbers above stay clean):
//   --trace out.json        wall-clock spans of the parallel merge
//                           (ThreadPool parallel_for + per-shard packing)
//                           exported as Chrome trace-event JSON
//   --metrics out.json      binpack.* / pool.* counter-histogram snapshot

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "corpus/corpus.hpp"
#include "corpus/distribution.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "provision/planner.hpp"
#include "reshape/binpack.hpp"
#include "reshape/merge.hpp"
#include "reshape/pack_index.hpp"

namespace {

using namespace reshape;

constexpr Bytes kCapacity = 64_kB;
constexpr std::size_t kShards = 4;

std::vector<pack::Item> make_items(std::size_t n) {
  Rng rng(42);
  const corpus::FileSizeDistribution dist = corpus::text_400k_sizes();
  std::vector<pack::Item> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back(pack::Item{i, dist.sample(rng)});
  }
  return items;
}

corpus::Corpus corpus_of(const std::vector<pack::Item>& items) {
  std::vector<corpus::VirtualFile> files;
  files.reserve(items.size());
  for (const pack::Item& item : items) {
    files.push_back(corpus::VirtualFile{item.id, item.size, 1.0});
  }
  return corpus::Corpus(std::move(files));
}

bool identical(const std::vector<pack::Bin>& a,
               const std::vector<pack::Bin>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].capacity != b[i].capacity || a[i].used != b[i].used ||
        a[i].item_ids != b[i].item_ids) {
      return false;
    }
  }
  return true;
}

/// The bin each item gets from the textbook O(n·k) scans: the leftmost of
/// k bins with room for it when `capacity` is nonzero (pack_into_k), else
/// the least-loaded bin by std::min_element (uniform_bins, and
/// pack_into_k's spill).
std::vector<std::size_t> naive_placements(const std::vector<pack::Item>& items,
                                          std::size_t k, Bytes capacity) {
  std::vector<std::uint64_t> used(k, 0);
  std::vector<std::size_t> placed;
  placed.reserve(items.size());
  for (const pack::Item& item : items) {
    std::size_t at = 0;
    if (capacity.count() > 0) {
      while (at < k && used[at] + item.size.count() > capacity.count()) ++at;
    }
    if (capacity.count() == 0 || at == k) {
      at = static_cast<std::size_t>(
          std::min_element(used.begin(), used.end()) - used.begin());
    }
    used[at] += item.size.count();
    placed.push_back(at);
  }
  return placed;
}

/// The same decisions through place_into_k / place_least_loaded.
std::vector<std::size_t> tree_placements(const std::vector<pack::Item>& items,
                                         std::size_t k, Bytes capacity) {
  std::vector<std::size_t> placed;
  placed.reserve(items.size());
  const auto record = [&placed](std::size_t at, const pack::Item&) {
    placed.push_back(at);
  };
  const std::span<const pack::Item> seq(items);
  if (capacity.count() > 0) {
    pack::place_into_k(seq, k, capacity, record);
  } else {
    pack::place_least_loaded(seq, k, record);
  }
  return placed;
}

/// Best wall time of `reps` runs of fn() (best-of damps scheduler noise).
template <typename F>
double time_best_of(int reps, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct Row {
  std::string algo;
  std::size_t n = 0;
  double seconds = 0.0;
  double items_per_sec = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string trace_path, metrics_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--trace out.json] "
                   "[--metrics out.json]\n",
                   argv[0]);
      return 2;
    }
  }
  const std::vector<std::size_t> ns =
      smoke ? std::vector<std::size_t>{10'000}
            : std::vector<std::size_t>{10'000, 100'000, 1'000'000};

  std::vector<Row> rows;
  double naive_ff_seconds_at_smoke_n = 0.0;
  double tree_ff_seconds_at_smoke_n = 0.0;
  double speedup_at_100k = 0.0;
  bool all_identical = true;

  auto record = [&rows](const std::string& algo, std::size_t n,
                        double seconds) {
    rows.push_back(Row{algo, n, seconds,
                       seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0});
    std::printf("  %-24s n=%-9zu %10.4f s   %12.0f items/s\n", algo.c_str(), n,
                seconds, seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0);
  };

  for (const std::size_t n : ns) {
    std::printf("-- n = %zu (capacity %s)\n", n, kCapacity.str().c_str());
    const std::vector<pack::Item> items = make_items(n);
    const int reps = n <= 100'000 ? 3 : 1;

    // Equivalence gate before timing anything.
    const pack::PackResult ff_ref = pack::first_fit_reference(items, kCapacity);
    const pack::PackResult ff_tree = pack::first_fit(items, kCapacity);
    const pack::PackResult bf_ref = pack::best_fit_reference(items, kCapacity);
    const pack::PackResult bf_set = pack::best_fit(items, kCapacity);
    if (!identical(ff_ref.bins, ff_tree.bins) ||
        !identical(bf_ref.bins, bf_set.bins)) {
      std::fprintf(stderr, "FATAL: optimized packer diverged from reference "
                           "at n=%zu\n", n);
      all_identical = false;
      continue;
    }
    // uniform_bins (no capacity), then pack_into_k at 3/4 of an even
    // share, so first-fit fills the bins and the last quarter spills.
    Bytes volume{0};
    for (const pack::Item& item : items) volume += item.size;
    bool placements_identical = true;
    for (const std::size_t k : {std::size_t{2}, std::size_t{85}}) {
      for (const Bytes cap : {Bytes(0), Bytes(volume.count() * 3 / (4 * k))}) {
        if (tree_placements(items, k, cap) != naive_placements(items, k, cap)) {
          std::fprintf(stderr,
                       "FATAL: winner-tree placement diverged from the naive "
                       "scan at n=%zu, k=%zu, capacity %llu\n",
                       n, k, static_cast<unsigned long long>(cap.count()));
          placements_identical = false;
        }
      }
    }
    if (!placements_identical) {
      all_identical = false;
      continue;
    }

    const double t_ff_ref = time_best_of(reps, [&] {
      (void)pack::first_fit_reference(items, kCapacity);
    });
    const double t_ff_tree = time_best_of(reps, [&] {
      (void)pack::first_fit(items, kCapacity);
    });
    const double t_bf_ref = time_best_of(reps, [&] {
      (void)pack::best_fit_reference(items, kCapacity);
    });
    const double t_bf_set = time_best_of(reps, [&] {
      (void)pack::best_fit(items, kCapacity);
    });

    record("first_fit_reference", n, t_ff_ref);
    record("first_fit_tree", n, t_ff_tree);
    record("best_fit_reference", n, t_bf_ref);
    record("best_fit_multiset", n, t_bf_set);

    const corpus::Corpus corpus = corpus_of(items);
    const double t_par = time_best_of(reps, [&] {
      (void)pack::merge_to_unit_parallel(corpus, kCapacity,
                                         pack::ItemOrder::kOriginal, kShards);
    });
    record("merge_parallel_4shard", n, t_par);

    if (n == 10'000) {
      naive_ff_seconds_at_smoke_n = t_ff_ref;
      tree_ff_seconds_at_smoke_n = t_ff_tree;
    }
    if (n == 100'000) speedup_at_100k = t_ff_ref / t_ff_tree;
  }

  // Fill-factor delta of the sharded approximation, measured at the
  // largest n of this run.
  const std::vector<pack::Item> items = make_items(ns.back());
  const corpus::Corpus corpus = corpus_of(items);
  const pack::MergedCorpus seq = pack::merge_to_unit(corpus, kCapacity);
  const pack::MergedCorpus par = pack::merge_to_unit_parallel(
      corpus, kCapacity, pack::ItemOrder::kOriginal, kShards);
  const double fill_delta = seq.fill_factor() - par.fill_factor();
  std::printf("-- parallel merge fill factor: sequential %.4f, "
              "%zu-shard %.4f (delta %.4f)\n",
              seq.fill_factor(), kShards, par.fill_factor(), fill_delta);

  // Paper scale (full sweep only): the pipeline's own packing at the
  // sizes it runs — the HTML_18mil merge into 10 MB blocks, and the
  // uniform planner's assign onto the instance counts its plans reach.
  // Peak RSS is the whole process's, so it bounds theirs.
  struct PaperRow {
    std::string algo;
    std::size_t files = 0;
    std::size_t bins = 0;  // blocks or instances
    double seconds = 0.0;
  };
  std::vector<PaperRow> paper;
  double peak_rss_mib = 0.0;
  if (!smoke) {
    const auto assign_row = [&paper, &record](const char* algo,
                                              const corpus::Corpus& data,
                                              std::size_t k) {
      const double seconds = time_best_of(3, [&] {
        (void)provision::assign(data, provision::PackingStrategy::kUniform,
                                k, data.total_volume() / k);
      });
      record(algo, data.file_count(), seconds);
      paper.push_back(PaperRow{algo, data.file_count(), k, seconds});
    };
    {
      constexpr std::size_t kHtmlFiles = 18'000'000;
      Rng rng(18);
      const corpus::Corpus html = corpus::Corpus::generate(
          corpus::html_18mil_sizes(), kHtmlFiles, rng);
      std::size_t blocks = 0;
      const double seconds = time_best_of(1, [&] {
        blocks = pack::merge_to_unit(html, 10_MB).block_count();
      });
      record("merge_to_unit_html18m", kHtmlFiles, seconds);
      paper.push_back(
          PaperRow{"merge_to_unit_html18m", kHtmlFiles, blocks, seconds});
      assign_row("assign_uniform_html18m", html, 2);
    }
    {
      Rng rng(400);
      const corpus::Corpus text = corpus::Corpus::generate(
          corpus::text_400k_sizes(), 400'000, rng);
      assign_row("assign_uniform_text400k", text, 85);
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
    std::printf("-- paper scale: %zu blocks of <= 10 MB, peak RSS %.0f MiB\n",
                paper.front().bins, peak_rss_mib);
  }

  FILE* out = std::fopen("BENCH_binpack.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"bench\": \"micro_binpack\",\n");
    std::fprintf(out, "  \"capacity_bytes\": %llu,\n",
                 static_cast<unsigned long long>(kCapacity.count()));
    std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(out, "  \"results\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(out,
                   "    {\"algo\": \"%s\", \"n\": %zu, \"seconds\": %.6f, "
                   "\"items_per_sec\": %.1f}%s\n",
                   rows[i].algo.c_str(), rows[i].n, rows[i].seconds,
                   rows[i].items_per_sec, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    if (speedup_at_100k > 0.0) {
      std::fprintf(out, "  \"first_fit_speedup_at_100k\": %.2f,\n",
                   speedup_at_100k);
    }
    if (!paper.empty()) {
      std::fprintf(out, "  \"paper_scale\": {\n");
      for (const PaperRow& row : paper) {
        const bool merge = row.algo.starts_with("merge");
        std::fprintf(out,
                     "    \"%s\": {\"files\": %zu, \"%s\": %zu, "
                     "\"seconds\": %.6f, \"items_per_sec\": %.1f},\n",
                     row.algo.c_str(), row.files,
                     merge ? "blocks" : "instances", row.bins, row.seconds,
                     static_cast<double>(row.files) / row.seconds);
      }
      std::fprintf(out,
                   "    \"unit_bytes\": %llu, \"peak_rss_mib\": %.1f\n  },\n",
                   static_cast<unsigned long long>((10_MB).count()),
                   peak_rss_mib);
    }
    std::fprintf(out,
                 "  \"parallel\": {\"shards\": %zu, "
                 "\"fill_factor_sequential\": %.4f, "
                 "\"fill_factor_parallel\": %.4f, "
                 "\"fill_factor_delta\": %.4f}\n}\n",
                 kShards, seq.fill_factor(), par.fill_factor(), fill_delta);
    std::fclose(out);
    std::printf("wrote BENCH_binpack.json\n");
  }

  // Observability export: one extra (untimed) parallel merge with
  // recording + wall-clock capture on.  Runs after every timed section so
  // the benchmark numbers above are never measured with recording active.
  if (!trace_path.empty() || !metrics_path.empty()) {
    if (!obs::compiled_in()) {
      std::fprintf(stderr,
                   "--trace/--metrics need a build with RESHAPE_OBS=ON\n");
      return 2;
    }
    obs::reset();
    obs::set_enabled(true);
    obs::trace().set_wall_capture(true);
    (void)pack::merge_to_unit_parallel(corpus, kCapacity,
                                       pack::ItemOrder::kOriginal, kShards);
    obs::trace().set_wall_capture(false);
    obs::set_enabled(false);
    if (!trace_path.empty()) {
      if (!obs::trace().write_chrome_json(trace_path)) {
        std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
        return 1;
      }
      std::printf("trace: %zu events -> %s (open in Perfetto)\n",
                  obs::trace().event_count(), trace_path.c_str());
    }
    if (!metrics_path.empty()) {
      if (!obs::metrics().write_json(metrics_path)) {
        std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
        return 1;
      }
      std::printf("metrics snapshot -> %s\n", metrics_path.c_str());
    }
  }

  if (!all_identical) return 2;
  if (smoke) {
    if (tree_ff_seconds_at_smoke_n > naive_ff_seconds_at_smoke_n) {
      std::fprintf(stderr,
                   "SMOKE FAIL: tree first-fit (%.4f s) slower than naive "
                   "(%.4f s) at n=10k\n",
                   tree_ff_seconds_at_smoke_n, naive_ff_seconds_at_smoke_n);
      return 1;
    }
    std::printf("smoke ok: tree %.4f s <= naive %.4f s\n",
                tree_ff_seconds_at_smoke_n, naive_ff_seconds_at_smoke_n);
  }
  return 0;
}
