// plan_serve: seeded closed-loop clients against a PlanServer.
//
// Four tenants x two corpus shapes are eight model keys; with four
// deadlines each that is 32 request kinds.  Each round starts a fresh
// server (one plan worker plus its dispatcher), seeds the eight models and
// banks kHistory observations per key, then two closed-loop clients (the
// main thread and one more: four threads in all) each send kRequests plan
// requests of seeded kinds.  Client 0 also sends one ingest() after every
// kIngestEvery of its requests, round-robin over the keys: a fixed number
// of ingests per key per round, each of which bumps that key's model epoch
// and kills its cached plans.  About a third of requests then miss the
// cache, so p50 sits among the hits and the tail among the re-plans.  One
// operation is one served plan.
#include <bit>
#include <cstdio>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "common/digest.hpp"
#include "corpus/corpus.hpp"
#include "corpus/distribution.hpp"
#include "model/predictor.hpp"
#include "provision/planner.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using namespace reshape;

constexpr std::size_t kTenants = 4;
constexpr std::size_t kShapes = 2;
constexpr std::size_t kKeys = kTenants * kShapes;
constexpr double kDeadlines[] = {30.0, 45.0, 60.0, 90.0};
constexpr std::size_t kDeadlineCount = std::size(kDeadlines);
constexpr std::size_t kKinds = kKeys * kDeadlineCount;
constexpr std::size_t kClients = 2;
constexpr std::size_t kRequests = 256;  // per client per round
constexpr std::size_t kIngestEvery = 8;
constexpr std::size_t kHistory = 64;  // observations banked before a round
constexpr std::size_t kSampleEvery = 16;  // plans re-derived and compared

const char* const kShapeNames[kShapes] = {"text", "html"};

struct Key {
  std::string app;
  std::string shape;
  std::shared_ptr<const corpus::Corpus> corpus;
  model::Predictor prior;
};

/// Probe observation for key `k`: the prior's time, off by up to 5%.
std::pair<Bytes, Seconds> observation(const Key& key, Rng& rng) {
  const Bytes volume(100'000'000 + rng.uniform_below(900'000'000));
  const double t = key.prior.predict(volume).value() * rng.uniform(0.95, 1.05);
  return {volume, Seconds(t)};
}

provision::PlanOptions options_for(std::size_t kind) {
  provision::PlanOptions options;
  options.deadline = Seconds(kDeadlines[kind % kDeadlineCount]);
  options.strategy = provision::PackingStrategy::kUniform;
  return options;
}

/// Order-sensitive digest of every field of a plan: equal iff identical.
std::uint64_t plan_digest(const provision::ExecutionPlan& plan) {
  Digest64 d;
  d.update_u64(static_cast<std::uint64_t>(plan.strategy));
  d.update_u64(std::bit_cast<std::uint64_t>(plan.deadline.value()));
  d.update_u64(std::bit_cast<std::uint64_t>(plan.planning_deadline.value()));
  d.update_u64(plan.per_instance_target.count());
  d.update_u64(plan.assignments.size());
  for (const provision::Assignment& a : plan.assignments) {
    d.update_u64(a.volume.count());
    d.update_u64(a.file_count);
    d.update_u64(std::bit_cast<std::uint64_t>(a.mean_complexity));
    d.update_u64(std::bit_cast<std::uint64_t>(a.value));
  }
  d.update_u64(std::bit_cast<std::uint64_t>(plan.predicted_makespan.value()));
  d.update_u64(std::bit_cast<std::uint64_t>(plan.predicted_instance_hours));
  d.update_u64(std::bit_cast<std::uint64_t>(plan.predicted_cost.amount()));
  return d.value();
}

struct Sample {
  std::size_t kind = 0;
  serve::PlanResponse response;
};

/// The predictor a key's model published at an epoch.
struct Published {
  std::size_t key = 0;
  std::uint64_t epoch = 0;
  model::Predictor predictor;
};

struct ClientLog {
  std::vector<double> hit_us, miss_us, ingest_us;
  std::vector<Sample> samples;
  std::vector<Published> published;  // by this client's ingests
  std::size_t not_ok = 0;
  std::size_t queue_depth_max = 0;
};

void client(serve::PlanServer& server, const std::vector<Key>& keys,
            std::size_t id, Rng rng, Rng ingest_rng, bool poll_queue,
            std::latch& start, ClientLog& log) {
  start.arrive_and_wait();
  for (std::size_t i = 0; i < kRequests; ++i) {
    if (id == 0 && i % kIngestEvery == kIngestEvery - 1) {
      const std::size_t k = (i / kIngestEvery) % kKeys;
      const auto [volume, elapsed] = observation(keys[k], ingest_rng);
      const Clock::time_point t0 = Clock::now();
      const std::uint64_t epoch =
          server.ingest(keys[k].app, keys[k].shape, volume, elapsed);
      log.ingest_us.push_back(since(t0) * 1e6);
      // Only this client ingests, so the snapshot is the one just published.
      const serve::ModelSnapshot* snap =
          server.models().snapshot({keys[k].app, keys[k].shape});
      if (snap != nullptr && snap->epoch == epoch) {
        log.published.push_back(Published{k, epoch, snap->predictor});
      }
    }
    const std::size_t kind = rng.uniform_below(kKinds);
    const Key& key = keys[kind / kDeadlineCount];
    serve::PlanRequest request;
    request.app = key.app;
    request.shape = key.shape;
    request.corpus = key.corpus;
    request.options = options_for(kind);
    request.corpus_tag = kind / kDeadlineCount + 1;
    const Clock::time_point t0 = Clock::now();
    std::future<serve::PlanResponse> future = server.submit(std::move(request));
    if (poll_queue) {
      log.queue_depth_max = std::max(log.queue_depth_max, server.queue_depth());
    }
    serve::PlanResponse response = future.get();
    const double us = since(t0) * 1e6;
    (response.cache_hit ? log.hit_us : log.miss_us).push_back(us);
    if (response.status != serve::PlanStatus::kOk) ++log.not_ok;
    if (i % kSampleEvery == id) {
      log.samples.push_back(Sample{kind, std::move(response)});
    }
  }
}

}  // namespace

void run_plan_serve(const Options& options, Run& run) {
  const Rng root(options.seed);
  // Set-up: the tenants' corpora, timed once more after every round.
  std::vector<Key> keys;
  auto set_up = [&] {
    keys.clear();
    for (std::size_t t = 0; t < kTenants; ++t) {
      for (std::size_t s = 0; s < kShapes; ++s) {
        Rng rng = root.split("corpus").split(t * kShapes + s);
        const bool text = s == 0;
        corpus::Corpus data = corpus::Corpus::generate(
            text ? corpus::text_400k_sizes() : corpus::html_18mil_sizes(),
            text ? 20'000 : 5'000, rng, 0.15, 100);
        model::AffineFit fit;
        fit.intercept = 5.0;
        fit.slope = 1e-7 * (1.0 + 0.05 * static_cast<double>(t));
        keys.push_back(Key{"tenant-" + std::to_string(t), kShapeNames[s],
                           std::make_shared<const corpus::Corpus>(
                               std::move(data)),
                           model::Predictor(fit)});
      }
    }
  };
  Samples corpus_setup_s;
  corpus_setup_s.add(timed(set_up));

  Samples bringup_s, untraced_p50, traced_p50;
  Samples all_us, hit_us, miss_us, ingest_us;
  Samples plans_per_s;
  std::size_t queue_depth_max = 0;
  serve::ServerStats totals;
  const Rng round_root = root.split("rounds");
  run_rounds(options, [&](std::size_t round) {
    const bool traced_round = options.trace && round % 2 == 1;
    const Clock::time_point bringup_t0 = Clock::now();
    serve::ServerConfig config;
    config.workers = 1;
    serve::PlanServer server(config);
    // epoch -> predictor per key, for re-deriving sampled plans.
    std::vector<std::map<std::uint64_t, model::Predictor>> published(kKeys);
    Rng history = round_root.split("history");
    for (std::size_t k = 0; k < kKeys; ++k) {
      server.seed_model(keys[k].app, keys[k].shape, keys[k].prior);
      for (std::size_t h = 0; h < kHistory; ++h) {
        const auto [volume, elapsed] = observation(keys[k], history);
        server.ingest(keys[k].app, keys[k].shape, volume, elapsed);
      }
      const serve::ModelSnapshot* snap =
          server.models().snapshot({keys[k].app, keys[k].shape});
      published[k][snap->epoch] = snap->predictor;
    }
    bringup_s.add(since(bringup_t0));

    ClientLog logs[kClients];
    std::latch start(kClients + 1);
    const Rng r = round_root.split(round);
    std::thread other(client, std::ref(server), std::cref(keys), 1,
                      r.split("client-1"), r.split("ingest"), traced_round,
                      std::ref(start), std::ref(logs[1]));
    const Clock::time_point t0 = Clock::now();
    start.count_down();
    client(server, keys, 0, r.split("client-0"), r.split("ingest"),
           traced_round, start, logs[0]);
    other.join();
    const double round_s = since(t0);
    const serve::ServerStats stats = server.stats();

    Samples round_us;
    for (const ClientLog& log : logs) {
      for (const double us : log.hit_us) round_us.add(us);
      for (const double us : log.miss_us) round_us.add(us);
      for (const Published& p : log.published) {
        published[p.key][p.epoch] = p.predictor;
      }
    }
    (traced_round ? traced_p50 : untraced_p50).add(round_us.median());
    if (traced_round) {
      for (const ClientLog& log : logs) {
        queue_depth_max = std::max(queue_depth_max, log.queue_depth_max);
      }
    } else {
      plans_per_s.add(static_cast<double>(kClients * kRequests) / round_s);
      for (const ClientLog& log : logs) {
        for (const double us : log.hit_us) {
          all_us.add(us);
          hit_us.add(us);
        }
        for (const double us : log.miss_us) {
          all_us.add(us);
          miss_us.add(us);
        }
        for (const double us : log.ingest_us) ingest_us.add(us);
      }
      totals.requests += stats.requests;
      totals.cache_hits += stats.cache_hits;
      totals.batches += stats.batches;
      totals.batched_requests += stats.batched_requests;
    }

    // Every request and every ingest is an operation.
    for (std::size_t c = 0; c < kClients; ++c) {
      const ClientLog& log = logs[c];
      std::size_t failed = log.not_ok;
      for (const Sample& s : log.samples) {
        const std::size_t k = s.kind / kDeadlineCount;
        const auto it = published[k].find(s.response.model_epoch);
        if (it == published[k].end() ||
            plan_digest(s.response.plan) !=
                plan_digest(provision::plan(it->second, *keys[k].corpus,
                                            options_for(s.kind)))) {
          ++failed;
        }
      }
      const std::size_t ops = kRequests + log.ingest_us.size();
      for (std::size_t i = 0; i < ops; ++i) {
        run.op(i < failed ? "every plan resolves kOk, and a served plan = "
                            "provision::plan under the same model snapshot"
                          : "");
      }
    }
    corpus_setup_s.add(timed(set_up));
  });

  // Set-up: the tenants' corpora, then each round's server start, model
  // seeding and banked history.
  const double setup_s = corpus_setup_s.median() + bringup_s.median();
  run.metric("setup_s", setup_s);
  run.metric("peak_rss_mb", peak_rss_mb());
  run.metric("op_p50_ms", all_us.median() / 1e3);
  if (!options.trace) return;

  run.metric("trace.overhead_pct", 100.0 *
                                       (traced_p50.median() -
                                        untraced_p50.median()) /
                                       untraced_p50.median());
  run.metric("plans_per_s", plans_per_s.median());
  run.metric("plan_p50_us", all_us.median());
  run.metric("plan_p99_us", all_us.quantile(0.99));
  run.metric("ingest_p50_us", ingest_us.median());
  run.metric("serve.hit_us", hit_us.median());
  run.metric("serve.miss_us", miss_us.median());
  run.metric("serve.hit_ratio", static_cast<double>(totals.cache_hits) /
                                    static_cast<double>(totals.requests));
  run.metric("serve.batch_mean", static_cast<double>(totals.batched_requests) /
                                     static_cast<double>(totals.batches));
  run.metric("serve.queue_depth_max", static_cast<double>(queue_depth_max));
  run.metric("serve.ingest_p99_us", ingest_us.quantile(0.99));
  {
    Samples direct;
    for (int rep = 0; rep < 3; ++rep) {
      for (std::size_t kind = 0; kind < kKinds; ++kind) {
        const Key& key = keys[kind / kDeadlineCount];
        const Clock::time_point t0 = Clock::now();
        const provision::ExecutionPlan plan =
            provision::plan(key.prior, *key.corpus, options_for(kind));
        direct.add(since(t0) * 1e6);
        if (plan.instance_count() == 0) throw std::logic_error("empty plan");
      }
    }
    run.metric("serve.direct_plan_us", direct.median());
  }
  std::fprintf(stderr,
               "[plan_serve] set-up %.4f s; %zu plans, hit ratio %.3f, p50 "
               "%.2f us, p99 %.2f us\n",
               setup_s, all_us.size(),
               static_cast<double>(totals.cache_hits) /
                   static_cast<double>(totals.requests),
               all_us.median(), all_us.quantile(0.99));
}

}  // namespace perfbench
