// Grid-broker scenario: a large Fully Heterogeneous "grid" of unreliable
// nodes (the large-scale-platform setting of the paper's Section 5
// motivation), served through the solver service. Several tenants ask about
// the same grid, each naming the nodes in its own order — the broker
// canonicalizes the presentations onto one cache key, solves once and serves
// the rest warm, bit-identical. The front is then read as a menu: what each
// extra latency budget buys in reliability over the best single interval.
//
//   $ ./grid_broker [processors] [stages] [tenants] [seed] [--snapshot PATH]
//
// With --snapshot, the broker warm-starts from PATH when it exists and saves
// its cache back on exit — run twice and the second run serves every tenant
// warm, bit-identical. The full metrics JSON is printed at exit either way.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "relap/service/broker.hpp"
#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/util/hash.hpp"
#include "relap/util/rng.hpp"

int main(int argc, char** argv) {
  using namespace relap;
  std::string snapshot_path;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--snapshot") == 0 && i + 1 < argc) {
      snapshot_path = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  const std::size_t processors =
      positional.size() > 0 ? std::strtoull(positional[0], nullptr, 10) : 24;
  const std::size_t stages = positional.size() > 1 ? std::strtoull(positional[1], nullptr, 10) : 8;
  const std::size_t tenants = positional.size() > 2 ? std::strtoull(positional[2], nullptr, 10) : 6;
  const std::uint64_t seed = positional.size() > 3 ? std::strtoull(positional[3], nullptr, 10) : 1;

  const pipeline::Pipeline pipe = gen::bimodal_pipeline(stages, seed);
  gen::PlatformGenOptions options;
  options.processors = processors;
  options.fp_min = 0.05;
  options.fp_max = 0.6;  // grid nodes come and go
  const platform::Platform plat = gen::random_fully_heterogeneous(options, seed * 31);

  std::printf("grid:     %s\n", plat.describe().c_str());
  std::printf("workflow: %s\n\n", pipe.describe().c_str());

  // Each tenant presents the same grid with its own node naming (and the
  // second half also in its own units — power-of-two rescalings share the
  // canonical form too).
  const service::InstanceData base = service::InstanceData::from(pipe, plat);
  util::Rng rng(seed * 97 + 5);
  std::vector<service::SolveRequest> batch;
  for (std::size_t t = 0; t < tenants; ++t) {
    service::SolveRequest request;
    if (t == 0) {
      request.instance = base;
    } else {
      std::vector<std::size_t> stage_order = util::iota_indices(base.stages.size());
      std::vector<std::size_t> processor_order = util::iota_indices(base.processors.size());
      rng.shuffle(stage_order);
      rng.shuffle(processor_order);
      request.instance = base.relabeled(stage_order, processor_order);
      if (t % 2 == 0) request.instance = request.instance.scaled(0.5, 4.0, 2.0);
    }
    request.objective = service::Objective::ParetoFront;
    batch.push_back(std::move(request));
  }

  service::Broker broker;
  if (!snapshot_path.empty()) {
    const auto loaded = broker.load_snapshot(snapshot_path);
    if (loaded.has_value()) {
      std::printf("warm start: %zu cached fronts from %s\n\n", loaded->entries,
                  snapshot_path.c_str());
    } else if (loaded.error().code != "io") {
      std::printf("snapshot rejected: %s\n", loaded.error().to_string().c_str());
      return 1;
    }
  }
  const auto replies = broker.solve_batch(batch);

  std::printf("%-7s %-6s %-10s %-7s %-20s\n", "tenant", "cache", "solve ms", "points",
              "front checksum");
  for (std::size_t t = 0; t < replies.size(); ++t) {
    if (!replies[t].has_value()) {
      std::printf("%-7zu rejected: %s\n", t, replies[t].error().to_string().c_str());
      continue;
    }
    const service::Reply& reply = *replies[t];
    std::printf("%-7zu %-6s %-10.3f %-7zu %s\n", t, reply.cache_hit ? "warm" : "cold",
                reply.spans.solve_seconds * 1e3, reply.front.size(),
                util::Fnv1a(service::front_checksum(reply.front)).hex().c_str());
  }
  const service::CacheStats stats = broker.cache_stats();
  std::printf("\ncache: %llu hit / %llu miss (hit rate %.0f%%)\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses), stats.hit_rate() * 100.0);

  if (!replies.front().has_value()) return 1;
  const auto& front = replies.front()->front;

  std::printf("\n%-4s %-12s %-14s %-9s %-10s\n", "#", "latency", "failure prob", "intervals",
              "replicas");
  for (std::size_t i = 0; i < front.size(); ++i) {
    const auto& p = front[i];
    std::printf("%-4zu %-12.3f %-14.6f %-9zu %-10zu\n", i, p.latency, p.failure_probability,
                p.mapping.interval_count(), p.mapping.processors_used());
  }

  // How much does multi-interval structure buy over the single-interval
  // baseline at matched budgets? The front arrives sorted by latency, so one
  // pre-pass carrying the best single-interval FP seen so far answers every
  // budget in O(n).
  std::printf("\nbudget -> FP (suite) vs FP (best single interval in front):\n");
  double single_best = 1.0;
  for (const auto& p : front) {
    if (p.mapping.interval_count() == 1) {
      single_best = std::min(single_best, p.failure_probability);
    }
    std::printf("  %.3f: %.6f vs %.6f%s\n", p.latency, p.failure_probability, single_best,
                p.failure_probability < single_best * (1 - 1e-9) ? "   <- split wins" : "");
  }

  if (!snapshot_path.empty()) {
    const auto saved = broker.save_snapshot(snapshot_path);
    if (!saved.has_value()) {
      std::printf("snapshot save failed: %s\n", saved.error().to_string().c_str());
      return 1;
    }
    std::printf("\nsnapshot: %zu entries (%zu bytes) -> %s\n", saved->entries, saved->bytes,
                snapshot_path.c_str());
  }
  std::printf("\nmetrics: %s\n", broker.metrics_json().c_str());
  return 0;
}
