#include "relap/sim/monte_carlo.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "relap/exec/parallel.hpp"
#include "relap/mapping/reliability.hpp"
#include "relap/util/assert.hpp"
#include "relap/util/rng.hpp"
#include "relap/util/simd.hpp"

namespace relap::sim {

namespace {

namespace simd = util::simd;

/// Trials per step of the Bernoulli lane kernel.
constexpr std::size_t W = simd::kDefaultLaneWidth;

/// Chunk grains for the parallel trial loops. Both drivers draw via
/// `util::counter_hash` at absolute per-trial counters, so the grains only
/// set task granularity — results are invariant to them (and to thread
/// count and lane width) by construction. Bernoulli trials are branch-cheap,
/// full-engine trials each run a discrete-event simulation.
constexpr std::size_t kBernoulliGrain = 8192;
constexpr std::size_t kEngineGrain = 16;

/// SplitMix64 finalizer applied per lane, written in the vertical lane ops so
/// the multiplies use `simd::mul_u`'s exact vpmuludq decomposition instead of
/// per-lane GPR round-trips. Same constants and shift order as
/// `util::splitmix64_mix`, hence the same bits per lane.
simd::UintLanes<W> mix_lanes(simd::UintLanes<W> z) {
  z = simd::mul_u(simd::xor_u(z, simd::shr_u<30>(z)),
                  simd::broadcast_u<W>(0xBF58476D1CE4E5B9ULL));
  z = simd::mul_u(simd::xor_u(z, simd::shr_u<27>(z)),
                  simd::broadcast_u<W>(0x94D049BB133111EBULL));
  return simd::xor_u(z, simd::shr_u<31>(z));
}

/// W-wide Bernoulli replica-survival kernel: one step of W trials of the
/// flattened mapping, one trial per lane. Replica i of trial t draws
/// `counter_hash(seed, t * R + i)` — for fixed t that is
/// `mix(base + i * gamma)` with `base = seed + (t * R + 1) * gamma` — and
/// fails when the unit double lands below its failure probability; a group
/// is wiped when every replica lane-AND fails, the application when any
/// group lane-ORs wiped. Returns the failed-lane mask of the step. Every
/// lane reproduces the scalar counter walk bit for bit.
simd::UintLanes<W> bernoulli_batch_failed(const simd::UintLanes<W>& base,
                                          std::span<const double> replica_fp,
                                          std::span<const std::size_t> group_offsets) {
  const std::size_t group_count = group_offsets.size() - 1;
  simd::UintLanes<W> failed = simd::broadcast_u<W>(0);
  for (std::size_t g = 0; g < group_count; ++g) {
    simd::UintLanes<W> wiped = simd::broadcast_u<W>(~std::uint64_t{0});
    for (std::size_t i = group_offsets[g]; i < group_offsets[g + 1]; ++i) {
      const simd::UintLanes<W> z =
          mix_lanes(simd::add_u(base, simd::broadcast_u<W>(i * util::kSplitMix64Gamma)));
      wiped = simd::and_u(
          wiped, simd::less(simd::to_unit_double_lanes(z), simd::broadcast<W>(replica_fp[i])));
    }
    failed = simd::or_u(failed, wiped);
  }
  return failed;
}

/// Failure count over trials [begin, end), W trials per step; a final
/// partial step pads with the last trial and discards the duplicate lanes.
std::size_t bernoulli_failures(std::uint64_t seed, std::size_t begin, std::size_t end,
                               std::span<const double> replica_fp,
                               std::span<const std::size_t> group_offsets) {
  const std::uint64_t replica_count = replica_fp.size();
  std::size_t failures = 0;
  // Lane l of the running base is trial t0 + l's counter origin
  // `seed + (t * R + 1) * gamma`; advancing the batch by W trials adds the
  // same `W * R * gamma` to every lane, so the main loop carries the bases
  // as a vector recurrence instead of re-deriving them with per-lane
  // multiplies each step.
  simd::UintLanes<W> base;
  for (std::size_t l = 0; l < W; ++l) {
    base.v[l] = seed + ((begin + l) * replica_count + 1) * util::kSplitMix64Gamma;
  }
  const simd::UintLanes<W> step =
      simd::broadcast_u<W>(W * replica_count * util::kSplitMix64Gamma);
  std::size_t t0 = begin;
  for (; t0 + W <= end; t0 += W) {
    failures += simd::count_set_lanes(bernoulli_batch_failed(base, replica_fp, group_offsets));
    base = simd::add_u(base, step);
  }
  if (t0 < end) {
    // Partial tail: pad with the last trial and count only the live lanes.
    const std::size_t count = end - t0;
    for (std::size_t l = 0; l < W; ++l) {
      const std::uint64_t t = t0 + std::min(l, count - 1);
      base.v[l] = seed + (t * replica_count + 1) * util::kSplitMix64Gamma;
    }
    const simd::UintLanes<W> failed = bernoulli_batch_failed(base, replica_fp, group_offsets);
    for (std::size_t l = 0; l < count; ++l) failures += failed.v[l] != 0 ? 1 : 0;
  }
  return failures;
}

FailureRateEstimate make_estimate(std::size_t failures, std::size_t trials, double analytic) {
  FailureRateEstimate estimate;
  estimate.trials = trials;
  estimate.empirical = static_cast<double>(failures) / static_cast<double>(trials);
  estimate.analytic = analytic;
  estimate.ci95 = util::wilson_interval(failures, trials);
  estimate.ci95_half_width = estimate.ci95.half_width();
  return estimate;
}

}  // namespace

bool FailureRateEstimate::consistent(double slack) const {
  return ci95.contains(analytic, slack);
}

FailureRateEstimate estimate_failure_rate(const platform::Platform& platform,
                                          const mapping::IntervalMapping& mapping,
                                          const MonteCarloOptions& options) {
  RELAP_ASSERT(options.trials >= 1, "need at least one trial");

  // Flatten the mapping into SoA form once: the per-replica failure
  // probabilities group-major (the order that assigns replica i of trial t
  // the absolute counter t * R + i) plus group offsets. The trial kernel
  // then touches two flat arrays instead of chasing the mapping's
  // vector-of-vectors 100k+ times.
  std::vector<double> replica_fp;
  std::vector<std::size_t> group_offsets;
  group_offsets.reserve(mapping.interval_count() + 1);
  group_offsets.push_back(0);
  for (const mapping::IntervalAssignment& a : mapping.intervals()) {
    for (const platform::ProcessorId u : a.processors) {
      replica_fp.push_back(platform.failure_prob(u));
    }
    group_offsets.push_back(replica_fp.size());
  }

  const std::size_t failures = exec::parallel_reduce(
      options.trials, kBernoulliGrain, [] { return std::size_t{0}; },
      [&](std::size_t& local_failures, std::size_t begin, std::size_t end, std::size_t) {
        local_failures += bernoulli_failures(options.seed, begin, end, replica_fp, group_offsets);
      },
      [](std::size_t& acc, std::size_t partial) { acc += partial; }, options.pool);

  return make_estimate(failures, options.trials,
                       mapping::failure_probability(platform, mapping));
}

TrialStats run_trials(const pipeline::Pipeline& pipeline, const platform::Platform& platform,
                      const mapping::IntervalMapping& mapping, const TrialOptions& options) {
  RELAP_ASSERT(options.trials >= 1, "need at least one trial");

  SimOptions sim_options;
  sim_options.dataset_count = options.dataset_count;

  // Failure-free reference run fixes the horizon.
  const SimResult reference =
      simulate(pipeline, platform, mapping, FailureScenario::none(platform.processor_count()),
               sim_options);
  RELAP_ASSERT(!reference.application_failed, "the failure-free run cannot fail");
  const double horizon = std::max(reference.makespan * options.horizon_factor, 1e-9);

  struct Accumulator {
    std::size_t failures = 0;
    util::StreamingStats latency;
  };
  // Batched driver: each chunk task runs its trials on a SimScratch arena —
  // scenarios are sampled in place into the scratch's buffer and the
  // SimResult buffers are recycled, so the steady-state trial loop performs
  // no heap allocation. Workspaces are recycled through a freelist rather
  // than rebuilt per 16-trial chunk: every workspace is bound identically,
  // so which chunk borrows which cannot affect the results, and in steady
  // state only as many workspaces exist as chunks ran concurrently.
  // Scenarios are counter-addressed per trial index (draw_indexed), and the
  // merge is index-ordered, so results are bit-identical at any thread
  // count or chunk grain by construction.
  struct Workspace {
    SimScratch scratch;
    SimResult run;
  };
  std::mutex freelist_mutex;
  std::vector<std::unique_ptr<Workspace>> freelist;
  const auto acquire = [&]() -> std::unique_ptr<Workspace> {
    {
      const std::lock_guard<std::mutex> lock(freelist_mutex);
      if (!freelist.empty()) {
        std::unique_ptr<Workspace> w = std::move(freelist.back());
        freelist.pop_back();
        return w;
      }
    }
    auto w = std::make_unique<Workspace>();
    w->scratch.bind(pipeline, platform, mapping, sim_options.send_order);
    return w;
  };

  const Accumulator totals = exec::parallel_reduce(
      options.trials, kEngineGrain, [] { return Accumulator{}; },
      [&](Accumulator& local, std::size_t begin, std::size_t end, std::size_t) {
        std::unique_ptr<Workspace> w = acquire();
        for (std::size_t t = begin; t < end; ++t) {
          FailureScenario::draw_indexed(w->scratch.scenario(), platform, horizon, options.seed, t);
          simulate_into(w->scratch, w->scratch.scenario(), sim_options, w->run);
          if (w->run.application_failed) {
            ++local.failures;
          } else {
            local.latency.add(w->run.worst_latency());
          }
        }
        const std::lock_guard<std::mutex> lock(freelist_mutex);
        freelist.push_back(std::move(w));
      },
      [](Accumulator& acc, Accumulator&& partial) {
        acc.failures += partial.failures;
        acc.latency.merge(partial.latency);
      },
      options.pool);

  TrialStats stats;
  stats.failure_free_latency = reference.worst_latency();
  stats.failure = make_estimate(totals.failures, options.trials,
                                mapping::failure_probability(platform, mapping));
  stats.latency = totals.latency;
  return stats;
}

}  // namespace relap::sim
