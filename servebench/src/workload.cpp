#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "relap/algorithms/mono_criterion.hpp"
#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/mapping/latency.hpp"
#include "relap/util/rng.hpp"

namespace servebench {

namespace gen = relap::gen;
using relap::util::Rng;

namespace {

/// splitmix64 finalizer: independent per-(seed, i, salt) streams.
std::uint64_t mix(std::uint64_t seed, std::uint64_t i, std::uint64_t salt) {
  std::uint64_t z = seed ^ (i * 0x9E3779B97F4A7C15ULL) ^ (salt * 0xD1B54A32D192ED03ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void append_double(std::string& out, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, " %.17g", value);
  out += buffer;
}

PresentationPtr make_presentation(std::string name, InstanceData data) {
  return std::make_shared<const Presentation>(Presentation{std::move(name), std::move(data)});
}

/// A random relabeling (stage records and processor labels shuffled) of
/// `data`.
InstanceData relabel(const InstanceData& data, Rng& rng) {
  std::vector<std::size_t> stage_order(data.stages.size());
  std::vector<std::size_t> processor_order(data.processors.size());
  std::iota(stage_order.begin(), stage_order.end(), 0);
  std::iota(processor_order.begin(), processor_order.end(), 0);
  rng.shuffle(stage_order);
  rng.shuffle(processor_order);
  return data.relabeled(stage_order, processor_order);
}

/// `data` rescaled by random exact powers of two (work, data, time).
InstanceData rescale(const InstanceData& data, Rng& rng) {
  const auto pow2 = [&] { return std::ldexp(1.0, static_cast<int>(rng.index(9)) - 4); };
  const double work = pow2();
  const double data_factor = pow2();
  const double time = pow2();
  return data.scaled(work, data_factor, time);
}

/// The warm-hits and mixed-churn catalogues are a fixed dataset: their
/// instance values (warm-hits: also their power-of-two rescalings) do not
/// depend on --seed, which drives the relabelings and the request stream.
/// Solver and render cost per catalogue entry is then the same for every
/// seed, so the spread between seeds measures the server, not the draw of
/// the catalogue.
constexpr std::uint64_t kCatalogueSeed = 2008;

// --- warm-hits -------------------------------------------------------------

/// Catalogue shapes (stages x processors): the corners and middle of the
/// 4-16 x 6-32 range, chosen so priming the whole catalogue costs about a
/// second of solver time on a 4-core host.
constexpr std::pair<std::size_t, std::size_t> kWarmShapes[] = {
    {4, 6}, {4, 16}, {4, 32}, {5, 10}, {6, 12}, {8, 8}, {12, 10}, {16, 6}};
constexpr std::size_t kWarmVariantsPerConnection = 32;
/// Requests outstanding per connection. At one, every request waits for a
/// server thread and then a client thread to be woken, and on a shared host
/// those wake-ups, not the reply path, set the figures (on a 4-core host one
/// competing busy thread cost 32% of throughput at one in flight, 15% at
/// four). Deeper queues on fewer connections spread the p99 instead: at
/// 2 connections x 8 a session thread that loses its core stalls eight
/// requests (p99 IQR / median 0.54 over ten seeds, 0.08-0.12 at 4 x 4).
constexpr std::size_t kWarmInFlight = 4;

Workload make_warm(std::uint64_t seed) {
  Workload w;
  w.name = "warm-hits";
  w.in_flight = kWarmInFlight;
  w.uploads.resize(w.connections);
  std::vector<InstanceData> bases;
  for (std::size_t k = 0; k < std::size(kWarmShapes); ++k) {
    const auto [n, m] = kWarmShapes[k];
    gen::PlatformGenOptions options;
    options.processors = m;
    bases.push_back(
        InstanceData::from(gen::random_uniform_pipeline(n, mix(kCatalogueSeed, k, 1)),
                           gen::random_fully_heterogeneous(options, mix(kCatalogueSeed, k, 2))));
    // Each base is primed once, by the connection it is uploaded on.
    const std::size_t conn = k % w.connections;
    PresentationPtr base = make_presentation("base" + std::to_string(k), bases.back());
    w.uploads[conn].push_back(base);
    Request prime;
    prime.index = k;
    prime.connection = conn;
    prime.presentation = std::move(base);
    w.priming.push_back(std::move(prime));
  }
  for (std::size_t conn = 0; conn < w.connections; ++conn) {
    Rng rng(mix(seed, conn, 3));
    // The rescalings belong to the fixed dataset: they set how many digits
    // each reply renders, so drawing them from --seed would move the render
    // cost, and with it throughput, from seed to seed.
    Rng scales(mix(kCatalogueSeed, conn, 3));
    for (std::size_t j = 0; j < kWarmVariantsPerConnection; ++j) {
      w.uploads[conn].push_back(make_presentation(
          "v" + std::to_string(j), relabel(rescale(bases[j % bases.size()], scales), rng)));
    }
  }
  return w;
}

// --- mixed-churn -------------------------------------------------------------

/// Catalogue shapes; every shape appears in all four platform classes. Front
/// (pareto) requests go only to shapes the exhaustive lane kernel solves
/// (up to 5x6); the larger shapes get the constrained objectives, which
/// run Algorithms 1-4 or the single-threshold heuristics by platform class.
constexpr std::pair<std::size_t, std::size_t> kMixedShapes[] = {
    {3, 4}, {4, 6}, {5, 6}, {6, 8}, {8, 12}};
constexpr std::size_t kMixedVariants = 4;
constexpr std::size_t kMixedClasses = 4;
constexpr std::size_t kMixedCatalogue = kMixedVariants * std::size(kMixedShapes) * kMixedClasses;
constexpr double kZipfExponent = 1.0;
/// Far below the ~1400 req/s this mix saturates at on a 4-core host, but past
/// the ~150-200 req/s knee where hits start waiting behind misses in the
/// broker's shared batch queue. Below the knee the p99 is set by a handful
/// of miss bursts and does not repeat from seed to seed; here it does.
constexpr double kMixedRateRps = 250.0;
constexpr std::size_t kMixedCacheEntries = 128;
constexpr std::size_t kMixedFsyncEvery = 8;

relap::platform::Platform mixed_platform(std::size_t cls, std::size_t m, std::uint64_t seed) {
  gen::PlatformGenOptions options;
  options.processors = m;
  switch (cls) {
    case 0: return gen::random_fully_homogeneous(options, seed);
    case 1: return gen::random_comm_homogeneous(options, seed);
    case 2: return gen::random_comm_hom_het_failures(options, seed);
    default: return gen::random_fully_heterogeneous(options, seed);
  }
}

/// Constrained knobs for one catalogue instance: two latency caps between
/// the instance's latency floor and the latency of its most reliable mapping,
/// and two FP caps between its minimum FP and 1. Each is kept only if the
/// in-process reference broker answers it (so no timed request is
/// infeasible); the bound itself backs up a rejected level.
std::vector<Knobs> constrained_knobs(const relap::pipeline::Pipeline& pipeline,
                                     const relap::platform::Platform& platform,
                                     const InstanceData& data, relap::service::Broker& reference) {
  const double lo = relap::mapping::latency_lower_bound(pipeline, platform);
  const relap::algorithms::Solution reliable =
      relap::algorithms::minimize_failure_probability(pipeline, platform);
  const double hi = std::max(reliable.latency, lo);
  const double fp_min = std::max(reliable.failure_probability, 1e-300);
  std::vector<Knobs> out;
  const auto accept = [&](Knobs knobs) {
    relap::service::SolveRequest request;
    request.instance = data;
    request.objective = knobs.objective;
    request.threshold = knobs.threshold;
    if (!reference.solve(request).has_value()) return false;
    out.push_back(knobs);
    return true;
  };
  for (const double t : {0.5, 0.85}) {
    if (!accept(Knobs{Objective::MinFpForLatency, lo * std::pow(hi / lo, t)})) {
      (void)accept(Knobs{Objective::MinFpForLatency, hi});
    }
  }
  for (const double t : {0.5, 0.8}) {
    (void)accept(Knobs{Objective::MinLatencyForFp, std::pow(fp_min, t)});
  }
  return out;
}

Workload make_mixed(std::uint64_t seed, relap::service::Broker& reference) {
  Workload w;
  w.name = "mixed-churn";
  w.open_loop = true;
  w.rate_rps = kMixedRateRps;
  w.persistent = true;
  w.cache_entries = kMixedCacheEntries;
  w.journal_fsync_every = kMixedFsyncEvery;
  w.server_args = {"--cache-entries", std::to_string(kMixedCacheEntries),
                   "--journal-fsync-every", std::to_string(kMixedFsyncEvery)};
  w.uploads.resize(w.connections);

  // Catalogue index k = (variant, shape, class), interleaved so popularity
  // ranks (rank = k) spread every shape and class over the Zipf curve the
  // same way for every seed.
  std::vector<InstanceData> catalogue;
  for (std::size_t k = 0; k < kMixedCatalogue; ++k) {
    const std::size_t cls = k % kMixedClasses;
    std::size_t shape = (k / kMixedClasses) % std::size(kMixedShapes);
    // The heterogeneous-failure classes have no polynomial algorithm; their
    // largest shape stays at 6x8 so a heuristic miss costs a few ms, not the
    // tens of ms that would set the tail on its own.
    if (cls >= 2) shape = std::min(shape, std::size(kMixedShapes) - 2);
    const auto [n, m] = kMixedShapes[shape];
    const relap::pipeline::Pipeline pipeline =
        gen::random_uniform_pipeline(n, mix(kCatalogueSeed, k, 4));
    const relap::platform::Platform platform = mixed_platform(cls, m, mix(kCatalogueSeed, k, 5));
    catalogue.push_back(InstanceData::from(pipeline, platform));
    std::vector<Knobs> knobs;
    if (n * m <= 30) knobs.push_back(Knobs{Objective::ParetoFront, 0.0});
    for (const Knobs& k2 : constrained_knobs(pipeline, platform, catalogue.back(), reference)) {
      knobs.push_back(k2);
    }
    if (knobs.empty()) {
      throw std::runtime_error("catalogue instance " + std::to_string(k) +
                               " has no feasible request");
    }
    w.catalogue_knobs.push_back(std::move(knobs));
  }
  for (std::size_t conn = 0; conn < w.connections; ++conn) {
    Rng rng(mix(seed, conn, 6));
    for (std::size_t k = 0; k < catalogue.size(); ++k) {
      w.uploads[conn].push_back(
          make_presentation("m" + std::to_string(k), relabel(catalogue[k], rng)));
    }
  }

  double total = 0.0;
  for (std::size_t k = 0; k < catalogue.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    w.zipf_cdf.push_back(total);
  }
  for (double& c : w.zipf_cdf) c /= total;

  // Preload: the most popular quarter goes into the snapshot, the next
  // quarter into the journal behind it (all knobs of each instance).
  const std::size_t quarter = catalogue.size() / 4;
  for (std::size_t k = 0; k < 2 * quarter; ++k) {
    for (const Knobs& knobs : w.catalogue_knobs[k]) {
      Request r;
      r.connection = 0;
      r.presentation = w.uploads[0][k];
      r.knobs = knobs;
      (k < quarter ? w.preload_snapshot : w.preload_journal).push_back(std::move(r));
    }
  }
  return w;
}

}  // namespace

std::string upload_text(const Presentation& presentation) {
  const InstanceData& data = presentation.data;
  std::string out = "instance " + presentation.name + "\ninput";
  append_double(out, data.input_data);
  out += '\n';
  for (const relap::service::LabeledStage& stage : data.stages) {
    out += "stage " + std::to_string(stage.position);
    append_double(out, stage.work);
    append_double(out, stage.output_data);
    out += '\n';
  }
  for (const relap::service::LabeledProcessor& proc : data.processors) {
    out += "proc";
    append_double(out, proc.speed);
    append_double(out, proc.failure_prob);
    append_double(out, proc.in_bandwidth);
    append_double(out, proc.out_bandwidth);
    for (const double link : proc.links) append_double(out, link);
    out += '\n';
  }
  out += "end\n";
  return out;
}

std::string solve_line(const Request& request) {
  std::string out = "solve " + request.presentation->name;
  switch (request.knobs.objective) {
    case Objective::ParetoFront: break;
    case Objective::MinFpForLatency: out += " obj=minfp threshold="; break;
    case Objective::MinLatencyForFp: out += " obj=minlat threshold="; break;
  }
  if (request.knobs.objective != Objective::ParetoFront) {
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", request.knobs.threshold);
    out += buffer;
  }
  out += '\n';
  return out;
}

relap::service::SolveRequest solve_request(const Request& request) {
  relap::service::SolveRequest out;
  out.instance = request.presentation->data;
  out.objective = request.knobs.objective;
  out.threshold = request.knobs.threshold;
  return out;
}

PresentationPtr cold_instance(std::uint64_t seed, std::size_t i) {
  gen::PlatformGenOptions options;
  options.processors = 8;
  return make_presentation(
      "c" + std::to_string(i % 256),
      InstanceData::from(gen::random_uniform_pipeline(6, mix(seed, i, 7)),
                         gen::random_fully_heterogeneous(options, mix(seed, i, 8))));
}

PresentationPtr front_sample_instance(std::size_t i) {
  return make_presentation("q" + std::to_string(i), cold_instance(kCatalogueSeed, i)->data);
}

Request Workload::request(std::size_t i) const {
  Request r;
  r.index = i;
  r.connection = i % connections;
  Rng rng(mix(seed, i, 9));
  if (name == "cold-solves") {
    r.presentation = cold_instance(seed, i);
    r.upload = true;
  } else if (name == "warm-hits") {
    const std::vector<PresentationPtr>& names = uploads[r.connection];
    r.presentation = names[rng.index(names.size())];
  } else {
    const double u = rng.uniform();
    const std::size_t k = static_cast<std::size_t>(
        std::upper_bound(zipf_cdf.begin(), zipf_cdf.end(), u) - zipf_cdf.begin());
    const std::size_t instance = std::min(k, zipf_cdf.size() - 1);
    r.presentation = uploads[r.connection][instance];
    const std::vector<Knobs>& knobs = catalogue_knobs[instance];
    const bool has_front = knobs.front().objective == Objective::ParetoFront;
    if (has_front && rng.uniform() < 1.0 / 3.0) {
      r.knobs = knobs.front();
    } else {
      const std::size_t first = has_front ? 1 : 0;
      r.knobs = knobs[first + rng.index(knobs.size() - first)];
    }
  }
  return r;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       relap::service::Broker& reference) {
  Workload w;
  if (name == "warm-hits") {
    w = make_warm(seed);
  } else if (name == "cold-solves") {
    w.name = name;
  } else if (name == "mixed-churn") {
    w = make_mixed(seed, reference);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.seed = seed;
  return w;
}

}  // namespace servebench
