#include "relap/gen/platforms.hpp"

#include "relap/platform/builders.hpp"
#include "relap/util/rng.hpp"

namespace relap::gen {

namespace {

std::vector<double> uniform_vector(util::Rng& rng, std::size_t count, double lo, double hi) {
  std::vector<double> values(count);
  for (double& v : values) v = rng.uniform(lo, hi);
  return values;
}

}  // namespace

platform::Platform random_fully_homogeneous(const PlatformGenOptions& options,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  return platform::make_fully_homogeneous(
      options.processors, rng.uniform(options.speed_min, options.speed_max),
      rng.uniform(options.bandwidth_min, options.bandwidth_max),
      rng.uniform(options.fp_min, options.fp_max));
}

platform::Platform random_fully_hom_het_failures(const PlatformGenOptions& options,
                                                 std::uint64_t seed) {
  util::Rng rng(seed);
  const double s = rng.uniform(options.speed_min, options.speed_max);
  const double b = rng.uniform(options.bandwidth_min, options.bandwidth_max);
  return platform::make_fully_homogeneous_het_failures(
      s, b, uniform_vector(rng, options.processors, options.fp_min, options.fp_max));
}

platform::Platform random_comm_homogeneous(const PlatformGenOptions& options,
                                           std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> speeds =
      uniform_vector(rng, options.processors, options.speed_min, options.speed_max);
  const double b = rng.uniform(options.bandwidth_min, options.bandwidth_max);
  return platform::make_comm_homogeneous(std::move(speeds), b,
                                         rng.uniform(options.fp_min, options.fp_max));
}

platform::Platform random_comm_hom_het_failures(const PlatformGenOptions& options,
                                                std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> speeds =
      uniform_vector(rng, options.processors, options.speed_min, options.speed_max);
  const double b = rng.uniform(options.bandwidth_min, options.bandwidth_max);
  return platform::make_comm_homogeneous(
      std::move(speeds), b,
      uniform_vector(rng, options.processors, options.fp_min, options.fp_max));
}

platform::Platform random_fully_heterogeneous(const PlatformGenOptions& options,
                                              std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t m = options.processors;
  std::vector<double> speeds = uniform_vector(rng, m, options.speed_min, options.speed_max);
  std::vector<double> fps = uniform_vector(rng, m, options.fp_min, options.fp_max);
  std::vector<std::vector<double>> link(m);
  for (auto& row : link) {
    row = uniform_vector(rng, m, options.bandwidth_min, options.bandwidth_max);
  }
  std::vector<double> in = uniform_vector(rng, m, options.bandwidth_min, options.bandwidth_max);
  std::vector<double> out = uniform_vector(rng, m, options.bandwidth_min, options.bandwidth_max);
  return platform::Platform(std::move(speeds), std::move(fps), std::move(link), std::move(in),
                            std::move(out));
}

platform::Platform random_reliable_unreliable_mix(std::size_t reliable, std::size_t unreliable,
                                                  std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> speeds;
  std::vector<double> fps;
  speeds.reserve(reliable + unreliable);
  fps.reserve(reliable + unreliable);
  for (std::size_t i = 0; i < reliable; ++i) {
    speeds.push_back(rng.uniform(1.0, 2.0));     // slow
    fps.push_back(rng.uniform(0.01, 0.15));      // reliable
  }
  for (std::size_t i = 0; i < unreliable; ++i) {
    speeds.push_back(rng.uniform(50.0, 150.0));  // fast
    fps.push_back(rng.uniform(0.6, 0.9));        // unreliable
  }
  return platform::make_comm_homogeneous(std::move(speeds), 1.0, std::move(fps));
}

}  // namespace relap::gen
