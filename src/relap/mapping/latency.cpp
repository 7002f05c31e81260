#include "relap/mapping/latency.hpp"

#include <algorithm>
#include <limits>

#include "relap/util/assert.hpp"
#include "relap/util/simd.hpp"
#include "relap/util/stats.hpp"

namespace relap::mapping {

namespace {

/// Smallest speed within a replica group (the paper's min_{u in alloc(j)} s_u).
double min_speed(const platform::Platform& platform,
                 const std::vector<platform::ProcessorId>& group) {
  double lo = std::numeric_limits<double>::infinity();
  for (const platform::ProcessorId u : group) lo = std::min(lo, platform.speed(u));
  return lo;
}

}  // namespace

double latency_eq1(const pipeline::Pipeline& pipeline, const platform::Platform& platform,
                   const IntervalMapping& mapping) {
  RELAP_ASSERT(platform.has_homogeneous_links(),
               "equation (1) applies to identical-link platforms only");
  RELAP_ASSERT(mapping.stage_count() == pipeline.stage_count(),
               "mapping does not cover the pipeline");
  const double inv_b = platform.inv_common_bandwidth();
  util::KahanSum total;
  for (const IntervalAssignment& a : mapping.intervals()) {
    const double k = static_cast<double>(a.processors.size());
    total.add(k * pipeline.data(a.stages.first) * inv_b);
    total.add(pipeline.work_sum(a.stages.first, a.stages.last) / min_speed(platform, a.processors));
  }
  total.add(pipeline.data(pipeline.stage_count()) * inv_b);
  return total.value();
}

double latency_eq2(const pipeline::Pipeline& pipeline, const platform::Platform& platform,
                   const IntervalMapping& mapping) {
  RELAP_ASSERT(mapping.stage_count() == pipeline.stage_count(),
               "mapping does not cover the pipeline");
  util::KahanSum total;

  // Serialized initial transfers: P_in sends delta_0 to every replica of the
  // first interval (one-port model).
  for (const platform::ProcessorId u : mapping.interval(0).processors) {
    total.add(pipeline.data(0) * platform.inv_bandwidth_in(u));
  }

  const std::size_t p = mapping.interval_count();
  for (std::size_t j = 0; j < p; ++j) {
    const IntervalAssignment& a = mapping.interval(j);
    const double work = pipeline.work_sum(a.stages.first, a.stages.last);
    const double out_size = pipeline.data(a.stages.last + 1);
    double worst = 0.0;
    for (const platform::ProcessorId u : a.processors) {
      double term = work * platform.inv_speed(u);
      if (j + 1 < p) {
        // Serialized sends to every replica of the next interval.
        for (const platform::ProcessorId v : mapping.interval(j + 1).processors) {
          term += out_size * platform.inv_bandwidth(u, v);
        }
      } else {
        term += out_size * platform.inv_bandwidth_out(u);
      }
      worst = std::max(worst, term);
    }
    total.add(worst);
  }
  return total.value();
}

double latency(const pipeline::Pipeline& pipeline, const platform::Platform& platform,
               const IntervalMapping& mapping) {
  return platform.has_homogeneous_links() ? latency_eq1(pipeline, platform, mapping)
                                          : latency_eq2(pipeline, platform, mapping);
}

double latency(const pipeline::Pipeline& pipeline, const platform::Platform& platform,
               const GeneralMapping& mapping) {
  RELAP_ASSERT(mapping.stage_count() == pipeline.stage_count(),
               "mapping does not cover the pipeline");
  return latency(pipeline, platform, std::span<const platform::ProcessorId>(mapping.assignment()));
}

double latency(const pipeline::Pipeline& pipeline, const platform::Platform& platform,
               std::span<const platform::ProcessorId> assignment) {
  RELAP_ASSERT(assignment.size() == pipeline.stage_count(),
               "assignment does not cover the pipeline");
  const std::size_t n = pipeline.stage_count();
  util::KahanSum total;
  total.add(pipeline.data(0) * platform.inv_bandwidth_in(assignment[0]));
  for (std::size_t k = 0; k < n; ++k) {
    const platform::ProcessorId u = assignment[k];
    total.add(pipeline.work(k) * platform.inv_speed(u));
    if (k + 1 < n) {
      const platform::ProcessorId v = assignment[k + 1];
      if (u != v) total.add(pipeline.data(k + 1) * platform.inv_bandwidth(u, v));
    }
  }
  total.add(pipeline.data(n) * platform.inv_bandwidth_out(assignment[n - 1]));
  return total.value();
}

template <std::size_t W>
void latency_assignment_lanes(const pipeline::Pipeline& pipeline,
                              const platform::Platform& platform, const std::uint64_t* ids,
                              double* out) {
  namespace simd = util::simd;
  using D = simd::DoubleLanes<W>;
  using U = simd::UintLanes<W>;
  const std::size_t n = pipeline.stage_count();
  const double* inv_speeds = platform.inv_speeds().data();
  const double* inv_bw_in = platform.inv_in_bandwidths().data();
  const double* inv_bw_out = platform.inv_out_bandwidths().data();
  const double* flat_inv_bw = platform.flat_inv_link_bandwidths().data();
  const std::uint64_t m = platform.processor_count();

  // Term-for-term transcription of the scalar span overload above; the
  // u == v "communication is free" skip becomes a masked add that leaves the
  // Kahan sum and compensation of skipping lanes untouched.
  simd::KahanLanes<W> total;
  U u = simd::load_u<W>(ids);
  total.add(simd::mul(simd::broadcast<W>(pipeline.data(0)), simd::gather(inv_bw_in, u)));
  for (std::size_t k = 0; k < n; ++k) {
    total.add(simd::mul(simd::broadcast<W>(pipeline.work(k)), simd::gather(inv_speeds, u)));
    if (k + 1 < n) {
      const U v = simd::load_u<W>(ids + (k + 1) * W);
      total.add_masked(
          simd::mul(simd::broadcast<W>(pipeline.data(k + 1)), simd::gather2(flat_inv_bw, u, v, m)),
          simd::not_equal_u(u, v));
      u = v;
    }
  }
  total.add(simd::mul(simd::broadcast<W>(pipeline.data(n)), simd::gather(inv_bw_out, u)));
  const D result = total.value();
  for (std::size_t l = 0; l < W; ++l) out[l] = result.v[l];
}

template void latency_assignment_lanes<1>(const pipeline::Pipeline&, const platform::Platform&,
                                          const std::uint64_t*, double*);
template void latency_assignment_lanes<4>(const pipeline::Pipeline&, const platform::Platform&,
                                          const std::uint64_t*, double*);
template void latency_assignment_lanes<8>(const pipeline::Pipeline&, const platform::Platform&,
                                          const std::uint64_t*, double*);

double latency_lower_bound(const pipeline::Pipeline& pipeline,
                           const platform::Platform& platform) {
  const std::size_t m = platform.processor_count();
  double best_speed = 0.0;
  double best_in = 0.0;
  double best_out = 0.0;
  for (platform::ProcessorId u = 0; u < m; ++u) {
    best_speed = std::max(best_speed, platform.speed(u));
    best_in = std::max(best_in, platform.bandwidth_in(u));
    best_out = std::max(best_out, platform.bandwidth_out(u));
  }
  return pipeline.data(0) / best_in + pipeline.total_work() / best_speed +
         pipeline.data(pipeline.stage_count()) / best_out;
}

std::optional<util::Error> check_latency_range(const pipeline::Pipeline& pipeline,
                                               const platform::Platform& platform,
                                               double time_scale) {
  const std::size_t m = platform.processor_count();
  double slowest_speed = std::numeric_limits<double>::infinity();
  double slowest_link = std::numeric_limits<double>::infinity();
  for (platform::ProcessorId u = 0; u < m; ++u) {
    slowest_speed = std::min(slowest_speed, platform.speed(u));
    slowest_link = std::min({slowest_link, platform.bandwidth_in(u), platform.bandwidth_out(u)});
    for (platform::ProcessorId v = 0; v < m; ++v) {
      if (v != u) slowest_link = std::min(slowest_link, platform.bandwidth(u, v));
    }
  }
  double largest_data = 0.0;
  for (std::size_t k = 0; k <= pipeline.stage_count(); ++k) {
    largest_data = std::max(largest_data, pipeline.data(k));
  }
  const double bound = pipeline.total_work() / slowest_speed +
                       static_cast<double>(m + 1) * largest_data / slowest_link;
  constexpr double kLimit = std::numeric_limits<double>::max() / 2;
  if (bound <= kLimit && bound / time_scale <= kLimit) return std::nullopt;
  return util::malformed(
      "latencies can overflow: total work / slowest speed + (processors + 1) * largest data "
      "size / slowest bandwidth must stay below half the largest double");
}

}  // namespace relap::mapping
