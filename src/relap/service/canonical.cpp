#include "relap/service/canonical.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <tuple>

#include "relap/io/instance_format.hpp"
#include "relap/mapping/latency.hpp"
#include "relap/util/hash.hpp"

namespace relap::service {

using util::malformed;

namespace {

/// The largest power of two <= x (x > 0), or 1.0 for x == 0: the exact
/// divisor scale normalization uses. Dividing any double by the result only
/// shifts its exponent, so canonical values carry the caller's mantissas
/// untouched.
double pow2_floor(double x) {
  if (x <= 0.0) return 1.0;
  return std::ldexp(1.0, std::ilogb(x));
}

/// Label-independent processor ordering over the normalized columns.
///
/// Round 0 partitions processors into classes by the 4-column signature
/// (speed, fp, in, out). On platforms with any link heterogeneity, classes
/// are refined WL-style: each processor's class is extended with the sorted
/// multiset of (neighbor class, outgoing bandwidth, incoming bandwidth)
/// triples, until the partition stops splitting. The final order sorts by
/// class; processors still tied after refinement keep presentation order
/// (see canonical.hpp for why that is safe).
std::vector<std::size_t> canonical_processor_order(std::span<const double> speed,
                                                   std::span<const double> fp,
                                                   std::span<const double> in_bw,
                                                   std::span<const double> out_bw,
                                                   const std::vector<std::vector<double>>& links) {
  const std::size_t m = speed.size();
  std::vector<std::size_t> order(m);
  for (std::size_t u = 0; u < m; ++u) order[u] = u;

  const auto signature = [&](std::size_t u) {
    return std::tie(speed[u], fp[u], in_bw[u], out_bw[u]);
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return signature(a) < signature(b); });

  std::vector<std::size_t> cls(m, 0);
  std::size_t classes = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (i > 0 && signature(order[i]) != signature(order[i - 1])) ++classes;
    cls[order[i]] = classes;
  }
  ++classes;

  // Link refinement only matters when links are heterogeneous; a uniform
  // matrix extends every class identically.
  bool links_uniform = true;
  const double b0 = m >= 2 ? links[0][1] : 0.0;
  for (std::size_t u = 0; u < m && links_uniform; ++u) {
    for (std::size_t v = 0; v < m; ++v) {
      if (u != v && links[u][v] != b0) {
        links_uniform = false;
        break;
      }
    }
  }

  if (!links_uniform && classes < m) {
    using Neighborhood = std::vector<std::tuple<std::size_t, double, double>>;
    std::vector<Neighborhood> ext(m);
    for (std::size_t round = 0; round < m && classes < m; ++round) {
      for (std::size_t u = 0; u < m; ++u) {
        ext[u].clear();
        ext[u].reserve(m - 1);
        for (std::size_t v = 0; v < m; ++v) {
          if (v != u) ext[u].emplace_back(cls[v], links[u][v], links[v][u]);
        }
        std::sort(ext[u].begin(), ext[u].end());
      }
      std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (cls[a] != cls[b]) return cls[a] < cls[b];
        return ext[a] < ext[b];
      });
      std::size_t refined = 0;
      std::vector<std::size_t> next(m, 0);
      for (std::size_t i = 0; i < m; ++i) {
        if (i > 0 && (cls[order[i]] != cls[order[i - 1]] || ext[order[i]] != ext[order[i - 1]])) {
          ++refined;
        }
        next[order[i]] = refined;
      }
      ++refined;
      if (refined == classes) break;  // stable partition: no further splits
      cls = std::move(next);
      classes = refined;
    }
  }

  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return cls[a] < cls[b]; });
  return order;
}

}  // namespace

util::Expected<CanonicalInstance> canonicalize(const InstanceData& instance) {
  const std::size_t n = instance.stages.size();
  const std::size_t m = instance.processors.size();
  if (n == 0) return malformed("empty pipeline: a request needs at least one stage");
  if (m == 0) return malformed("zero-processor platform: a request needs at least one processor");

  // --- Record checks: positions form a permutation, link rows are m wide. -
  std::vector<std::size_t> stage_at(n, n);  // position -> record index
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t position = instance.stages[i].position;
    if (position >= n) {
      return malformed("stage position " + std::to_string(position) + " out of range for " +
                       std::to_string(n) + " stages");
    }
    if (stage_at[position] != n) {
      return malformed("duplicate stage position " + std::to_string(position));
    }
    stage_at[position] = i;
  }
  for (const LabeledProcessor& proc : instance.processors) {
    if (proc.links.size() != m) {
      return malformed("processor link row has " + std::to_string(proc.links.size()) +
                       " entries, expected " + std::to_string(m));
    }
  }

  // --- The model's value rules on the raw columns. ------------------------
  std::vector<double> work(n);
  std::vector<double> data(n + 1);
  data[0] = instance.input_data;
  for (std::size_t k = 0; k < n; ++k) {
    const LabeledStage& stage = instance.stages[stage_at[k]];
    work[k] = stage.work;
    data[k + 1] = stage.output_data;
  }
  std::vector<double> speed(m);
  std::vector<double> fp(m);
  std::vector<double> in_bw(m);
  std::vector<double> out_bw(m);
  std::vector<std::vector<double>> links(m);
  for (std::size_t u = 0; u < m; ++u) {
    const LabeledProcessor& proc = instance.processors[u];
    speed[u] = proc.speed;
    fp[u] = proc.failure_prob;
    in_bw[u] = proc.in_bandwidth;
    out_bw[u] = proc.out_bandwidth;
    links[u] = proc.links;
  }
  const auto check_columns = [&] {
    std::optional<util::Error> violation = pipeline::Pipeline::check(work, data);
    return violation ? violation : platform::Platform::check(speed, fp, links, in_bw, out_bw);
  };
  if (std::optional<util::Error> violation = check_columns()) return *std::move(violation);

  // --- Scale normalization (exact powers of two). --------------------------
  const double work_scale = pow2_floor(*std::max_element(work.begin(), work.end()));
  const double data_scale = pow2_floor(*std::max_element(data.begin(), data.end()));
  for (double& w : work) w /= work_scale;
  for (double& d : data) d /= data_scale;
  for (double& s : speed) s /= work_scale;
  // Time scale: make the fastest work-normalized speed land in [1, 2). All
  // rates (speeds and bandwidths) divide by it; latencies multiply by it.
  const double time_scale = pow2_floor(*std::max_element(speed.begin(), speed.end()));
  for (std::size_t u = 0; u < m; ++u) {
    speed[u] /= time_scale;
    in_bw[u] = in_bw[u] / data_scale / time_scale;
    out_bw[u] = out_bw[u] / data_scale / time_scale;
    for (std::size_t v = 0; v < m; ++v) {
      if (v != u) links[u][v] = links[u][v] / data_scale / time_scale;
    }
  }
  // Each value was in range, but dividing by a column's scale can underflow
  // to 0 or overflow to inf when the columns span more than the double
  // exponent range: the same rules again, on what gets constructed.
  if (std::optional<util::Error> violation = check_columns()) {
    return malformed("instance values span too wide a range to normalize: after scaling, " +
                     violation->message);
  }

  // --- Canonical processor order. -----------------------------------------
  const std::vector<std::size_t> order =
      canonical_processor_order(speed, fp, in_bw, out_bw, links);

  std::vector<double> c_speed(m);
  std::vector<double> c_fp(m);
  std::vector<double> c_in(m);
  std::vector<double> c_out(m);
  std::vector<std::vector<double>> c_links(m, std::vector<double>(m, 1.0));
  for (std::size_t c = 0; c < m; ++c) {
    const std::size_t u = order[c];
    c_speed[c] = speed[u];
    c_fp[c] = fp[u];
    c_in[c] = in_bw[u];
    c_out[c] = out_bw[u];
    for (std::size_t d = 0; d < m; ++d) {
      if (d != c) c_links[c][d] = links[u][order[d]];
    }
  }

  CanonicalInstance canonical{
      pipeline::Pipeline(std::move(work), std::move(data)),
      platform::Platform(std::move(c_speed), std::move(c_fp), std::move(c_links), std::move(c_in),
                         std::move(c_out)),
      time_scale,
      order,
      std::string(),
      0,
  };
  // The joint rule runs last, on the pair the solvers see and in the
  // caller's units, so every input an earlier rule refuses keeps its message.
  if (std::optional<util::Error> violation =
          mapping::check_latency_range(canonical.pipeline, canonical.platform, time_scale)) {
    return *std::move(violation);
  }
  io::append_instance_key_bytes(canonical.pipeline, canonical.platform, canonical.key_bytes);
  canonical.key_hash = util::fnv1a(canonical.key_bytes);
  return canonical;
}

std::vector<algorithms::ParetoSolution> denormalize_front(
    const CanonicalInstance& canonical, std::span<const algorithms::ParetoSolution> front) {
  std::vector<algorithms::ParetoSolution> out;
  out.reserve(front.size());
  for (const algorithms::ParetoSolution& point : front) {
    std::vector<mapping::IntervalAssignment> intervals;
    intervals.reserve(point.mapping.interval_count());
    for (const mapping::IntervalAssignment& assignment : point.mapping.intervals()) {
      std::vector<platform::ProcessorId> group;
      group.reserve(assignment.processors.size());
      for (const platform::ProcessorId c : assignment.processors) {
        group.push_back(canonical.canonical_to_caller[c]);
      }
      intervals.push_back(mapping::IntervalAssignment{assignment.stages, std::move(group)});
    }
    out.push_back(algorithms::ParetoSolution{point.latency / canonical.time_scale,
                                             point.failure_probability,
                                             mapping::IntervalMapping(std::move(intervals))});
  }
  return out;
}

}  // namespace relap::service
