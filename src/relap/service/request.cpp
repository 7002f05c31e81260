#include "relap/service/request.hpp"

#include "relap/util/assert.hpp"
#include "relap/util/hash.hpp"
#include "relap/util/strings.hpp"

namespace relap::service {

InstanceData InstanceData::from(const pipeline::Pipeline& pipeline,
                                const platform::Platform& platform) {
  InstanceData data;
  data.input_data = pipeline.data(0);
  const std::size_t n = pipeline.stage_count();
  data.stages.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    data.stages.push_back(LabeledStage{k, pipeline.work(k), pipeline.output_size(k)});
  }
  const std::size_t m = platform.processor_count();
  data.processors.reserve(m);
  for (std::size_t u = 0; u < m; ++u) {
    LabeledProcessor proc;
    proc.speed = platform.speed(u);
    proc.failure_prob = platform.failure_prob(u);
    proc.in_bandwidth = platform.bandwidth_in(u);
    proc.out_bandwidth = platform.bandwidth_out(u);
    proc.links.resize(m);
    for (std::size_t v = 0; v < m; ++v) {
      proc.links[v] = u == v ? 0.0 : platform.bandwidth(u, v);
    }
    data.processors.push_back(std::move(proc));
  }
  return data;
}

InstanceData InstanceData::relabeled(std::span<const std::size_t> stage_order,
                                     std::span<const std::size_t> processor_order) const {
  RELAP_ASSERT(stage_order.size() == stages.size(), "stage_order must cover every stage record");
  RELAP_ASSERT(processor_order.size() == processors.size(),
               "processor_order must cover every processor record");
  InstanceData out;
  out.input_data = input_data;
  out.stages.reserve(stages.size());
  for (const std::size_t i : stage_order) out.stages.push_back(stages[i]);
  out.processors.reserve(processors.size());
  for (const std::size_t u : processor_order) {
    LabeledProcessor proc = processors[u];
    for (std::size_t j = 0; j < processor_order.size(); ++j) {
      proc.links[j] = processors[u].links[processor_order[j]];
    }
    out.processors.push_back(std::move(proc));
  }
  return out;
}

InstanceData InstanceData::scaled(double work_factor, double data_factor,
                                  double time_factor) const {
  InstanceData out = *this;
  out.input_data *= data_factor;
  for (LabeledStage& stage : out.stages) {
    stage.work *= work_factor;
    stage.output_data *= data_factor;
  }
  const double compute_factor = work_factor * time_factor;
  const double transfer_factor = data_factor * time_factor;
  for (LabeledProcessor& proc : out.processors) {
    proc.speed *= compute_factor;
    proc.in_bandwidth *= transfer_factor;
    proc.out_bandwidth *= transfer_factor;
    for (double& b : proc.links) b *= transfer_factor;
  }
  return out;
}

std::string TraceSpans::to_json() const {
  const auto field = [](const char* name, double seconds) {
    return '"' + std::string(name) + "\":" + util::format_general(seconds, 17);
  };
  return '{' + field("queue_wait_s", queue_wait_seconds) + ',' +
         field("canonicalize_s", canonicalize_seconds) + ',' +
         field("cache_probe_s", cache_probe_seconds) + ',' +
         field("solve_s", solve_seconds) + ',' +
         field("denormalize_s", denormalize_seconds) + '}';
}

std::string to_string(Objective objective) {
  switch (objective) {
    case Objective::MinFpForLatency: return "min-fp-for-latency";
    case Objective::MinLatencyForFp: return "min-latency-for-fp";
    case Objective::ParetoFront: return "pareto-front";
  }
  RELAP_UNREACHABLE("invalid Objective");
}

std::uint64_t front_checksum(std::span<const algorithms::ParetoSolution> front) {
  util::Fnv1a hash;
  hash.add(static_cast<std::uint64_t>(front.size()));
  for (const algorithms::ParetoSolution& point : front) {
    hash.add(point.latency);
    hash.add(point.failure_probability);
    hash.add(static_cast<std::uint64_t>(point.mapping.interval_count()));
    for (const mapping::IntervalAssignment& assignment : point.mapping.intervals()) {
      hash.add(static_cast<std::uint64_t>(assignment.stages.first));
      hash.add(static_cast<std::uint64_t>(assignment.stages.last));
      hash.add(static_cast<std::uint64_t>(assignment.processors.size()));
    }
  }
  return hash.value();
}

}  // namespace relap::service
