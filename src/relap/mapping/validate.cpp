#include "relap/mapping/validate.hpp"

namespace relap::mapping {

namespace {

util::Error mismatch(std::string message) { return util::make_error("mismatch", std::move(message)); }

}  // namespace

util::Expected<Valid> validate(std::size_t stage_count, std::size_t processor_count,
                               const IntervalMapping& mapping) {
  if (mapping.stage_count() != stage_count) {
    return mismatch("mapping covers " + std::to_string(mapping.stage_count()) +
                    " stages but the pipeline has " + std::to_string(stage_count));
  }
  for (const IntervalAssignment& a : mapping.intervals()) {
    for (const platform::ProcessorId u : a.processors) {
      if (u >= processor_count) {
        return mismatch("mapping names processor " + std::to_string(u) +
                        " but the platform has only " + std::to_string(processor_count) +
                        " processors");
      }
    }
  }
  return Valid{};
}

util::Expected<Valid> validate(const pipeline::Pipeline& pipeline,
                               const platform::Platform& platform,
                               const IntervalMapping& mapping) {
  return validate(pipeline.stage_count(), platform.processor_count(), mapping);
}

util::Expected<Valid> validate(const pipeline::Pipeline& pipeline,
                               const platform::Platform& platform,
                               const GeneralMapping& mapping) {
  if (mapping.stage_count() != pipeline.stage_count()) {
    return mismatch("mapping covers " + std::to_string(mapping.stage_count()) +
                    " stages but the pipeline has " + std::to_string(pipeline.stage_count()));
  }
  for (const platform::ProcessorId u : mapping.assignment()) {
    if (u >= platform.processor_count()) {
      return mismatch("mapping names processor " + std::to_string(u) +
                      " but the platform has only " + std::to_string(platform.processor_count()) +
                      " processors");
    }
  }
  return Valid{};
}

util::Expected<Valid> validate_one_to_one(const pipeline::Pipeline& pipeline,
                                          const platform::Platform& platform,
                                          const GeneralMapping& mapping) {
  auto base = validate(pipeline, platform, mapping);
  if (!base) return base;
  if (pipeline.stage_count() > platform.processor_count()) {
    return mismatch("one-to-one mappings require n <= m");
  }
  if (!mapping.is_one_to_one()) {
    return mismatch("mapping assigns two stages to the same processor");
  }
  return Valid{};
}

}  // namespace relap::mapping
