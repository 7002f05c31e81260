// Tests for mapping/validate.hpp: instance-compatibility checks.

#include "relap/mapping/validate.hpp"

#include <gtest/gtest.h>

#include "relap/platform/builders.hpp"

namespace relap::mapping {
namespace {

pipeline::Pipeline three_stages() {
  return pipeline::Pipeline({1.0, 1.0, 1.0}, {1.0, 1.0, 1.0, 1.0});
}

TEST(Validate, AcceptsWellFormedIntervalMapping) {
  const auto plat = platform::make_fully_homogeneous(3, 1.0, 1.0, 0.1);
  const IntervalMapping m({{{0, 1}, {0, 2}}, {{2, 2}, {1}}});
  EXPECT_TRUE(validate(three_stages(), plat, m).has_value());
}

TEST(Validate, RejectsStageCountMismatch) {
  const auto plat = platform::make_fully_homogeneous(3, 1.0, 1.0, 0.1);
  const auto r = validate(three_stages(), plat, IntervalMapping::single_interval(2, {0}));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, "mismatch");
}

TEST(Validate, RejectsUnknownProcessor) {
  const auto plat = platform::make_fully_homogeneous(2, 1.0, 1.0, 0.1);
  const auto r = validate(three_stages(), plat, IntervalMapping::single_interval(3, {0, 5}));
  ASSERT_FALSE(r.has_value());
  EXPECT_NE(r.error().message.find("processor 5"), std::string::npos);
}

TEST(Validate, CountFormChecksStagesAndProcessorIds) {
  const IntervalMapping m({{{0, 1}, {0, 2}}, {{2, 2}, {1}}});
  EXPECT_TRUE(validate(3, 3, m).has_value());
  const auto short_instance = validate(2, 3, m);
  ASSERT_FALSE(short_instance.has_value());
  EXPECT_EQ(short_instance.error().code, "mismatch");
  const auto few_processors = validate(3, 2, m);
  ASSERT_FALSE(few_processors.has_value());
  EXPECT_NE(few_processors.error().message.find("processor 2"), std::string::npos);
}

TEST(Validate, GeneralMappingChecks) {
  const auto plat = platform::make_fully_homogeneous(2, 1.0, 1.0, 0.1);
  EXPECT_TRUE(validate(three_stages(), plat, GeneralMapping({0, 1, 0})).has_value());
  EXPECT_FALSE(validate(three_stages(), plat, GeneralMapping({0, 1})).has_value());
  EXPECT_FALSE(validate(three_stages(), plat, GeneralMapping({0, 1, 7})).has_value());
}

TEST(ValidateOneToOne, RequiresDistinctProcessors) {
  const auto plat = platform::make_fully_homogeneous(4, 1.0, 1.0, 0.1);
  EXPECT_TRUE(validate_one_to_one(three_stages(), plat, GeneralMapping({0, 1, 3})).has_value());
  const auto dup = validate_one_to_one(three_stages(), plat, GeneralMapping({0, 1, 0}));
  ASSERT_FALSE(dup.has_value());
  EXPECT_NE(dup.error().message.find("same processor"), std::string::npos);
}

TEST(ValidateOneToOne, RequiresEnoughProcessors) {
  const auto plat = platform::make_fully_homogeneous(2, 1.0, 1.0, 0.1);
  // Structurally a valid general mapping, but n > m forbids one-to-one.
  const auto r = validate_one_to_one(three_stages(), plat, GeneralMapping({0, 1, 0}));
  ASSERT_FALSE(r.has_value());
}

}  // namespace
}  // namespace relap::mapping
