// Tests for pipeline/pipeline.hpp: the application model.

#include "relap/pipeline/pipeline.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace relap::pipeline {
namespace {

TEST(Pipeline, BasicAccessors) {
  const Pipeline p({1.0, 2.0, 3.0}, {10.0, 20.0, 30.0, 40.0});
  EXPECT_EQ(p.stage_count(), 3u);
  EXPECT_DOUBLE_EQ(p.work(0), 1.0);
  EXPECT_DOUBLE_EQ(p.work(2), 3.0);
  EXPECT_DOUBLE_EQ(p.data(0), 10.0);
  EXPECT_DOUBLE_EQ(p.data(3), 40.0);
  EXPECT_DOUBLE_EQ(p.input_size(1), 20.0);
  EXPECT_DOUBLE_EQ(p.output_size(1), 30.0);
}

TEST(Pipeline, WorkSumsViaPrefix) {
  const Pipeline p({1.0, 2.0, 3.0, 4.0}, {0.0, 0.0, 0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(p.work_sum(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(p.work_sum(0, 3), 10.0);
  EXPECT_DOUBLE_EQ(p.work_sum(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(p.work_sum(3, 3), 4.0);
  EXPECT_DOUBLE_EQ(p.total_work(), 10.0);
}

TEST(Pipeline, UniformFactory) {
  const Pipeline p = Pipeline::uniform(5, 2.0, 7.0);
  EXPECT_EQ(p.stage_count(), 5u);
  for (std::size_t k = 0; k < 5; ++k) EXPECT_DOUBLE_EQ(p.work(k), 2.0);
  for (std::size_t k = 0; k <= 5; ++k) EXPECT_DOUBLE_EQ(p.data(k), 7.0);
}

TEST(Pipeline, SingleStage) {
  const Pipeline p({4.0}, {1.0, 2.0});
  EXPECT_EQ(p.stage_count(), 1u);
  EXPECT_DOUBLE_EQ(p.total_work(), 4.0);
  EXPECT_DOUBLE_EQ(p.input_size(0), 1.0);
  EXPECT_DOUBLE_EQ(p.output_size(0), 2.0);
}

TEST(Pipeline, ZeroSizesAllowed) {
  // Figure 5 uses delta_2 = 0; zero work/data must be representable.
  const Pipeline p({0.0, 100.0}, {10.0, 1.0, 0.0});
  EXPECT_DOUBLE_EQ(p.work(0), 0.0);
  EXPECT_DOUBLE_EQ(p.data(2), 0.0);
}

TEST(Pipeline, CheckReportsTheConstructorsRuleAsMalformed) {
  EXPECT_FALSE(Pipeline::check(std::vector<double>{0.0, 2.0}, std::vector<double>{1.0, 0.0, 3.0}));
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    std::vector<double> work;
    std::vector<double> data;
    const char* message;
  } cases[] = {
      {{}, {1.0}, "at least one stage"},
      {{1.0}, {1.0}, "n+1 data sizes"},
      {{-1.0}, {1.0, 1.0}, "stage work"},
      {{inf}, {1.0, 1.0}, "stage work"},
      {{1.0}, {1.0, nan}, "data sizes"},
  };
  for (const auto& c : cases) {
    const std::optional<util::Error> violation = Pipeline::check(c.work, c.data);
    ASSERT_TRUE(violation.has_value()) << c.message;
    EXPECT_EQ(violation->code, "malformed");
    EXPECT_NE(violation->message.find(c.message), std::string::npos) << violation->message;
  }
}

TEST(Pipeline, EqualityAndDescribe) {
  const Pipeline a({1.0}, {2.0, 3.0});
  const Pipeline b({1.0}, {2.0, 3.0});
  const Pipeline c({1.5}, {2.0, 3.0});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a.describe().find("n=1"), std::string::npos);
}

TEST(PipelineDeath, RejectsMalformedInputs) {
  EXPECT_DEATH((Pipeline{{}, {1.0}}), "at least one stage");
  EXPECT_DEATH((Pipeline{{1.0}, {1.0}}), "n\\+1 data sizes");
  EXPECT_DEATH((Pipeline{{-1.0}, {1.0, 1.0}}), "finite");
  EXPECT_DEATH((void)Pipeline({1.0}, {1.0, 1.0}).work(5), "out of range");
}

}  // namespace
}  // namespace relap::pipeline
