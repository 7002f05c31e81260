// Tests for platform/platform.hpp and builders.hpp: construction,
// classification along both axes, ordering queries.

#include "relap/platform/builders.hpp"
#include "relap/platform/platform.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace relap::platform {
namespace {

TEST(Platform, FullyHomogeneousClassification) {
  const Platform p = make_fully_homogeneous(4, 2.0, 5.0, 0.1);
  EXPECT_EQ(p.processor_count(), 4u);
  EXPECT_EQ(p.comm_class(), CommClass::FullyHomogeneous);
  EXPECT_EQ(p.failure_class(), FailureClass::Homogeneous);
  EXPECT_TRUE(p.is_fully_homogeneous());
  EXPECT_TRUE(p.has_homogeneous_links());
  EXPECT_TRUE(p.is_failure_homogeneous());
  EXPECT_DOUBLE_EQ(p.common_bandwidth(), 5.0);
  EXPECT_DOUBLE_EQ(p.common_failure_prob(), 0.1);
}

TEST(Platform, CommHomogeneousClassification) {
  const Platform p = make_comm_homogeneous({1.0, 2.0, 3.0}, 4.0, 0.2);
  EXPECT_EQ(p.comm_class(), CommClass::CommHomogeneous);
  EXPECT_FALSE(p.is_fully_homogeneous());
  EXPECT_TRUE(p.has_homogeneous_links());
}

TEST(Platform, HeterogeneousFailuresDetected) {
  const Platform p = make_comm_homogeneous({1.0, 2.0}, 4.0, {0.1, 0.2});
  EXPECT_EQ(p.failure_class(), FailureClass::Heterogeneous);
  EXPECT_FALSE(p.is_failure_homogeneous());
}

TEST(Platform, FullyHomSpeedsHetFailures) {
  const Platform p = make_fully_homogeneous_het_failures(2.0, 3.0, {0.1, 0.2, 0.3});
  EXPECT_EQ(p.comm_class(), CommClass::FullyHomogeneous);
  EXPECT_EQ(p.failure_class(), FailureClass::Heterogeneous);
}

TEST(Platform, FullyHeterogeneousClassification) {
  PlatformBuilder builder;
  const ProcessorId a = builder.add_processor(1.0, 0.1);
  const ProcessorId b = builder.add_processor(1.0, 0.1);
  builder.default_bandwidth(1.0).link(a, b, 100.0);
  const Platform p = builder.build();
  EXPECT_EQ(p.comm_class(), CommClass::FullyHeterogeneous);
  EXPECT_FALSE(p.has_homogeneous_links());
}

TEST(Platform, InOutLinkHeterogeneityBreaksCommHomogeneity) {
  PlatformBuilder builder;
  builder.add_processor(1.0, 0.1);
  builder.add_processor(1.0, 0.1);
  builder.default_bandwidth(2.0).link_in(0, 7.0);
  EXPECT_EQ(builder.build().comm_class(), CommClass::FullyHeterogeneous);
}

TEST(Platform, BandwidthAccessors) {
  PlatformBuilder builder;
  const ProcessorId a = builder.add_processor(1.0, 0.0);
  const ProcessorId b = builder.add_processor(2.0, 0.5);
  builder.default_bandwidth(1.0)
      .directed_link(a, b, 10.0)
      .link_in(a, 3.0)
      .link_out(b, 4.0);
  const Platform p = builder.build();
  EXPECT_DOUBLE_EQ(p.bandwidth(a, b), 10.0);
  EXPECT_DOUBLE_EQ(p.bandwidth(b, a), 1.0);  // directed override only
  EXPECT_DOUBLE_EQ(p.bandwidth_in(a), 3.0);
  EXPECT_DOUBLE_EQ(p.bandwidth_in(b), 1.0);
  EXPECT_DOUBLE_EQ(p.bandwidth_out(b), 4.0);
}

TEST(Platform, OrderingQueries) {
  const Platform p = make_comm_homogeneous({3.0, 1.0, 2.0}, 1.0, {0.5, 0.1, 0.3});
  EXPECT_EQ(p.fastest_processor(), 0u);
  EXPECT_EQ(p.by_speed_desc(), (std::vector<ProcessorId>{0, 2, 1}));
  EXPECT_EQ(p.by_reliability(), (std::vector<ProcessorId>{1, 2, 0}));
}

TEST(Platform, OrderingTiesByIdStable) {
  const Platform p = make_fully_homogeneous(3, 1.0, 1.0, 0.1);
  EXPECT_EQ(p.by_speed_desc(), (std::vector<ProcessorId>{0, 1, 2}));
  EXPECT_EQ(p.by_reliability(), (std::vector<ProcessorId>{0, 1, 2}));
}

TEST(Platform, DescribeMentionsClass) {
  const Platform p = make_comm_homogeneous({1.0, 2.0}, 1.0, 0.1);
  EXPECT_NE(p.describe().find("CommHomogeneous"), std::string::npos);
}

TEST(Platform, CheckReportsTheConstructorsRuleAsMalformed) {
  const std::vector<double> ones{1.0, 1.0};
  const std::vector<double> fps{0.0, 1.0};
  const std::vector<std::vector<double>> links{{0.0, 2.0}, {3.0, -7.0}};  // diagonal ignored
  EXPECT_FALSE(Platform::check(ones, fps, links, ones, ones));

  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> bad_speed{inf, 1.0};
  const std::vector<double> bad_fp{0.5, 1.5};
  const std::vector<double> bad_bw{1.0, 0.0};
  const std::vector<std::vector<double>> bad_link{{1.0, 1.0}, {inf, 1.0}};
  const std::vector<std::vector<double>> ragged{{1.0, 1.0}, {1.0}};
  // Finite and > 0, but 1 / 1e-310 overflows the reciprocal tables to inf.
  const std::vector<double> subnormal{1.0, 1e-310};
  const std::vector<std::vector<double>> subnormal_link{{1.0, 1e-310}, {1.0, 1.0}};
  const struct {
    std::optional<util::Error> violation;
    const char* message;
  } cases[] = {
      {Platform::check({}, {}, {}, {}, {}), "at least one processor"},
      {Platform::check(ones, fps, ragged, ones, ones), "m-by-m"},
      {Platform::check(bad_speed, fps, links, ones, ones), "processor speeds"},
      {Platform::check(ones, fps, links, bad_bw, ones), "P_in bandwidths"},
      {Platform::check(ones, fps, links, ones, bad_bw), "P_out bandwidths"},
      {Platform::check(ones, fps, bad_link, ones, ones), "link bandwidths"},
      {Platform::check(ones, bad_fp, links, ones, ones), "[0, 1]"},
      {Platform::check(subnormal, fps, links, ones, ones), "finite reciprocals"},
      {Platform::check(ones, fps, links, subnormal, ones), "finite reciprocals"},
      {Platform::check(ones, fps, links, ones, subnormal), "finite reciprocals"},
      {Platform::check(ones, fps, subnormal_link, ones, ones), "finite reciprocals"},
  };
  for (const auto& c : cases) {
    ASSERT_TRUE(c.violation.has_value()) << c.message;
    EXPECT_EQ(c.violation->code, "malformed");
    EXPECT_NE(c.violation->message.find(c.message), std::string::npos) << c.violation->message;
  }
}

TEST(PlatformDeath, RejectsMalformedInputs) {
  EXPECT_DEATH(make_fully_homogeneous(0, 1.0, 1.0, 0.1), "at least one processor");
  EXPECT_DEATH(make_fully_homogeneous(2, -1.0, 1.0, 0.1), "finite");
  EXPECT_DEATH(make_fully_homogeneous(2, 1.0, 0.0, 0.1), "finite");
  EXPECT_DEATH(make_fully_homogeneous(2, 1.0, 1.0, 1.5), "\\[0, 1\\]");
  const Platform p = make_fully_homogeneous(2, 1.0, 1.0, 0.1);
  EXPECT_DEATH((void)p.bandwidth(0, 0), "undefined");
  EXPECT_DEATH((void)p.speed(5), "out of range");
}

}  // namespace
}  // namespace relap::platform
