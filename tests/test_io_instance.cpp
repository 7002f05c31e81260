// Tests for io/instance_format.hpp: parse/format round-trips on every
// platform class, error reporting with line numbers, mapping syntax.

#include "relap/io/instance_format.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "relap/gen/paper_instances.hpp"
#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"

namespace relap::io {
namespace {

void expect_instances_equal(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.pipeline, b.pipeline);
  const auto& pa = a.platform;
  const auto& pb = b.platform;
  ASSERT_EQ(pa.processor_count(), pb.processor_count());
  EXPECT_EQ(pa.comm_class(), pb.comm_class());
  EXPECT_EQ(pa.failure_class(), pb.failure_class());
  for (platform::ProcessorId u = 0; u < pa.processor_count(); ++u) {
    EXPECT_DOUBLE_EQ(pa.speed(u), pb.speed(u));
    EXPECT_DOUBLE_EQ(pa.failure_prob(u), pb.failure_prob(u));
    EXPECT_DOUBLE_EQ(pa.bandwidth_in(u), pb.bandwidth_in(u));
    EXPECT_DOUBLE_EQ(pa.bandwidth_out(u), pb.bandwidth_out(u));
    for (platform::ProcessorId v = 0; v < pa.processor_count(); ++v) {
      if (u != v) {
        EXPECT_DOUBLE_EQ(pa.bandwidth(u, v), pb.bandwidth(u, v));
      }
    }
  }
}

TEST(InstanceFormat, ParsesUniformLinksDocument) {
  const auto parsed = parse_instance(
      "relap-instance v1\n"
      "# a comment line\n"
      "pipeline 2\n"
      "work 1 2\n"
      "data 3 4 5\n"
      "platform 2\n"
      "speeds 1 2\n"
      "failures 0.1 0.2\n"
      "links uniform 5\n");
  ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();
  EXPECT_EQ(parsed->pipeline.stage_count(), 2u);
  EXPECT_DOUBLE_EQ(parsed->platform.common_bandwidth(), 5.0);
  EXPECT_EQ(parsed->platform.comm_class(), platform::CommClass::CommHomogeneous);
}

TEST(InstanceFormat, RoundTripsEveryPlatformClass) {
  gen::PlatformGenOptions options;
  options.processors = 4;
  const std::vector<Instance> instances = {
      {gen::random_uniform_pipeline(3, 1), gen::random_fully_homogeneous(options, 2)},
      {gen::comm_heavy_pipeline(4, 3), gen::random_comm_hom_het_failures(options, 4)},
      {gen::compute_heavy_pipeline(2, 5), gen::random_fully_heterogeneous(options, 6)},
      {gen::fig5_pipeline(), gen::fig5_platform()},
      {gen::fig3_pipeline(), gen::fig4_platform()},
  };
  for (const Instance& original : instances) {
    const std::string text = format_instance(original);
    const auto reparsed = parse_instance(text);
    ASSERT_TRUE(reparsed.has_value()) << reparsed.error().to_string() << "\n" << text;
    expect_instances_equal(original, *reparsed);
  }
}

TEST(InstanceFormat, SaveAndLoad) {
  const Instance original{gen::fig5_pipeline(), gen::fig5_platform()};
  const std::string path = ::testing::TempDir() + "/relap_instance_roundtrip.txt";
  ASSERT_TRUE(save_instance(original, path).has_value());
  const auto loaded = load_instance(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().to_string();
  expect_instances_equal(original, *loaded);
  std::remove(path.c_str());
}

TEST(InstanceFormat, LoadMissingFileIsIoError) {
  const auto r = load_instance("/nonexistent/path/to/instance.txt");
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, "io");
}

TEST(InstanceFormat, ErrorsCarryContext) {
  const auto missing_header = parse_instance("pipeline 2\n");
  ASSERT_FALSE(missing_header.has_value());
  EXPECT_EQ(missing_header.error().code, "parse");

  const auto bad_number = parse_instance(
      "relap-instance v1\npipeline 1\nwork abc\ndata 1 1\n");
  ASSERT_FALSE(bad_number.has_value());
  EXPECT_NE(bad_number.error().message.find("abc"), std::string::npos);

  const auto wrong_count = parse_instance(
      "relap-instance v1\npipeline 2\nwork 1\ndata 1 1 1\n");
  ASSERT_FALSE(wrong_count.has_value());
  EXPECT_NE(wrong_count.error().message.find("expected 2"), std::string::npos);

  const auto bad_fp = parse_instance(
      "relap-instance v1\npipeline 1\nwork 1\ndata 1 1\nplatform 1\nspeeds 1\n"
      "failures 1.5\nlinks uniform 1\n");
  ASSERT_FALSE(bad_fp.has_value());
  EXPECT_NE(bad_fp.error().message.find("[0, 1]"), std::string::npos);

  const auto trailing = parse_instance(
      "relap-instance v1\npipeline 1\nwork 1\ndata 1 1\nplatform 1\nspeeds 1\n"
      "failures 0.1\nlinks uniform 1\nextra stuff\n");
  ASSERT_FALSE(trailing.has_value());
  EXPECT_NE(trailing.error().message.find("trailing"), std::string::npos);
}

TEST(InstanceFormat, NonFiniteValuesAreParseErrors) {
  // Each of these used to reach a model constructor's assert.
  for (const char* text : {
           "relap-instance v1\npipeline 1\nwork 1\ndata 1 1\nplatform 2\nspeeds inf 1\n"
           "failures 0.1 0.1\nlinks uniform 1\n",
           "relap-instance v1\npipeline 1\nwork inf\ndata 1 1\nplatform 1\nspeeds 1\n"
           "failures 0.1\nlinks uniform 1\n",
           "relap-instance v1\npipeline 1\nwork 1\ndata 1 1\nplatform 1\nspeeds 1\n"
           "failures 0.1\nlinks uniform inf\n",
       }) {
    const auto parsed = parse_instance(text);
    ASSERT_FALSE(parsed.has_value()) << text;
    EXPECT_EQ(parsed.error().code, "parse") << parsed.error().to_string();
    EXPECT_NE(parsed.error().message.find("finite"), std::string::npos)
        << parsed.error().to_string();
  }
}

TEST(InstanceFormat, SubnormalRatesAreParseErrors) {
  // 1e-310 is finite and > 0, but the platform's reciprocal table would
  // store 1 / 1e-310 = inf, and a zero work or data term times inf is NaN.
  const auto parsed = parse_instance(
      "relap-instance v1\npipeline 1\nwork 1\ndata 1 1\nplatform 2\nspeeds 1e-310 1\n"
      "failures 0.1 0.1\nlinks uniform 1\n");
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error().code, "parse") << parsed.error().to_string();
  EXPECT_NE(parsed.error().message.find("finite reciprocals"), std::string::npos)
      << parsed.error().to_string();
}

TEST(InstanceFormat, OverflowingLatenciesAreParseErrors) {
  // Every value is finite, but the whole pipeline on the 1e-10-speed
  // processor takes 2e308 / 1e-10: a latency no double holds.
  const auto parsed = parse_instance(
      "relap-instance v1\npipeline 2\nwork 1e308 1e308\ndata 1 1 1\nplatform 2\n"
      "speeds 1 1e-10\nfailures 0.1 0.2\nlinks uniform 1\n");
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error().code, "parse") << parsed.error().to_string();
  EXPECT_NE(parsed.error().message.find("latencies can overflow"), std::string::npos)
      << parsed.error().to_string();
}

TEST(MappingFormat, RoundTrip) {
  const mapping::IntervalMapping original({{{0, 1}, {0, 2}}, {{2, 4}, {1}}});
  const auto reparsed = parse_mapping(format_mapping(original));
  ASSERT_TRUE(reparsed.has_value()) << reparsed.error().to_string();
  EXPECT_EQ(*reparsed, original);
}

TEST(MappingFormat, ParsesHandwrittenForms) {
  const auto m = parse_mapping("[0..0]->{3} [1..2]->{0,1,2}");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->interval_count(), 2u);
  EXPECT_EQ(m->interval(1).processors,
            (std::vector<platform::ProcessorId>{0, 1, 2}));
}

TEST(MappingFormat, RejectsMalformedTokens) {
  EXPECT_FALSE(parse_mapping("").has_value());
  EXPECT_FALSE(parse_mapping("garbage").has_value());
  EXPECT_FALSE(parse_mapping("[0..1]->{}").has_value());
  EXPECT_FALSE(parse_mapping("[1..2]->{0}").has_value());            // not starting at 0
  EXPECT_FALSE(parse_mapping("[0..1]->{0} [3..4]->{1}").has_value());  // gap
  EXPECT_FALSE(parse_mapping("[0..0]->{0} [1..1]->{0}").has_value());  // overlap
  EXPECT_FALSE(parse_mapping("[2..0]->{0}").has_value());            // inverted bounds
}

}  // namespace
}  // namespace relap::io
