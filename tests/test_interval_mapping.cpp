// Tests for mapping/interval_mapping.hpp: structural invariants and helpers.

#include "relap/mapping/interval_mapping.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace relap::mapping {
namespace {

TEST(IntervalMapping, SingleInterval) {
  const IntervalMapping m = IntervalMapping::single_interval(5, {2, 0});
  EXPECT_EQ(m.interval_count(), 1u);
  EXPECT_EQ(m.stage_count(), 5u);
  EXPECT_EQ(m.interval(0).stages.first, 0u);
  EXPECT_EQ(m.interval(0).stages.last, 4u);
  // Groups are canonically sorted.
  EXPECT_EQ(m.interval(0).processors, (std::vector<platform::ProcessorId>{0, 2}));
  EXPECT_EQ(m.processors_used(), 2u);
  EXPECT_EQ(m.replication(0), 2u);
}

TEST(IntervalMapping, MultiInterval) {
  const IntervalMapping m({{{0, 1}, {3}}, {{2, 2}, {1, 0}}, {{3, 5}, {2}}});
  EXPECT_EQ(m.interval_count(), 3u);
  EXPECT_EQ(m.stage_count(), 6u);
  EXPECT_EQ(m.processors_used(), 4u);
  EXPECT_EQ(m.interval(1).processors, (std::vector<platform::ProcessorId>{0, 1}));
}

TEST(IntervalMapping, FromComposition) {
  const std::vector<std::size_t> lengths{2, 1, 3};
  const IntervalMapping m =
      IntervalMapping::from_composition(lengths, {{0}, {1, 2}, {3}});
  EXPECT_EQ(m.interval_count(), 3u);
  EXPECT_EQ(m.interval(0).stages, (Interval{0, 1}));
  EXPECT_EQ(m.interval(1).stages, (Interval{2, 2}));
  EXPECT_EQ(m.interval(2).stages, (Interval{3, 5}));
}

TEST(IntervalMapping, IntervalLength) {
  EXPECT_EQ((Interval{0, 0}).length(), 1u);
  EXPECT_EQ((Interval{2, 5}).length(), 4u);
}

TEST(IntervalMapping, DescribeFormat) {
  const IntervalMapping m({{{0, 1}, {0, 2}}, {{2, 2}, {1}}});
  EXPECT_EQ(m.describe(), "[0..1]->{0,2} [2..2]->{1}");
}

TEST(IntervalMapping, EqualityIsCanonical) {
  const IntervalMapping a = IntervalMapping::single_interval(3, {1, 2});
  const IntervalMapping b = IntervalMapping::single_interval(3, {2, 1});
  EXPECT_EQ(a, b);  // groups sorted on construction
}

TEST(IntervalMapping, MakeSortsGroupsAndReportsEachViolationAsMalformed) {
  const auto made = IntervalMapping::make({{{0, 1}, {3, 0}}, {{2, 2}, {1}}});
  ASSERT_TRUE(made.has_value()) << made.error().to_string();
  EXPECT_EQ(*made, IntervalMapping({{{0, 1}, {0, 3}}, {{2, 2}, {1}}}));

  using Assignments = std::vector<IntervalAssignment>;
  const struct {
    Assignments intervals;
    const char* message;
  } cases[] = {
      {{}, "at least one interval"},
      {{{{1, 2}, {0}}}, "start at stage 0"},
      {{{{0, 1}, {0}}, {{3, 4}, {1}}}, "consecutive"},
      {{{{0, 1}, {}}}, "non-empty"},
      {{{{0, 1}, {0, 0}}}, "duplicate"},
      {{{{0, 0}, {0}}, {{1, 1}, {0}}}, "disjoint"},
      {{{{0, 0}, {0}}, {{1, 0}, {1}}}, "first <= last"},
      // e_1 + 1 wraps around to 0: not a successor of stage SIZE_MAX.
      {{{{0, SIZE_MAX}, {0}}, {{0, 0}, {1}}}, "consecutive"},
  };
  for (const auto& c : cases) {
    const auto rejected = IntervalMapping::make(c.intervals);
    ASSERT_FALSE(rejected.has_value()) << c.message;
    EXPECT_EQ(rejected.error().code, "malformed");
    EXPECT_NE(rejected.error().message.find(c.message), std::string::npos)
        << rejected.error().message;
  }
}

TEST(IntervalMappingDeath, StructuralViolations) {
  using Assignments = std::vector<IntervalAssignment>;
  EXPECT_DEATH(IntervalMapping(Assignments{}), "at least one interval");
  EXPECT_DEATH(IntervalMapping(Assignments{{{1, 2}, {0}}}), "start at stage 0");
  EXPECT_DEATH(IntervalMapping({{{0, 1}, {0}}, {{3, 4}, {1}}}), "consecutive");
  EXPECT_DEATH(IntervalMapping(Assignments{{{0, 1}, {}}}), "non-empty");
  EXPECT_DEATH(IntervalMapping(Assignments{{{0, 1}, {0, 0}}}), "duplicate");
  EXPECT_DEATH(IntervalMapping({{{0, 0}, {0}}, {{1, 1}, {0}}}), "disjoint");
  // first > last inside an interval.
  EXPECT_DEATH(IntervalMapping({{{0, 0}, {0}}, {{1, 0}, {1}}}), "");
}

}  // namespace
}  // namespace relap::mapping
