// Tests for the candidate evaluator: mapping/mapping_lanes.hpp's
// `LaneEvalBatch<W>` over the mapping/mapping_view.hpp types. Two
// guarantees are pinned here:
//  1. bit-identity: every lane's latency and failure probability match the
//     scalar oracle (`algorithms::evaluate`, i.e. `latency()` and
//     `failure_probability()`) bit for bit on randomized mappings, at
//     W in {1, 4, 8}, in both staging modes and on all three platform
//     classes; `period_view` matches `period()` and `materialize` returns
//     the drawn mapping (the determinism suite builds on this);
//  2. zero allocation: the steady-state lane-batch loop (push_grouping +
//     evaluate + period_view + indexer successor) performs no heap
//     allocation, counted by replacing the global allocator in this TU.

#include "relap/mapping/mapping_view.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "relap/algorithms/types.hpp"
#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/mapping/latency.hpp"
#include "relap/mapping/mapping_lanes.hpp"
#include "relap/mapping/reliability.hpp"
#include "relap/mapping/throughput.hpp"
#include "relap/util/enumeration.hpp"
#include "relap/util/rng.hpp"

namespace {

std::atomic<std::size_t> g_allocation_count{0};

std::size_t allocation_count() { return g_allocation_count.load(std::memory_order_relaxed); }

void* counted_allocate(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_allocate_aligned(std::size_t size, std::size_t alignment) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size == 0 ? alignment : size) == 0) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

// Replaceable global allocation functions: every operator new in this test
// binary routes through the counter. The zero-allocation test below measures
// the counter across the lane batch's steady-state loop.
void* operator new(std::size_t size) { return counted_allocate(size); }
void* operator new[](std::size_t size) { return counted_allocate(size); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_allocate_aligned(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_allocate_aligned(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace relap {
namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Draws uniform random interval mappings (composition + grouping) via the
/// indexers' unrank and streams them through a `LaneEvalBatch<W>`, flushing
/// full and final partial batches. Enumeration mode calls set_composition
/// before every push_grouping, so compositions change mid-batch; interval
/// mode stages each mapping's explicit assignments with push_intervals.
/// Every lane's result must match the scalar oracle bit for bit, and the
/// lane views must period/materialize exactly like the drawn mapping.
template <std::size_t W>
void lane_cross_check_random_mappings(const pipeline::Pipeline& pipe,
                                      const platform::Platform& plat, std::uint64_t seed,
                                      int iterations, bool interval_mode) {
  const std::size_t n = pipe.stage_count();
  const std::size_t m = plat.processor_count();
  util::Rng rng(seed);
  mapping::LaneEvalBatch<W> batch(n, m);
  std::array<mapping::ViewEval, W> evals;
  std::vector<std::size_t> lengths;
  std::vector<std::size_t> group_of(m);
  std::vector<std::size_t> group_sizes;
  std::vector<mapping::IntervalMapping> staged;

  const auto flush = [&] {
    batch.evaluate(plat, evals);
    for (std::size_t l = 0; l < batch.size(); ++l) {
      const algorithms::Solution oracle = algorithms::evaluate(pipe, plat, staged[l]);
      EXPECT_EQ(bits(evals[l].latency), bits(oracle.latency)) << "W=" << W << " lane " << l;
      EXPECT_EQ(bits(evals[l].failure_probability), bits(oracle.failure_probability))
          << "W=" << W << " lane " << l;
      EXPECT_EQ(mapping::materialize(batch.view(l)), staged[l]) << "W=" << W << " lane " << l;
      EXPECT_EQ(bits(mapping::period_view(plat, batch.view(l), batch.cache(l))),
                bits(mapping::period(pipe, plat, staged[l])))
          << "W=" << W << " lane " << l;
    }
    batch.clear();
    staged.clear();
  };

  for (int i = 0; i < iterations; ++i) {
    const std::size_t p = 1 + static_cast<std::size_t>(rng.uniform_int(std::min(n, m)));
    const util::CompositionIndexer compositions(n, p);
    const util::GroupingIndexer groupings(m, p);
    compositions.unrank(rng.uniform_int(compositions.count()), lengths);
    group_sizes.resize(p);
    groupings.unrank(rng.uniform_int(groupings.count()), group_of, group_sizes);

    std::vector<std::vector<platform::ProcessorId>> groups(p);
    for (platform::ProcessorId u = 0; u < m; ++u) {
      if (group_of[u] < p) groups[group_of[u]].push_back(u);
    }
    staged.push_back(mapping::IntervalMapping::from_composition(lengths, groups));
    if (interval_mode) {
      batch.push_intervals(pipe, staged.back().intervals());
    } else {
      batch.set_composition(pipe, lengths);
      batch.push_grouping(group_of, group_sizes);
    }
    if (batch.full()) flush();
  }
  if (!batch.empty()) flush();  // also exercises partial batches when W > 1
}

/// Both staging modes at every lane width, each with its own draw stream.
void lane_cross_check_all_widths(const pipeline::Pipeline& pipe, const platform::Platform& plat,
                                 std::uint64_t seed, int iterations) {
  for (const bool interval_mode : {false, true}) {
    const std::uint64_t base = seed + (interval_mode ? 10 : 0);
    lane_cross_check_random_mappings<1>(pipe, plat, base, iterations, interval_mode);
    lane_cross_check_random_mappings<4>(pipe, plat, base + 1, iterations, interval_mode);
    lane_cross_check_random_mappings<8>(pipe, plat, base + 2, iterations, interval_mode);
  }
}

TEST(MappingLanes, MatchesScalarOracleOnCommHomogeneousPlatforms) {
  const auto pipe = gen::random_uniform_pipeline(6, 401);
  gen::PlatformGenOptions options;
  options.processors = 7;
  const auto plat = gen::random_comm_hom_het_failures(options, 402);
  ASSERT_TRUE(plat.has_homogeneous_links());  // exercises the eq-(1) lane kernel
  lane_cross_check_all_widths(pipe, plat, 403, 150);
}

TEST(MappingLanes, MatchesScalarOracleOnFullyHeterogeneousPlatforms) {
  const auto pipe = gen::random_uniform_pipeline(5, 411);
  gen::PlatformGenOptions options;
  options.processors = 6;
  const auto plat = gen::random_fully_heterogeneous(options, 412);
  ASSERT_FALSE(plat.has_homogeneous_links());  // exercises the eq-(2) lane kernel
  lane_cross_check_all_widths(pipe, plat, 413, 150);
}

TEST(MappingLanes, MatchesScalarOracleOnFullyHomogeneousPlatforms) {
  const auto pipe = gen::random_uniform_pipeline(4, 421);
  gen::PlatformGenOptions options;
  options.processors = 5;
  const auto plat = gen::random_fully_homogeneous(options, 422);
  lane_cross_check_all_widths(pipe, plat, 423, 100);
}

TEST(MappingLanes, IntervalPushMatchesScalarOracle) {
  // The heuristics staging mode: explicit interval assignments with ragged
  // per-lane compositions and interval counts inside one batch.
  const auto pipe = gen::random_uniform_pipeline(6, 431);
  gen::PlatformGenOptions options;
  options.processors = 7;
  const auto het = gen::random_fully_heterogeneous(options, 432);
  const auto hom = gen::random_comm_hom_het_failures(options, 433);
  lane_cross_check_random_mappings<1>(pipe, het, 437, 150, true);
  lane_cross_check_random_mappings<4>(pipe, het, 434, 150, true);
  lane_cross_check_random_mappings<8>(pipe, het, 435, 150, true);
  lane_cross_check_random_mappings<8>(pipe, hom, 436, 150, true);
}

TEST(MappingView, ViewAccessorsDescribeTheMapping) {
  const auto pipe = gen::random_uniform_pipeline(5, 331);
  mapping::LaneEvalBatch<1> batch(5, 4);
  const std::vector<std::size_t> lengths{2, 3};
  batch.set_composition(pipe, lengths);
  const std::vector<std::size_t> group_of{0, 1, 2, 1};  // processor 2 unused
  const std::vector<std::size_t> group_sizes{1, 2};
  batch.push_grouping(group_of, group_sizes);
  const mapping::MappingView view = batch.view(0);
  EXPECT_EQ(view.interval_count(), 2u);
  EXPECT_EQ(view.stage_count(), 5u);
  EXPECT_EQ(view.first_stage(0), 0u);
  EXPECT_EQ(view.last_stage(0), 1u);
  EXPECT_EQ(view.first_stage(1), 2u);
  EXPECT_EQ(view.last_stage(1), 4u);
  EXPECT_EQ(view.processors_used(), 3u);
  ASSERT_EQ(view.group(0).size(), 1u);
  EXPECT_EQ(view.group(0)[0], 0u);
  ASSERT_EQ(view.group(1).size(), 2u);
  EXPECT_EQ(view.group(1)[0], 1u);
  EXPECT_EQ(view.group(1)[1], 3u);
}

TEST(MappingViewAllocation, LaneBatchSteadyStateIsAllocationFree) {
  const auto pipe = gen::random_uniform_pipeline(6, 441);
  gen::PlatformGenOptions options;
  options.processors = 7;
  const auto plat = gen::random_fully_heterogeneous(options, 442);
  const std::size_t n = 6;
  const std::size_t m = 7;
  const std::size_t p = 3;

  const util::GroupingIndexer groupings(m, p);
  const util::CompositionIndexer compositions(n, p);
  std::vector<std::size_t> lengths;
  std::vector<std::size_t> group_of(m);
  std::vector<std::size_t> group_sizes(p);
  constexpr std::size_t W = 8;
  mapping::LaneEvalBatch<W> batch(n, m);
  std::array<mapping::ViewEval, W> evals;

  // Warm up one full cycle; the batch preallocates in its constructor, so
  // nothing below may touch the heap.
  std::uint64_t composition_rank = 0;
  compositions.unrank(composition_rank, lengths);
  batch.set_composition(pipe, lengths);
  groupings.unrank(0, group_of, group_sizes);

  double sink = 0.0;
  const std::size_t before = allocation_count();
  for (int i = 0; i < 2000; ++i) {
    batch.push_grouping(group_of, group_sizes);
    if (batch.full()) {
      batch.evaluate(plat, evals);
      for (std::size_t l = 0; l < batch.size(); ++l) {
        sink += evals[l].latency + evals[l].failure_probability;
        sink += mapping::period_view(plat, batch.view(l), batch.cache(l));
      }
      batch.clear();
    }
    if (!groupings.next(group_of, group_sizes)) {
      // Composition wrap mid-batch, as in the real enumerator: the pushed
      // lanes keep their copied columns and nothing allocates.
      composition_rank = (composition_rank + 1) % compositions.count();
      compositions.unrank(composition_rank, lengths);
      batch.set_composition(pipe, lengths);
      groupings.unrank(0, group_of, group_sizes);
    }
  }
  if (!batch.empty()) {
    batch.evaluate(plat, evals);
    batch.clear();
  }
  const std::size_t after = allocation_count();
  EXPECT_EQ(after, before) << "lane-batch steady state allocated " << (after - before)
                           << " times over 2000 candidates";
  EXPECT_GT(sink, 0.0);  // keep the loop observable
}

}  // namespace
}  // namespace relap
