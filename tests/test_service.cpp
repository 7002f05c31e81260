// Tests for the solver service (service/{request,canonical,cache,broker}):
// canonicalization quotients relabelings and power-of-two rescalings, cache
// hits are bit-identical to cold solves, malformed requests come back as
// structured errors, and the memo cache obeys its LRU/counter contract.

#include "relap/service/broker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/service/canonical.hpp"
#include "relap/service/faultpoint.hpp"
#include "relap/util/rng.hpp"

namespace relap::service {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

InstanceData small_instance(std::uint64_t seed, std::size_t stages = 4,
                            std::size_t processors = 4) {
  const auto pipe = gen::random_uniform_pipeline(stages, seed);
  gen::PlatformGenOptions options;
  options.processors = processors;
  const auto plat = gen::random_fully_heterogeneous(options, seed + 1);
  return InstanceData::from(pipe, plat);
}

InstanceData shuffled(const InstanceData& instance, std::uint64_t seed,
                      std::vector<std::size_t>* processor_order_out = nullptr) {
  util::Rng rng(seed);
  std::vector<std::size_t> stage_order = util::iota_indices(instance.stages.size());
  std::vector<std::size_t> processor_order = util::iota_indices(instance.processors.size());
  rng.shuffle(stage_order);
  rng.shuffle(processor_order);
  if (processor_order_out != nullptr) *processor_order_out = processor_order;
  return instance.relabeled(stage_order, processor_order);
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Group sets of `reply` translated into the base labeling: processor id j of
// the relabeled presentation is base record processor_order[j].
std::vector<std::vector<std::size_t>> groups_in_base_labels(
    const Reply& reply, std::size_t point, const std::vector<std::size_t>& processor_order) {
  std::vector<std::vector<std::size_t>> groups;
  for (const auto& assignment : reply.front[point].mapping.intervals()) {
    std::vector<std::size_t> group;
    for (const auto id : assignment.processors) group.push_back(processor_order[id]);
    std::sort(group.begin(), group.end());
    groups.push_back(std::move(group));
  }
  return groups;
}

// --- Canonicalization properties. ------------------------------------------

TEST(Canonical, RelabelingsAndPow2ScalingsShareOneHash) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const InstanceData base = small_instance(seed);
    const auto canonical = canonicalize(base);
    ASSERT_TRUE(canonical.has_value());

    const auto relabeled = canonicalize(shuffled(base, seed * 101));
    ASSERT_TRUE(relabeled.has_value());
    EXPECT_EQ(canonical->key_bytes, relabeled->key_bytes);
    EXPECT_EQ(canonical->key_hash, relabeled->key_hash);

    const auto scaled = canonicalize(base.scaled(0.25, 8.0, 2.0));
    ASSERT_TRUE(scaled.has_value());
    EXPECT_EQ(canonical->key_bytes, scaled->key_bytes);

    const auto both = canonicalize(shuffled(base, seed * 103).scaled(4.0, 0.5, 0.125));
    ASSERT_TRUE(both.has_value());
    EXPECT_EQ(canonical->key_bytes, both->key_bytes);
  }
}

TEST(Canonical, HoldsOnEveryPlatformClass) {
  const auto pipe = gen::random_uniform_pipeline(5, 7);
  gen::PlatformGenOptions options;
  options.processors = 5;
  const platform::Platform platforms[] = {
      gen::random_fully_homogeneous(options, 11),
      gen::random_comm_hom_het_failures(options, 12),
      gen::random_fully_heterogeneous(options, 13),
  };
  for (const auto& plat : platforms) {
    const InstanceData base = InstanceData::from(pipe, plat);
    const auto canonical = canonicalize(base);
    ASSERT_TRUE(canonical.has_value());
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto relabeled = canonicalize(shuffled(base, seed * 31 + 5));
      ASSERT_TRUE(relabeled.has_value());
      EXPECT_EQ(canonical->key_bytes, relabeled->key_bytes);
    }
  }
}

TEST(Canonical, DistinctInstancesGetDistinctHashes) {
  const auto a = canonicalize(small_instance(1));
  const auto b = canonicalize(small_instance(2));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(a->key_hash, b->key_hash);
}

TEST(Canonical, TimeScaleIsAPowerOfTwo) {
  const auto canonical = canonicalize(small_instance(3));
  ASSERT_TRUE(canonical.has_value());
  int exponent = 0;
  EXPECT_EQ(std::frexp(canonical->time_scale, &exponent), 0.5);
}

// --- Broker replies across presentations. ----------------------------------

TEST(Broker, RelabeledDuplicateHitsCacheWithBitIdenticalFront) {
  Broker broker;
  SolveRequest request;
  request.instance = small_instance(21);
  request.objective = Objective::ParetoFront;

  const auto cold = broker.solve(request);
  ASSERT_TRUE(cold.has_value());
  EXPECT_FALSE(cold->cache_hit);

  std::vector<std::size_t> processor_order;
  SolveRequest dup = request;
  dup.instance = shuffled(request.instance, 77, &processor_order);
  const auto warm = broker.solve(dup);
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->canonical_hash, cold->canonical_hash);

  ASSERT_EQ(warm->front.size(), cold->front.size());
  for (std::size_t p = 0; p < cold->front.size(); ++p) {
    EXPECT_TRUE(bits_equal(warm->front[p].latency, cold->front[p].latency));
    EXPECT_TRUE(
        bits_equal(warm->front[p].failure_probability, cold->front[p].failure_probability));
    // Same replica groups once both are expressed in the base labeling.
    std::vector<std::vector<std::size_t>> cold_groups;
    for (const auto& assignment : cold->front[p].mapping.intervals()) {
      std::vector<std::size_t> group(assignment.processors.begin(), assignment.processors.end());
      cold_groups.push_back(std::move(group));
    }
    EXPECT_EQ(groups_in_base_labels(*warm, p, processor_order), cold_groups);
  }
  // The label-independent checksum agrees without any translation.
  EXPECT_EQ(front_checksum(warm->front), front_checksum(cold->front));
}

TEST(Broker, Pow2RescaledDuplicateHitsCacheWithExactLatencyRelation) {
  Broker broker;
  SolveRequest request;
  request.instance = small_instance(22);
  request.objective = Objective::MinFpForLatency;
  request.threshold = kInf;

  const auto cold = broker.solve(request);
  ASSERT_TRUE(cold.has_value());

  const double time_factor = 8.0;
  SolveRequest dup = request;
  dup.instance = request.instance.scaled(2.0, 0.5, time_factor);
  // The latency cap is in caller units; rescale it with the instance.
  // (infinity stays infinity.)
  const auto warm = broker.solve(dup);
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(warm->cache_hit);
  // Rescaled clock: latencies divide by time_factor, exactly.
  EXPECT_TRUE(bits_equal(warm->best().latency, cold->best().latency / time_factor));
  EXPECT_TRUE(bits_equal(warm->best().failure_probability, cold->best().failure_probability));
  EXPECT_EQ(warm->best().mapping, cold->best().mapping);
}

TEST(Broker, WarmReplyIsBitIdenticalToCold) {
  for (const Objective objective :
       {Objective::MinFpForLatency, Objective::MinLatencyForFp, Objective::ParetoFront}) {
    Broker broker;
    SolveRequest request;
    request.instance = small_instance(23);
    request.objective = objective;
    request.threshold = objective == Objective::MinLatencyForFp ? 1.0 : kInf;

    const auto cold = broker.solve(request);
    ASSERT_TRUE(cold.has_value());
    EXPECT_FALSE(cold->cache_hit);
    const auto warm = broker.solve(request);
    ASSERT_TRUE(warm.has_value());
    EXPECT_TRUE(warm->cache_hit);

    EXPECT_EQ(warm->algorithm, cold->algorithm);
    EXPECT_EQ(warm->exact, cold->exact);
    ASSERT_EQ(warm->front.size(), cold->front.size());
    for (std::size_t p = 0; p < cold->front.size(); ++p) {
      EXPECT_TRUE(bits_equal(warm->front[p].latency, cold->front[p].latency));
      EXPECT_TRUE(
          bits_equal(warm->front[p].failure_probability, cold->front[p].failure_probability));
      EXPECT_EQ(warm->front[p].mapping, cold->front[p].mapping);
    }
    EXPECT_EQ(front_checksum(warm->front), front_checksum(cold->front));
  }
}

TEST(Broker, SingleObjectiveRepliesCarryOnePoint) {
  Broker broker;
  SolveRequest request;
  request.instance = small_instance(24);
  request.objective = Objective::MinLatencyForFp;
  request.threshold = 1.0;
  const auto reply = broker.solve(request);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->front.size(), 1U);
  EXPECT_TRUE(reply->exact);  // 4 stages x 4 processors fits the auto budget
  EXPECT_GT(reply->best().latency, 0.0);
}

// --- Batch dedup + ticket queue. -------------------------------------------

TEST(Broker, BatchDedupesEqualRequestsOntoOneSolve) {
  Broker broker;
  const InstanceData base = small_instance(25);
  std::vector<SolveRequest> batch;
  for (std::uint64_t r = 0; r < 6; ++r) {
    SolveRequest request;
    request.instance = r == 0 ? base : shuffled(base, 900 + r);
    request.objective = Objective::ParetoFront;
    request.priority = static_cast<int>(r % 2);
    batch.push_back(std::move(request));
  }
  const auto replies = broker.solve_batch(batch);
  ASSERT_EQ(replies.size(), batch.size());
  std::size_t hits = 0;
  for (const auto& reply : replies) {
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->canonical_hash, replies.front()->canonical_hash);
    EXPECT_EQ(front_checksum(reply->front), front_checksum(replies.front()->front));
    hits += reply->cache_hit ? 1 : 0;
  }
  EXPECT_EQ(hits, batch.size() - 1);  // one cold lead, everyone else warm
  const CacheStats stats = broker.cache_stats();
  EXPECT_EQ(stats.misses, 1U);
  EXPECT_EQ(stats.hits, batch.size() - 1);
  EXPECT_EQ(stats.entries, 1U);
}

TEST(Broker, SubmitDrainPreservesOrderAndTickets) {
  Broker broker;
  SolveRequest request;
  request.instance = small_instance(26);
  request.objective = Objective::MinFpForLatency;
  request.threshold = kInf;
  const std::uint64_t first = broker.submit(request);
  request.priority = 5;
  const std::uint64_t second = broker.submit(request);
  EXPECT_EQ(broker.pending(), 2U);
  const auto drained = broker.drain();
  EXPECT_EQ(broker.pending(), 0U);
  ASSERT_EQ(drained.size(), 2U);
  EXPECT_EQ(drained[0].id, first);
  EXPECT_EQ(drained[1].id, second);
  ASSERT_TRUE(drained[0].reply.has_value());
  ASSERT_TRUE(drained[1].reply.has_value());
  EXPECT_TRUE(drained.back().reply->cache_hit);  // same instance+knobs = one key
  EXPECT_TRUE(broker.drain().empty());
}

// --- Malformed-request hardening. ------------------------------------------

SolveRequest valid_request() {
  SolveRequest request;
  request.instance = small_instance(27, 3, 3);
  request.objective = Objective::MinFpForLatency;
  request.threshold = kInf;
  return request;
}

void expect_error(Broker& broker, const SolveRequest& request, const std::string& code) {
  const auto reply = broker.solve(request);
  ASSERT_FALSE(reply.has_value());
  EXPECT_EQ(reply.error().code, code);
}

TEST(Broker, MalformedRequestsYieldStructuredErrors) {
  Broker broker;

  SolveRequest request = valid_request();
  request.instance.stages.clear();
  expect_error(broker, request, "malformed");

  request = valid_request();
  request.instance.processors.clear();
  expect_error(broker, request, "malformed");

  request = valid_request();
  request.instance.stages[1].position = request.instance.stages[0].position;
  expect_error(broker, request, "malformed");

  request = valid_request();
  request.instance.stages[2].position = 99;
  expect_error(broker, request, "malformed");

  request = valid_request();
  request.instance.stages[0].work = std::nan("");
  expect_error(broker, request, "malformed");

  request = valid_request();
  request.instance.stages[0].work = -1.0;
  expect_error(broker, request, "malformed");

  request = valid_request();
  request.instance.processors[1].failure_prob = 1.5;
  expect_error(broker, request, "malformed");

  request = valid_request();
  request.instance.processors[0].speed = 0.0;
  expect_error(broker, request, "malformed");

  request = valid_request();
  request.instance.processors[2].links.pop_back();
  expect_error(broker, request, "malformed");

  request = valid_request();
  request.threshold = std::nan("");
  expect_error(broker, request, "malformed");

  request = valid_request();
  request.max_evaluations = 0;
  expect_error(broker, request, "malformed");

  request = valid_request();
  request.objective = Objective::ParetoFront;
  request.pareto_thresholds = 1;
  expect_error(broker, request, "malformed");
}

TEST(Broker, InfeasibleAndOversizedRequestsRejectGracefully) {
  BrokerOptions options;
  options.max_stages = 4;
  options.max_processors = 4;
  Broker broker(options);

  SolveRequest request = valid_request();
  request.threshold = -1.0;
  expect_error(broker, request, "infeasible");

  // An FP cap of 0 on a platform whose processors all fail sometimes.
  request = valid_request();
  request.objective = Objective::MinLatencyForFp;
  request.threshold = 0.0;
  expect_error(broker, request, "infeasible");

  request = valid_request();
  request.instance = small_instance(28, 6, 3);
  expect_error(broker, request, "oversized");

  request = valid_request();
  request.instance = small_instance(29, 3, 6);
  expect_error(broker, request, "oversized");

  // Forced exhaustive with a budget of 1 candidate: fails fast, not cached.
  request = valid_request();
  request.method = algorithms::Method::Exhaustive;
  request.max_evaluations = 1;
  expect_error(broker, request, "budget");
  EXPECT_EQ(broker.cache_stats().entries, 0U);
}

// --- FrontCache unit behavior. ---------------------------------------------

std::shared_ptr<const algorithms::FrontReport> dummy_report(const std::string& tag) {
  auto report = std::make_shared<algorithms::FrontReport>();
  report->algorithm = tag;
  return report;
}

TEST(FrontCache, LruEvictionAndCounters) {
  FrontCache::Options options;
  options.capacity = 2;
  options.shards = 1;
  FrontCache cache(options);

  cache.insert(1, "a", dummy_report("a"));
  cache.insert(2, "b", dummy_report("b"));
  ASSERT_NE(cache.find(1, "a"), nullptr);  // touch "a": "b" becomes LRU
  cache.insert(3, "c", dummy_report("c"));

  EXPECT_EQ(cache.find(2, "b"), nullptr);  // evicted
  ASSERT_NE(cache.find(1, "a"), nullptr);
  ASSERT_NE(cache.find(3, "c"), nullptr);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1U);
  EXPECT_EQ(stats.hits, 3U);
  EXPECT_EQ(stats.misses, 1U);
  EXPECT_EQ(stats.entries, 2U);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.75);

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0U);
  EXPECT_EQ(cache.stats().evictions, 1U);  // counters describe traffic
}

TEST(FrontCache, HashCollisionsResolveByFullKey) {
  FrontCache cache;
  cache.insert(42, "left", dummy_report("left"));
  cache.insert(42, "right", dummy_report("right"));
  const auto left = cache.find(42, "left");
  const auto right = cache.find(42, "right");
  ASSERT_NE(left, nullptr);
  ASSERT_NE(right, nullptr);
  EXPECT_EQ(left->algorithm, "left");
  EXPECT_EQ(right->algorithm, "right");
  EXPECT_EQ(cache.find(42, "missing"), nullptr);
}

// --- Overload hardening: deadlines, shedding, graceful drain. ---------------

TEST(Broker, DeadlineSemanticsPinned) {
  Broker broker;

  // Deadlines are seconds of wall-clock budget. NaN and negative values are
  // malformed — rejected at admission, never "expired".
  SolveRequest request = valid_request();
  request.deadline = std::numeric_limits<double>::quiet_NaN();
  expect_error(broker, request, "malformed");
  request.deadline = -1.0;
  expect_error(broker, request, "malformed");
  EXPECT_EQ(broker.metrics().deadline_exceeded_total.value(), 0U);

  // A zero budget is deterministically spent at dispatch: rejected before
  // any solving happens.
  request = valid_request();
  request.deadline = 0.0;
  expect_error(broker, request, "deadline-exceeded");
  EXPECT_EQ(broker.metrics().deadline_exceeded_total.value(), 1U);
  EXPECT_EQ(broker.metrics().solves_total.value(), 0U);

  // The default (+inf) never expires.
  request.deadline = kInf;
  const auto reply = broker.solve(request);
  ASSERT_TRUE(reply.has_value());
}

TEST(Broker, QueuedDeadlineEnforcedAtDequeue) {
  Broker broker;
  SolveRequest request = valid_request();
  request.deadline = 0.0;
  const std::uint64_t expired = broker.submit(request);
  request.deadline = 3600.0;  // queue waits are microseconds here
  const std::uint64_t alive = broker.submit(request);
  const auto drained = broker.drain();
  ASSERT_EQ(drained.size(), 2U);
  EXPECT_EQ(drained[0].id, expired);
  ASSERT_FALSE(drained[0].reply.has_value());
  EXPECT_EQ(drained[0].reply.error().code, "deadline-exceeded");
  EXPECT_EQ(drained[1].id, alive);
  EXPECT_TRUE(drained[1].reply.has_value());
}

TEST(Broker, SpentDeadlineOutranksAdmissionErrorOnEveryEntryPoint) {
  // Admission runs on the caller's thread before the ticket is queued, but
  // the dequeue-time deadline check still answers first: an oversized
  // request with no budget left is "deadline-exceeded", and its admission
  // outcome is never counted.
  BrokerOptions options;
  options.max_stages = 2;
  Broker broker(options);
  SolveRequest request = valid_request();  // 3 stages: oversized here
  request.deadline = 0.0;

  const auto batched = broker.solve_batched(request);
  ASSERT_FALSE(batched.has_value());
  EXPECT_EQ(batched.error().code, "deadline-exceeded");

  const std::uint64_t id = broker.submit(request);
  const auto drained = broker.drain();
  ASSERT_EQ(drained.size(), 1U);
  EXPECT_EQ(drained[0].id, id);
  ASSERT_FALSE(drained[0].reply.has_value());
  EXPECT_EQ(drained[0].reply.error().code, "deadline-exceeded");

  expect_error(broker, request, "deadline-exceeded");

  EXPECT_EQ(broker.metrics().deadline_exceeded_total.value(), 3U);
  EXPECT_EQ(broker.metrics().rejected_total.value(), 0U);
  EXPECT_EQ(broker.metrics().canonicalize.count(), 0U);

  // With budget left, the same request reports its admission error.
  request.deadline = kInf;
  const auto oversized = broker.solve_batched(request);
  ASSERT_FALSE(oversized.has_value());
  EXPECT_EQ(oversized.error().code, "oversized");
  EXPECT_EQ(broker.metrics().rejected_total.value(), 1U);
  EXPECT_EQ(broker.metrics().canonicalize.count(), 0U);
}

TEST(Broker, ShedTicketsLeaveAdmissionMetricsUntouched) {
  BrokerOptions options;
  options.queue_high_watermark = 2;
  options.queue_low_watermark = 1;
  Broker broker(options);

  SolveRequest malformed = valid_request();
  malformed.max_evaluations = 0;
  const std::uint64_t shed_malformed = broker.submit(malformed);
  const std::uint64_t shed_valid = broker.submit(valid_request());
  SolveRequest urgent = valid_request();
  urgent.priority = 5;
  const std::uint64_t kept = broker.submit(urgent);
  EXPECT_EQ(broker.pending(), 1U);
  EXPECT_EQ(broker.metrics().shed_total.value(), 2U);

  const auto drained = broker.drain();
  ASSERT_EQ(drained.size(), 3U);
  EXPECT_EQ(drained[0].id, shed_malformed);
  EXPECT_EQ(drained[1].id, shed_valid);
  EXPECT_EQ(drained[2].id, kept);
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_FALSE(drained[i].reply.has_value());
    EXPECT_EQ(drained[i].reply.error().code, "overloaded");
  }
  EXPECT_TRUE(drained[2].reply.has_value());
  // Only the dispatched ticket is counted: the shed malformed one was
  // admitted (and refused) on its caller's thread, but never dispatched.
  EXPECT_EQ(broker.metrics().rejected_total.value(), 0U);
  EXPECT_EQ(broker.metrics().canonicalize.count(), 1U);
}

TEST(Broker, WatermarkSheddingDropsLowestPriorityFirst) {
  BrokerOptions options;
  options.queue_high_watermark = 4;
  options.queue_low_watermark = 2;
  Broker broker(options);

  std::vector<std::uint64_t> ids;
  for (int p = 0; p < 5; ++p) {
    SolveRequest request = valid_request();
    request.priority = p;  // later submissions are *more* important
    ids.push_back(broker.submit(request));
  }
  // The fifth submit crossed the high watermark: shed down to the low one,
  // lowest priorities first, so the two most important tickets survive.
  EXPECT_EQ(broker.pending(), 2U);
  EXPECT_EQ(broker.metrics().shed_total.value(), 3U);

  const auto drained = broker.drain();
  ASSERT_EQ(drained.size(), 5U);
  for (std::size_t i = 0; i < drained.size(); ++i) EXPECT_EQ(drained[i].id, ids[i]);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_FALSE(drained[i].reply.has_value()) << "priority " << i << " should be shed";
    EXPECT_EQ(drained[i].reply.error().code, "overloaded");
  }
  for (std::size_t i = 3; i < 5; ++i) {
    EXPECT_TRUE(drained[i].reply.has_value()) << "priority " << i << " should survive";
  }
}

TEST(Broker, GracefulShutdownRefusesNewWorkButDrainsQueued) {
  Broker broker;
  SolveRequest request = valid_request();
  const std::uint64_t queued = broker.submit(request);

  broker.begin_shutdown();
  EXPECT_TRUE(broker.shutting_down());

  // New work refuses with "shutting-down" on every entry point...
  expect_error(broker, request, "shutting-down");
  ASSERT_FALSE(broker.solve_batched(request).has_value());
  EXPECT_EQ(broker.solve_batched(request).error().code, "shutting-down");
  const std::uint64_t late = broker.submit(request);

  // ...while the pre-shutdown ticket still drains to a real reply.
  const auto drained = broker.drain();
  ASSERT_EQ(drained.size(), 2U);
  EXPECT_EQ(drained[0].id, queued);
  EXPECT_TRUE(drained[0].reply.has_value());
  EXPECT_EQ(drained[1].id, late);
  ASSERT_FALSE(drained[1].reply.has_value());
  EXPECT_EQ(drained[1].reply.error().code, "shutting-down");
}

// --- solve_batched: the concurrent sessions' entry point. -------------------

TEST(Broker, SolveBatchedMatchesDirectSolveBitIdentically) {
  Broker direct_broker;
  Broker batched_broker;
  SolveRequest request = valid_request();
  request.objective = Objective::ParetoFront;
  const auto direct = direct_broker.solve(request);
  const auto batched = batched_broker.solve_batched(request);
  ASSERT_TRUE(direct.has_value());
  ASSERT_TRUE(batched.has_value());
  ASSERT_EQ(direct->front.size(), batched->front.size());
  for (std::size_t i = 0; i < direct->front.size(); ++i) {
    EXPECT_TRUE(bits_equal(direct->front[i].latency, batched->front[i].latency));
    EXPECT_TRUE(
        bits_equal(direct->front[i].failure_probability, batched->front[i].failure_probability));
  }
  EXPECT_EQ(batched_broker.pending(), 0U);
  EXPECT_TRUE(batched_broker.drain().empty());
}

TEST(Broker, ConcurrentSolveBatchedCoalescesOntoOneSolve) {
  Broker broker;
  const InstanceData base = small_instance(31);
  constexpr std::size_t kSessions = 8;
  std::vector<std::optional<util::Expected<Reply>>> replies(kSessions);
  {
    std::vector<std::thread> sessions;
    sessions.reserve(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) {
      sessions.emplace_back([&, s] {
        SolveRequest request;
        // Different presentations of one instance: they canonicalize onto
        // one key, so whichever session drains first solves for everyone.
        request.instance = s == 0 ? base : shuffled(base, 4000 + s);
        request.objective = Objective::ParetoFront;
        replies[s].emplace(broker.solve_batched(request));
      });
    }
    for (std::thread& session : sessions) session.join();
  }
  ASSERT_TRUE(replies[0]->has_value()) << replies[0]->error().to_string();
  const std::uint64_t checksum = front_checksum(replies[0]->value().front);
  for (std::size_t s = 1; s < kSessions; ++s) {
    ASSERT_TRUE(replies[s]->has_value()) << replies[s]->error().to_string();
    EXPECT_EQ(front_checksum(replies[s]->value().front), checksum);
  }
  // Dedup/caching collapse all eight sessions onto exactly one solve.
  EXPECT_EQ(broker.metrics().solves_total.value(), 1U);
  EXPECT_EQ(broker.metrics().requests_total.value(), kSessions);
}

// --- The hit fast path and prepared instances. ------------------------------

TEST(Broker, SolveBatchedHitReturnsWhileAMissIsStalledMidSolve) {
  faultpoint::clear();
  Broker broker;
  const SolveRequest cached = valid_request();
  const auto cold = broker.solve(cached);
  ASSERT_TRUE(cold.has_value());

  faultpoint::ArmOptions stall;
  stall.value = 1.0;  // seconds the miss below sleeps inside its solve
  faultpoint::arm("broker.solve_stall", stall);
  std::atomic<bool> miss_done{false};
  std::thread miss([&] {
    SolveRequest request = valid_request();
    request.instance = small_instance(41, 3, 3);
    EXPECT_TRUE(broker.solve_batched(request).has_value());
    miss_done.store(true);
  });
  // Once the miss is stalled mid-solve (its caller is the queue's drainer),
  // a cached key is answered on this thread without waiting for it.
  while (faultpoint::hits("broker.solve_stall") == 0) std::this_thread::yield();
  const auto start = std::chrono::steady_clock::now();
  const auto hit = broker.solve_batched(cached);
  const std::chrono::duration<double> waited = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(miss_done.load());
  EXPECT_LT(waited.count(), 0.5);
  miss.join();
  faultpoint::clear();

  ASSERT_TRUE(hit.has_value()) << hit.error().to_string();
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->spans.queue_wait_seconds, 0.0);
  ASSERT_EQ(hit->front.size(), cold->front.size());
  for (std::size_t i = 0; i < cold->front.size(); ++i) {
    EXPECT_TRUE(bits_equal(hit->front[i].latency, cold->front[i].latency));
    EXPECT_TRUE(bits_equal(hit->front[i].failure_probability, cold->front[i].failure_probability));
  }
  EXPECT_EQ(broker.metrics().solves_total.value(), 2U);
  // The hit never queued: no queue-wait sample, no batch.
  EXPECT_EQ(broker.metrics().queue_wait.count(), 1U);
  EXPECT_EQ(broker.metrics().batches_total.value(), 2U);
}

TEST(Broker, CachedKeyStillAnswersShutdownAndSpentDeadlines) {
  faultpoint::clear();
  Broker broker;
  SolveRequest request = valid_request();
  ASSERT_TRUE(broker.solve(request).has_value());
  const std::uint64_t warm_hits = broker.cache_stats().hits;

  // A spent budget outranks the cached answer: deadline 0...
  request.deadline = 0.0;
  auto reply = broker.solve_batched(request);
  ASSERT_FALSE(reply.has_value());
  EXPECT_EQ(reply.error().code, "deadline-exceeded");

  // ...and a budget the skewed clock has spent.
  faultpoint::ArmOptions skew;
  skew.times = std::numeric_limits<std::uint64_t>::max();
  skew.value = 3600.0;
  faultpoint::arm("broker.clock_skew", skew);
  request.deadline = 60.0;
  reply = broker.solve_batched(request);
  faultpoint::clear();
  ASSERT_FALSE(reply.has_value());
  EXPECT_EQ(reply.error().code, "deadline-exceeded");
  EXPECT_EQ(broker.metrics().deadline_exceeded_total.value(), 2U);
  EXPECT_EQ(broker.cache_stats().hits, warm_hits);

  // With budget left the same key hits.
  reply = broker.solve_batched(request);
  ASSERT_TRUE(reply.has_value()) << reply.error().to_string();
  EXPECT_TRUE(reply->cache_hit);

  broker.begin_shutdown();
  request.deadline = kInf;
  reply = broker.solve_batched(request);
  ASSERT_FALSE(reply.has_value());
  EXPECT_EQ(reply.error().code, "shutting-down");
  EXPECT_EQ(broker.metrics().solves_total.value(), 1U);
}

TEST(Broker, SolveBatchedCountsOneHitOrMissPerRequest) {
  Broker broker;
  std::vector<InstanceData> bases;
  for (std::uint64_t i = 0; i < 4; ++i) bases.push_back(small_instance(50 + i, 3, 3));
  const auto request_for = [](const InstanceData& instance) {
    SolveRequest request;
    request.instance = instance;
    request.objective = Objective::ParetoFront;
    return request;
  };
  // Two of the four keys are cached before the mix starts.
  for (std::size_t i = 0; i < 2; ++i) ASSERT_TRUE(broker.solve(request_for(bases[i])).has_value());
  const CacheStats before = broker.cache_stats();
  const ServiceMetrics& m = broker.metrics();
  const std::uint64_t requests_before = m.requests_total.value();
  const std::uint64_t solves_before = m.solves_total.value();

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kCalls = 12;
  std::atomic<std::uint64_t> hit_replies{0};
  std::atomic<std::uint64_t> rejected{0};
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t c = 0; c < kCalls; ++c) {
          SolveRequest request = request_for(shuffled(bases[(t + c) % bases.size()], 100 * t + c));
          if (c % 6 == 5) request.max_evaluations = 0;  // refused at admission
          const auto reply = broker.solve_batched(request);
          if (!reply.has_value()) {
            EXPECT_EQ(reply.error().code, "malformed");
            rejected.fetch_add(1);
          } else if (reply->cache_hit) {
            hit_replies.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  const CacheStats after = broker.cache_stats();
  const std::uint64_t calls = kThreads * kCalls;
  EXPECT_EQ(rejected.load(), kThreads * 2);
  EXPECT_EQ((after.hits - before.hits) + (after.misses - before.misses), calls - rejected.load());
  EXPECT_EQ(after.hits - before.hits, hit_replies.load());
  EXPECT_EQ(m.requests_total.value() - requests_before, calls);
  // One solve per key that was not cached, however the calls interleave.
  EXPECT_EQ(m.solves_total.value() - solves_before, 2U);
}

TEST(Broker, PreparedAndRawRequestsAdmitAlike) {
  BrokerOptions options;
  options.max_stages = 4;
  options.max_processors = 4;
  Broker broker(options);

  std::vector<SolveRequest> requests;
  requests.push_back(valid_request());
  requests.push_back(valid_request());
  requests.back().objective = Objective::ParetoFront;
  requests.push_back(valid_request());
  requests.back().instance = small_instance(28, 6, 3);  // oversized stages
  requests.push_back(requests.back());
  requests.back().max_evaluations = 0;  // oversized outranks the knob
  requests.push_back(valid_request());
  requests.back().instance = small_instance(29, 3, 6);  // oversized processors
  requests.push_back(valid_request());
  requests.back().instance.stages[1].position = 0;  // malformed instance
  requests.push_back(requests.back());
  requests.back().max_evaluations = 0;  // the knob outranks the instance
  requests.push_back(requests.back());
  requests.back().max_evaluations = 1'000;
  requests.back().threshold = -1.0;
  requests.push_back(valid_request());
  requests.back().instance = InstanceData{};
  requests.push_back(valid_request());
  requests.back().threshold = std::nan("");

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto raw = broker.solve(requests[i]);
    SolveRequest prepared = requests[i];
    prepared.prepared = broker.prepare(prepared.instance);
    prepared.instance = InstanceData{};
    const auto reused = broker.solve(prepared);
    ASSERT_EQ(raw.has_value(), reused.has_value()) << "request " << i;
    if (!raw.has_value()) {
      EXPECT_EQ(raw.error().code, reused.error().code) << "request " << i;
      EXPECT_EQ(raw.error().message, reused.error().message) << "request " << i;
      continue;
    }
    EXPECT_EQ(raw->canonical_hash, reused->canonical_hash);
    EXPECT_EQ(front_checksum(raw->front), front_checksum(reused->front));
    EXPECT_TRUE(reused->cache_hit);
  }

  // The caps read the record counts first: an instance they refuse is
  // never canonicalized.
  const std::uint64_t canonicalized = broker.metrics().prepare.count();
  const auto refused = broker.prepare(small_instance(30, 3, 6));
  ASSERT_FALSE(refused->canonical.has_value());
  EXPECT_EQ(refused->canonical.error().code, "oversized");
  EXPECT_EQ(refused->processors, 6U);
  EXPECT_EQ(broker.metrics().prepare.count(), canonicalized);
}

TEST(FrontCache, ReinsertRefreshesRecencyKeepsFirstValue) {
  FrontCache::Options options;
  options.capacity = 2;
  options.shards = 1;
  FrontCache cache(options);
  cache.insert(1, "a", dummy_report("first"));
  cache.insert(2, "b", dummy_report("b"));
  cache.insert(1, "a", dummy_report("second"));  // refresh, value kept
  cache.insert(3, "c", dummy_report("c"));       // evicts "b", not "a"
  ASSERT_NE(cache.find(1, "a"), nullptr);
  EXPECT_EQ(cache.find(1, "a")->algorithm, "first");
  EXPECT_EQ(cache.find(2, "b"), nullptr);
}

}  // namespace
}  // namespace relap::service
