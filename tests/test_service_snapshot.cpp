// Tests for service/snapshot.hpp: cache snapshots round-trip bit-exactly
// (including under LRU eviction pressure), warm-from-snapshot replies are
// bit-identical to same-process warm replies, a snapshot is byte for byte a
// sealed journal, and truncated / corrupted / unsealed / miscounted /
// version-mismatched snapshot files are rejected with structured errors —
// never an assert, because a snapshot is runtime input.

#include "relap/service/snapshot.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/service/broker.hpp"
#include "relap/service/canonical.hpp"
#include "relap/service/journal.hpp"
#include "relap/util/bytes.hpp"
#include "relap/util/hash.hpp"

namespace relap::service {
namespace {

InstanceData small_instance(std::uint64_t seed, std::size_t stages = 4,
                            std::size_t processors = 4) {
  const auto pipe = gen::random_uniform_pipeline(stages, seed);
  gen::PlatformGenOptions options;
  options.processors = processors;
  const auto plat = gen::random_fully_heterogeneous(options, seed + 1);
  return InstanceData::from(pipe, plat);
}

SolveRequest pareto_request(std::uint64_t seed) {
  SolveRequest request;
  request.instance = small_instance(seed);
  request.objective = Objective::ParetoFront;
  return request;
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_front(const Reply& a, const Reply& b) {
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_TRUE(bits_equal(a.front[i].latency, b.front[i].latency));
    EXPECT_TRUE(bits_equal(a.front[i].failure_probability, b.front[i].failure_probability));
    EXPECT_EQ(a.front[i].mapping.describe(), b.front[i].mapping.describe());
  }
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.canonical_hash, b.canonical_hash);
}

std::string temp_path(const char* tag) {
  return std::string(::testing::TempDir()) + "relap_snapshot_" + tag + ".bin";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- Codec round trips. -----------------------------------------------------

TEST(Snapshot, EncodeDecodeRoundTripsEntriesBitExactly) {
  Broker broker;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ASSERT_TRUE(broker.solve(pareto_request(seed)).has_value());
  }
  const std::string path = temp_path("roundtrip");
  const auto saved = broker.save_snapshot(path);
  ASSERT_TRUE(saved.has_value());
  EXPECT_EQ(saved->entries, 3U);

  const std::string bytes = read_file(path);
  EXPECT_EQ(bytes.size(), saved->bytes);
  const auto decoded = decode_snapshot(bytes);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 3U);
  // Decoded fronts carry the exact bit patterns and provenance.
  for (const FrontCache::ExportedEntry& entry : *decoded) {
    ASSERT_NE(entry.value, nullptr);
    EXPECT_FALSE(entry.value->front.empty());
    EXPECT_FALSE(entry.value->algorithm.empty());
  }
  // Re-encoding the decoded entries reproduces the file byte for byte.
  EXPECT_EQ(encode_snapshot(*decoded), bytes);
  std::remove(path.c_str());
}

TEST(Snapshot, RoundTripUnderEvictionPressure) {
  // A cache smaller than the workload: save/load must reproduce exactly the
  // surviving entries and their recency, not the full history.
  BrokerOptions options;
  options.cache.capacity = 4;
  options.cache.shards = 1;
  Broker broker(options);
  constexpr std::uint64_t kSeeds = 9;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ASSERT_TRUE(broker.solve(pareto_request(seed)).has_value());
  }
  const CacheStats before = broker.cache_stats();
  EXPECT_GT(before.evictions, 0U);
  EXPECT_LE(before.entries, 4U);

  const std::string path = temp_path("eviction");
  const auto saved = broker.save_snapshot(path);
  ASSERT_TRUE(saved.has_value());
  EXPECT_EQ(saved->entries, before.entries);

  Broker restored(options);
  const auto loaded = restored.load_snapshot(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->entries, before.entries);

  // The most recent `capacity` requests hit warm in the restored broker...
  for (std::uint64_t seed = kSeeds - 3; seed <= kSeeds; ++seed) {
    const auto warm = restored.solve(pareto_request(seed));
    ASSERT_TRUE(warm.has_value());
    EXPECT_TRUE(warm->cache_hit) << "seed " << seed;
  }
  // ...and recency survived the round trip: saving the restored cache
  // reproduces the original snapshot bytes exactly.
  const std::string path2 = temp_path("eviction2");
  ASSERT_TRUE(restored.save_snapshot(path2).has_value());
  EXPECT_EQ(read_file(path2), read_file(path));
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

// --- Warm-from-snapshot bit-identity. ---------------------------------------

TEST(Snapshot, WarmFromSnapshotMatchesSameProcessWarm) {
  Broker cold;
  std::vector<Reply> warm_replies;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ASSERT_TRUE(cold.solve(pareto_request(seed)).has_value());
    auto warm = cold.solve(pareto_request(seed));
    ASSERT_TRUE(warm.has_value());
    ASSERT_TRUE(warm->cache_hit);
    warm_replies.push_back(std::move(warm.value()));
  }
  const std::string path = temp_path("bitident");
  ASSERT_TRUE(cold.save_snapshot(path).has_value());

  Broker restarted;
  ASSERT_TRUE(restarted.load_snapshot(path).has_value());
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto reply = restarted.solve(pareto_request(seed));
    ASSERT_TRUE(reply.has_value());
    EXPECT_TRUE(reply->cache_hit);
    expect_same_front(*reply, warm_replies[seed - 1]);
  }
  std::remove(path.c_str());
}

// --- Rejection rules. -------------------------------------------------------

class SnapshotRejection : public ::testing::Test {
 protected:
  void SetUp() override {
    Broker broker;
    ASSERT_TRUE(broker.solve(pareto_request(7)).has_value());
    path_ = temp_path("reject");
    ASSERT_TRUE(broker.save_snapshot(path_).has_value());
    bytes_ = read_file(path_);
    ASSERT_FALSE(bytes_.empty());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Writes `bytes` to the snapshot path and loads it into a fresh broker,
  /// expecting the given error code and an untouched cache.
  void expect_rejected(const std::string& bytes, const std::string& code) {
    write_file(path_, bytes);
    Broker broker;
    const auto loaded = broker.load_snapshot(path_);
    ASSERT_FALSE(loaded.has_value()) << "unexpectedly accepted";
    EXPECT_EQ(loaded.error().code, code) << loaded.error().to_string();
    EXPECT_EQ(broker.cache_stats().entries, 0U);
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotRejection, MissingFileIsIoError) {
  Broker broker;
  const auto loaded = broker.load_snapshot(path_ + ".nope");
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, "io");
}

TEST_F(SnapshotRejection, WrongMagic) {
  std::string bytes = bytes_;
  bytes[0] ^= 0x5A;
  expect_rejected(bytes, "snapshot-version");
}

TEST_F(SnapshotRejection, WrongFormatVersion) {
  std::string bytes = bytes_;
  bytes[8] ^= 0x01;  // u32 version follows the 8-byte magic
  expect_rejected(bytes, "snapshot-version");
}

TEST_F(SnapshotRejection, WrongBuildStamp) {
  std::string bytes = bytes_;
  bytes[12] ^= 0x01;  // u64 build-stamp hash follows the version
  expect_rejected(bytes, "snapshot-version");
}

TEST_F(SnapshotRejection, EveryTruncationRejected) {
  // Every strict prefix must be rejected (header truncations read as
  // version errors, body truncations as corruption) — and never crash.
  for (std::size_t len = 0; len < bytes_.size(); len += 7) {
    write_file(path_, bytes_.substr(0, len));
    Broker broker;
    const auto loaded = broker.load_snapshot(path_);
    ASSERT_FALSE(loaded.has_value()) << "accepted a " << len << "-byte prefix";
    EXPECT_TRUE(loaded.error().code == "snapshot-corrupt" ||
                loaded.error().code == "snapshot-version")
        << loaded.error().to_string();
    EXPECT_EQ(broker.cache_stats().entries, 0U);
  }
}

TEST_F(SnapshotRejection, PayloadBitFlipFailsChecksum) {
  // Flip one bit in every section-payload region; the section checksum (or
  // a structural validation behind it) must catch each one.
  for (std::size_t pos = 24; pos < bytes_.size(); pos += 31) {
    std::string bytes = bytes_;
    bytes[pos] ^= 0x10;
    write_file(path_, bytes);
    Broker broker;
    const auto loaded = broker.load_snapshot(path_);
    if (loaded.has_value()) {
      // The flip landed in a section *header* length/checksum field that
      // still validated? Not possible: any header change breaks either the
      // checksum comparison or the framing. Reaching here means the flip
      // was silently absorbed — fail loudly.
      FAIL() << "bit flip at offset " << pos << " was accepted";
    }
    EXPECT_TRUE(loaded.error().code == "snapshot-corrupt" ||
                loaded.error().code == "snapshot-version")
        << "offset " << pos << ": " << loaded.error().to_string();
  }
}

TEST_F(SnapshotRejection, TrailingGarbageRejected) {
  expect_rejected(bytes_ + "extra", "snapshot-corrupt");
}

TEST_F(SnapshotRejection, IntactOpenJournalIsNotASnapshot) {
  // The same record behind an open header is an intact journal — replay
  // accepts it — but it was never sealed, so it is not a snapshot.
  const std::string open = encode_journal_header() + bytes_.substr(kJournalHeaderBytes);
  const auto replayed = decode_journal(open);
  ASSERT_TRUE(replayed.has_value()) << replayed.error().to_string();
  EXPECT_EQ(replayed->entries.size(), 1U);
  EXPECT_EQ(replayed->torn_records, 0U);
  expect_rejected(open, "snapshot-corrupt");
}

TEST_F(SnapshotRejection, VersionOneFilesReject) {
  // A format-v1 header in place of the v2 one.
  std::string v1_header = bytes_;
  v1_header[8] = '\x01';  // u32 version follows the 8-byte magic; v2 -> v1
  expect_rejected(v1_header, "snapshot-version");

  // A v1 write-ahead journal: 20-byte header (no sealed count), same records.
  std::string v1_journal = "relapjnl";
  util::bytes::append_u32_le(v1_journal, 1);
  util::bytes::append_u64_le(v1_journal, snapshot_build_stamp_hash());
  v1_journal += bytes_.substr(kJournalHeaderBytes);
  expect_rejected(v1_journal, "snapshot-version");

  // The v1 sectioned snapshot layout, with its own magic.
  std::string v1_sectioned = "relapsnp";
  util::bytes::append_u32_le(v1_sectioned, 1);
  util::bytes::append_u64_le(v1_sectioned, snapshot_build_stamp_hash());
  util::bytes::append_u32_le(v1_sectioned, 0);
  expect_rejected(v1_sectioned, "snapshot-version");
}

TEST_F(SnapshotRejection, EmptySnapshotOfNoEntriesStillLoads) {
  // Contrast case: a legitimate empty snapshot is fine.
  Broker empty;
  ASSERT_TRUE(empty.save_snapshot(path_).has_value());
  Broker broker;
  const auto loaded = broker.load_snapshot(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->entries, 0U);
}

// --- One format: a snapshot is a sealed journal. -----------------------------

TEST(SnapshotSeal, SavedBytesAreTheSealedHeaderThenOneJournalRecordPerEntry) {
  FrontCache cache;
  for (std::uint64_t i = 0; i < 3; ++i) {
    auto report = std::make_shared<algorithms::FrontReport>();
    report->front.push_back(algorithms::ParetoSolution{
        1.5 + static_cast<double>(i), 0.25,
        mapping::IntervalMapping::single_interval(3, {0, static_cast<platform::ProcessorId>(i + 1)})});
    report->algorithm = "seal-test";
    report->exact = i % 2 == 0;
    report->evaluations = i;
    std::string key = "key-" + std::to_string(i);
    const std::uint64_t hash = util::fnv1a(key);
    cache.insert(hash, std::move(key), std::move(report));
  }
  const std::string path = temp_path("sealed");
  const auto saved = save_snapshot(cache, path);
  ASSERT_TRUE(saved.has_value()) << saved.error().to_string();
  EXPECT_EQ(saved->entries, 3U);

  std::string expected = encode_journal_header(3);
  for (const FrontCache::ExportedEntry& entry : cache.export_entries()) {
    expected += encode_journal_record(entry);
  }
  const std::string bytes = read_file(path);
  EXPECT_EQ(bytes, expected);
  EXPECT_EQ(saved->bytes, bytes.size());
  std::remove(path.c_str());
}

TEST(SnapshotSeal, SealedCountRewrittenToItsNeighboursRejects) {
  Broker broker;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ASSERT_TRUE(broker.solve(pareto_request(seed)).has_value());
  }
  const std::string path = temp_path("count");
  ASSERT_TRUE(broker.save_snapshot(path).has_value());
  const std::string bytes = read_file(path);
  ASSERT_EQ(bytes.substr(0, kJournalHeaderBytes), encode_journal_header(3));
  const std::string records = bytes.substr(kJournalHeaderBytes);

  // n - 1 leaves a trailing record, n + 1 a missing one: both are damage.
  for (const std::uint64_t count : {std::uint64_t{2}, std::uint64_t{4}}) {
    write_file(path, encode_journal_header(count) + records);
    Broker restored;
    const auto loaded = restored.load_snapshot(path);
    ASSERT_FALSE(loaded.has_value()) << "accepted sealed count " << count;
    EXPECT_EQ(loaded.error().code, "snapshot-corrupt") << loaded.error().to_string();
    EXPECT_EQ(restored.cache_stats().entries, 0U);
  }
  std::remove(path.c_str());
}

// --- A front must fit the instance its key names. ----------------------------

/// A cache entry keyed on the canonical form of a 1-stage, 1-processor
/// instance, whose front is one point with `mapping`.
FrontCache::ExportedEntry one_by_one_entry(mapping::IntervalMapping mapping) {
  std::string key = canonicalize(small_instance(7, 1, 1)).value().key_bytes;
  auto report = std::make_shared<algorithms::FrontReport>();
  report->front.push_back(algorithms::ParetoSolution{1.0, 0.5, std::move(mapping)});
  report->algorithm = "fit-test";
  const std::uint64_t hash = util::fnv1a(key);
  return FrontCache::ExportedEntry{hash, std::move(key), std::move(report)};
}

TEST(SnapshotFit, FrontsThatDoNotFitTheirKeysInstanceAreRefusedAtLoadAndReplay) {
  const std::string snapshot_path = temp_path("fit");
  const std::string journal_path = temp_path("fit_journal");
  const mapping::IntervalMapping misfits[] = {
      mapping::IntervalMapping::single_interval(1, {7}),  // processor 7 of 1
      mapping::IntervalMapping::single_interval(2, {0}),  // 2 stages of 1
  };
  for (const mapping::IntervalMapping& misfit : misfits) {
    const FrontCache::ExportedEntry entry = one_by_one_entry(misfit);
    write_file(snapshot_path, encode_snapshot(std::span(&entry, 1)));
    Broker loaded;
    const auto load = loaded.load_snapshot(snapshot_path);
    ASSERT_FALSE(load.has_value()) << misfit.describe();
    EXPECT_EQ(load.error().code, "snapshot-corrupt") << load.error().to_string();
    EXPECT_NE(load.error().message.find("entry 0"), std::string::npos) << load.error().message;
    EXPECT_EQ(loaded.cache_stats().entries, 0U);

    // The same record as the (final) record of an open journal: it is
    // checksum-valid, so it is corruption rather than a torn tail.
    write_file(journal_path, encode_journal_header() + encode_journal_record(entry));
    Broker replayed;
    const auto replay = replayed.recover("", journal_path);
    ASSERT_FALSE(replay.has_value()) << misfit.describe();
    EXPECT_EQ(replay.error().code, "journal-corrupt") << replay.error().to_string();
    EXPECT_EQ(replayed.cache_stats().entries, 0U);
  }

  // Contrast case: the fitting front loads.
  const FrontCache::ExportedEntry fits =
      one_by_one_entry(mapping::IntervalMapping::single_interval(1, {0}));
  write_file(snapshot_path, encode_snapshot(std::span(&fits, 1)));
  Broker broker;
  const auto load = broker.load_snapshot(snapshot_path);
  ASSERT_TRUE(load.has_value()) << load.error().to_string();
  EXPECT_EQ(load->entries, 1U);
  std::remove(snapshot_path.c_str());
  std::remove(journal_path.c_str());
}

}  // namespace
}  // namespace relap::service
