#pragma once

/// \file snapshot.hpp
/// Persistence for the solved-front memo cache: a snapshot of (full cache
/// key bytes -> solved FrontReport), so a restarted broker starts warm
/// instead of cold.
///
/// A snapshot is a *sealed journal* (service/journal.hpp): the journal
/// header with its record count filled in, then one journal record per
/// cache entry in LRU -> MRU order. One header, one record frame and one
/// decoder serve snapshot load, journal replay and crash recovery. Each
/// record's payload is the cache entry codec below: the full key (u64 hash
/// + length-prefixed bytes — the canonical instance bytes plus the
/// solve-knob suffix the broker appends, see broker.hpp) followed by the
/// solved front (per point: the latency/FP bit patterns and the
/// interval/replica-group structure of the mapping), the producing
/// algorithm, its exactness flag and the evaluation count. All integers are
/// little-endian via util/bytes and doubles travel as IEEE-754 bit
/// patterns, so a round trip is bit-exact by construction. Keys are opaque
/// bytes to this codec: whatever knobs the broker keys on ride along
/// unchanged.
///
/// Rejection rules — every failure is a structured `util::Expected` error,
/// never an assert, because a snapshot file is runtime input:
///   * "io": unreadable/unwritable file;
///   * "snapshot-version": wrong magic, format version, or build stamp.
///     The build stamp names the solver result-stream generation — loading
///     a snapshot produced by an incompatible solver build would serve
///     fronts that a fresh solve of the same build would not produce,
///     silently breaking the warm == cold bit-identity contract, so it is
///     rejected outright;
///   * "snapshot-corrupt": an open (unsealed) journal or a torn header, a
///     record count that does not match the records present, any torn,
///     trailing or checksum-failing record, an entry whose stored hash does
///     not match its key bytes, or a front whose mapping structure is
///     invalid (the decoder re-validates every structural invariant
///     `mapping::IntervalMapping` asserts, *before* constructing one).
///
/// Saves are crash-safe: the snapshot is written to `<path>.tmp` and
/// renamed over `path` only after a successful flush, so a crash mid-save
/// leaves the previous snapshot intact.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "relap/service/cache.hpp"
#include "relap/util/bytes.hpp"
#include "relap/util/expected.hpp"

namespace relap::service {

/// Names the generation of solver result streams this build produces. Bump
/// whenever any cached solver's output for a given canonical instance can
/// change (algorithm changes, comparator changes, RNG scheme migrations in
/// the heuristics...). Snapshots carry its FNV-1a hash and load only into
/// builds with the same stamp.
[[nodiscard]] std::string_view snapshot_build_stamp();

/// FNV-1a of `snapshot_build_stamp()` — the value embedded in snapshots.
[[nodiscard]] std::uint64_t snapshot_build_stamp_hash();

struct SnapshotStats {
  std::size_t entries = 0;
  std::size_t bytes = 0;  ///< encoded snapshot size
};

/// Encodes one cache entry record — the payload of every journal record
/// (service/journal.hpp), sealed or open: u64 key hash, length-prefixed key
/// bytes, then the solved front.
void encode_cache_entry(std::string& out, const FrontCache::ExportedEntry& entry);

/// Decodes one cache entry record from `reader`, re-validating the key/hash
/// match and every mapping invariant. Failures carry `error_code`
/// ("snapshot-corrupt" or "journal-corrupt") and name `entry_index`.
[[nodiscard]] util::Expected<FrontCache::ExportedEntry> decode_cache_entry(
    util::bytes::ByteReader& reader, std::size_t entry_index, std::string_view error_code);

/// Serializes `entries` as a sealed journal: `encode_journal_header(n)`
/// followed by one `encode_journal_record` per entry, in order.
[[nodiscard]] std::string encode_snapshot(std::span<const FrontCache::ExportedEntry> entries);

/// `decode_journal(bytes, "snapshot")`, and the header must be sealed (see
/// rejection rules above). The returned entries preserve encoding order.
[[nodiscard]] util::Expected<std::vector<FrontCache::ExportedEntry>> decode_snapshot(
    std::string_view bytes);

/// Exports `cache` and writes the snapshot to `path` (crash-safe
/// temp-then-rename). Error code "io" on filesystem failure.
[[nodiscard]] util::Expected<SnapshotStats> save_snapshot(const FrontCache& cache,
                                                          const std::string& path);

/// Reads, validates and inserts a snapshot into `cache` (existing entries
/// with equal keys keep their cached value — both are bit-identical by
/// contract). The cache is untouched on any error.
[[nodiscard]] util::Expected<SnapshotStats> load_snapshot(FrontCache& cache,
                                                          const std::string& path);

}  // namespace relap::service
