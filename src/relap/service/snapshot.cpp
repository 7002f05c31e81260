#include "relap/service/snapshot.hpp"

#include <unistd.h>

#include <optional>
#include <utility>

#include "relap/io/instance_format.hpp"
#include "relap/mapping/validate.hpp"
#include "relap/service/faultpoint.hpp"
#include "relap/service/journal.hpp"
#include "relap/util/bytes.hpp"
#include "relap/util/fs.hpp"
#include "relap/util/hash.hpp"

namespace relap::service {

namespace {

using util::bytes::ByteReader;

void encode_front(std::string& out, const algorithms::FrontReport& report) {
  util::bytes::append_u64_le(out, report.front.size());
  for (const algorithms::ParetoSolution& point : report.front) {
    util::bytes::append_double_le(out, point.latency);
    util::bytes::append_double_le(out, point.failure_probability);
    util::bytes::append_u64_le(out, point.mapping.interval_count());
    for (const mapping::IntervalAssignment& assignment : point.mapping.intervals()) {
      util::bytes::append_u64_le(out, assignment.stages.first);
      util::bytes::append_u64_le(out, assignment.stages.last);
      util::bytes::append_u64_le(out, assignment.processors.size());
      for (const platform::ProcessorId id : assignment.processors) {
        util::bytes::append_u64_le(out, id);
      }
    }
  }
  util::bytes::append_bytes(out, report.algorithm);
  out.push_back(report.exact ? '\1' : '\0');
  util::bytes::append_u64_le(out, report.evaluations);
}

/// Reads a count that prefixes records of at least `min_record_bytes` each;
/// rejects counts the remaining payload cannot possibly hold, so corrupt
/// length fields fail cleanly instead of driving giant allocations.
bool read_count(ByteReader& reader, std::size_t min_record_bytes, std::uint64_t& out) {
  if (!reader.read_u64_le(out)) return false;
  return out <= reader.remaining() / min_record_bytes;
}

/// Decodes a front; each mapping must pass `make` and fit the key's `instance`.
util::Expected<algorithms::FrontReport> decode_front(ByteReader& reader,
                                                     const io::InstanceKeyCounts& instance,
                                                     std::size_t entry_index,
                                                     std::string_view error_code) {
  const std::string at = " (entry " + std::to_string(entry_index) + ")";
  const auto corrupt = [&](std::string message) {
    return util::make_error(std::string(error_code), std::move(message));
  };
  algorithms::FrontReport report;

  std::uint64_t point_count = 0;
  if (!read_count(reader, 24, point_count)) return corrupt("bad front point count" + at);
  report.front.reserve(static_cast<std::size_t>(point_count));
  for (std::uint64_t p = 0; p < point_count; ++p) {
    double latency = 0.0;
    double failure_probability = 0.0;
    std::uint64_t interval_count = 0;
    if (!reader.read_double_le(latency) || !reader.read_double_le(failure_probability) ||
        !read_count(reader, 24, interval_count)) {
      return corrupt("truncated front point" + at);
    }
    std::vector<mapping::IntervalAssignment> intervals;
    intervals.reserve(static_cast<std::size_t>(interval_count));
    for (std::uint64_t j = 0; j < interval_count; ++j) {
      std::uint64_t first = 0;
      std::uint64_t last = 0;
      std::uint64_t group_size = 0;
      if (!reader.read_u64_le(first) || !reader.read_u64_le(last) ||
          !read_count(reader, 8, group_size)) {
        return corrupt("truncated interval" + at);
      }
      std::vector<platform::ProcessorId> group;
      group.reserve(static_cast<std::size_t>(group_size));
      for (std::uint64_t k = 0; k < group_size; ++k) {
        std::uint64_t id = 0;
        if (!reader.read_u64_le(id)) return corrupt("truncated replica group" + at);
        // A format rule, not a model one: groups are stored sorted, so a
        // decoded entry re-encodes to the same bytes.
        if (!group.empty() && id <= group.back()) {
          return corrupt("replica group not strictly ascending" + at);
        }
        group.push_back(static_cast<platform::ProcessorId>(id));
      }
      intervals.push_back(mapping::IntervalAssignment{
          {static_cast<std::size_t>(first), static_cast<std::size_t>(last)}, std::move(group)});
    }
    util::Expected<mapping::IntervalMapping> mapping =
        mapping::IntervalMapping::make(std::move(intervals));
    if (!mapping) return corrupt("invalid mapping" + at + ": " + mapping.error().message);
    const util::Expected<mapping::Valid> fits =
        mapping::validate(instance.stages, instance.processors, *mapping);
    if (!fits) {
      return corrupt("front does not fit its key's instance" + at + ": " + fits.error().message);
    }
    report.front.push_back(
        algorithms::ParetoSolution{latency, failure_probability, std::move(mapping).take()});
  }

  std::string_view algorithm;
  if (!reader.read_bytes(algorithm)) return corrupt("truncated algorithm name" + at);
  report.algorithm = std::string(algorithm);
  std::string_view exact_byte;
  if (!reader.read_raw(1, exact_byte)) return corrupt("truncated exact flag" + at);
  if (exact_byte[0] != '\0' && exact_byte[0] != '\1') return corrupt("bad exact flag" + at);
  report.exact = exact_byte[0] == '\1';
  if (!reader.read_u64_le(report.evaluations)) return corrupt("truncated evaluation count" + at);
  return report;
}

}  // namespace

std::string_view snapshot_build_stamp() {
  // Names the solver result-stream generation, not the binary: two builds
  // of the same sources interchange snapshots, a build whose solvers
  // produce different streams must not.
  return "relap-solver-fronts-v1";
}

std::uint64_t snapshot_build_stamp_hash() { return util::fnv1a(snapshot_build_stamp()); }

void encode_cache_entry(std::string& out, const FrontCache::ExportedEntry& entry) {
  util::bytes::append_u64_le(out, entry.hash);
  util::bytes::append_bytes(out, entry.key);
  encode_front(out, *entry.value);
}

util::Expected<FrontCache::ExportedEntry> decode_cache_entry(util::bytes::ByteReader& reader,
                                                             std::size_t entry_index,
                                                             std::string_view error_code) {
  FrontCache::ExportedEntry entry;
  std::string_view key;
  if (!reader.read_u64_le(entry.hash) || !reader.read_bytes(key)) {
    return util::make_error(std::string(error_code),
                            "truncated entry " + std::to_string(entry_index));
  }
  if (util::fnv1a(key) != entry.hash) {
    return util::make_error(std::string(error_code),
                            "entry " + std::to_string(entry_index) + " key/hash mismatch");
  }
  const std::optional<io::InstanceKeyCounts> instance = io::read_instance_key_counts(key);
  if (!instance) {
    return util::make_error(std::string(error_code),
                            "entry " + std::to_string(entry_index) + " key names no instance");
  }
  entry.key = std::string(key);
  util::Expected<algorithms::FrontReport> front =
      decode_front(reader, *instance, entry_index, error_code);
  if (!front.has_value()) return front.error();
  entry.value = std::make_shared<const algorithms::FrontReport>(std::move(front).take());
  return entry;
}

std::string encode_snapshot(std::span<const FrontCache::ExportedEntry> entries) {
  std::string out = encode_journal_header(entries.size());
  for (const FrontCache::ExportedEntry& entry : entries) out += encode_journal_record(entry);
  return out;
}

util::Expected<std::vector<FrontCache::ExportedEntry>> decode_snapshot(std::string_view bytes) {
  util::Expected<JournalImage> image = decode_journal(bytes, "snapshot");
  if (!image.has_value()) return image.error();
  if (!image->sealed) {
    return util::make_error("snapshot-corrupt",
                            "not a sealed snapshot (an open journal, or a torn header)");
  }
  return std::move(image).take().entries;
}

util::Expected<SnapshotStats> save_snapshot(const FrontCache& cache, const std::string& path) {
  const std::vector<FrontCache::ExportedEntry> entries = cache.export_entries();
  const std::string bytes = encode_snapshot(entries);

  // Crash-safe commit (util/fs.hpp); every step has a fault point
  // (service/faultpoint.hpp) so the failure paths are actually tested.
  const util::fs::Committed committed =
      util::fs::commit_file(path, bytes, [](util::fs::CommitStep step) {
        static constexpr std::string_view kPoints[] = {"snapshot.open", "snapshot.write",
                                                       "snapshot.fsync", "snapshot.rename"};
        return faultpoint::should_fail(kPoints[static_cast<std::size_t>(step)]);
      });
  // The bytes are fsynced before the rename, so closing cannot lose them.
  if (committed.fd >= 0) ::close(committed.fd);
  if (committed.error) return *committed.error;
  return SnapshotStats{entries.size(), bytes.size()};
}

util::Expected<SnapshotStats> load_snapshot(FrontCache& cache, const std::string& path) {
  const util::Expected<std::string> bytes = util::fs::read_file(path);
  if (!bytes.has_value()) return bytes.error();
  util::Expected<std::vector<FrontCache::ExportedEntry>> entries = decode_snapshot(*bytes);
  if (!entries.has_value()) return entries.error();
  const std::size_t count = entries->size();
  for (FrontCache::ExportedEntry& entry : entries.value()) {
    cache.insert(entry.hash, std::move(entry.key), std::move(entry.value));
  }
  return SnapshotStats{count, bytes->size()};
}

}  // namespace relap::service
