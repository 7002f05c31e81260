#include "relap/service/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <unordered_set>
#include <utility>

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

util::Expected<algorithms::FrontReport> decode_front(ByteReader& reader, std::size_t entry_index,
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
    if (interval_count == 0) return corrupt("front point with zero intervals" + at);

    // Re-validate every structural invariant IntervalMapping's constructor
    // asserts; a snapshot is runtime input and must never be able to abort.
    std::vector<mapping::IntervalAssignment> intervals;
    intervals.reserve(static_cast<std::size_t>(interval_count));
    std::unordered_set<platform::ProcessorId> seen;
    std::uint64_t next_stage = 0;
    for (std::uint64_t j = 0; j < interval_count; ++j) {
      std::uint64_t first = 0;
      std::uint64_t last = 0;
      std::uint64_t group_size = 0;
      if (!reader.read_u64_le(first) || !reader.read_u64_le(last) ||
          !read_count(reader, 8, group_size)) {
        return corrupt("truncated interval" + at);
      }
      if (first != next_stage || last < first) {
        return corrupt("non-consecutive interval structure" + at);
      }
      next_stage = last + 1;
      if (group_size == 0) return corrupt("empty replica group" + at);
      std::vector<platform::ProcessorId> group;
      group.reserve(static_cast<std::size_t>(group_size));
      for (std::uint64_t k = 0; k < group_size; ++k) {
        std::uint64_t id = 0;
        if (!reader.read_u64_le(id)) return corrupt("truncated replica group" + at);
        if (!group.empty() && id <= group.back()) {
          return corrupt("replica group not strictly ascending" + at);
        }
        if (!seen.insert(static_cast<platform::ProcessorId>(id)).second) {
          return corrupt("replica groups not disjoint" + at);
        }
        group.push_back(static_cast<platform::ProcessorId>(id));
      }
      intervals.push_back(mapping::IntervalAssignment{
          {static_cast<std::size_t>(first), static_cast<std::size_t>(last)}, std::move(group)});
    }
    report.front.push_back(algorithms::ParetoSolution{
        latency, failure_probability, mapping::IntervalMapping(std::move(intervals))});
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
  entry.key = std::string(key);
  util::Expected<algorithms::FrontReport> front = decode_front(reader, entry_index, error_code);
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

  // Crash-safe commit: write <path>.tmp, fsync its *data* to disk, rename
  // over the destination, then fsync the containing directory so the rename
  // itself is durable. Without the fsyncs a crash shortly after "success"
  // can leave a zero-length or torn file under the committed name — the
  // rename persists before the data does. Every step has a fault point
  // (service/faultpoint.hpp) so the failure paths are actually tested.
  const std::string temp = path + ".tmp";
  const int fd = faultpoint::should_fail("snapshot.open")
                     ? -1
                     : ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return util::make_error("io", "cannot open '" + temp + "' for writing");
  }
  bool ok = !faultpoint::should_fail("snapshot.write") && util::fs::write_all(fd, bytes);
  if (ok && (faultpoint::should_fail("snapshot.fsync") || ::fsync(fd) != 0)) ok = false;
  if (::close(fd) != 0) ok = false;
  if (!ok) {
    std::remove(temp.c_str());
    return util::make_error("io", "write to '" + temp + "' failed");
  }
  if (faultpoint::should_fail("snapshot.rename") ||
      std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return util::make_error("io", "cannot rename '" + temp + "' to '" + path + "'");
  }
  // Directory fsync failures are reported, not rolled back: the data file is
  // already committed by name, just not yet guaranteed durable.
  if (!util::fs::fsync_parent_directory(path)) {
    return util::make_error("io", "fsync of directory '" + util::fs::parent_directory(path) +
                                      "' failed after the rename");
  }
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
