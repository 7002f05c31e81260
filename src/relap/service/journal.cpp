#include "relap/service/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "relap/service/faultpoint.hpp"
#include "relap/service/snapshot.hpp"
#include "relap/util/bytes.hpp"
#include "relap/util/fs.hpp"
#include "relap/util/hash.hpp"

namespace relap::service {

namespace {

constexpr std::string_view kMagic = "relapjnl";

util::Error io_error(std::string message) { return util::make_error("io", std::move(message)); }

}  // namespace

std::string encode_journal_header(std::uint64_t sealed_count) {
  std::string out;
  out.reserve(kJournalHeaderBytes);
  out.append(kMagic);
  util::bytes::append_u32_le(out, kJournalFormatVersion);
  util::bytes::append_u64_le(out, snapshot_build_stamp_hash());
  util::bytes::append_u64_le(out, sealed_count);
  return out;
}

std::string encode_journal_record(const FrontCache::ExportedEntry& entry) {
  std::string payload;
  encode_cache_entry(payload, entry);
  std::string out;
  out.reserve(kJournalRecordFrameBytes + payload.size());
  util::bytes::append_u64_le(out, payload.size());
  util::bytes::append_u64_le(out, util::fnv1a(payload));
  out.append(payload);
  return out;
}

util::Expected<JournalImage> decode_journal(std::string_view bytes, std::string_view kind) {
  const std::string corrupt_code = std::string(kind) + "-corrupt";
  const auto corrupt = [&](std::string message) {
    return util::make_error(corrupt_code, std::move(message));
  };
  const auto version_mismatch = [&](std::string message) {
    return util::make_error(std::string(kind) + "-version", std::move(message));
  };

  // A fresh file, or one whose creation a crash tore inside the header,
  // replays as empty (open() rewrites the header); nothing is lost because
  // a record can only follow a complete header. Each header field that is
  // present is still checked, so an old-format header is refused rather
  // than silently rewritten.
  JournalImage image;
  util::bytes::ByteReader reader(bytes);
  std::string_view magic;
  std::uint32_t version = 0;
  std::uint64_t stamp = 0;
  std::uint64_t sealed_count = 0;
  if (!reader.read_raw(kMagic.size(), magic)) return image;
  if (magic != kMagic) return version_mismatch("not a relap " + std::string(kind) + " (bad magic)");
  if (!reader.read_u32_le(version)) return image;
  if (version != kJournalFormatVersion) {
    return version_mismatch(std::string(kind) + " format v" + std::to_string(version) +
                            ", this build reads v" + std::to_string(kJournalFormatVersion));
  }
  if (!reader.read_u64_le(stamp)) return image;
  if (stamp != snapshot_build_stamp_hash()) {
    return version_mismatch(std::string(kind) +
                            " was produced by an incompatible solver build (stamp mismatch); "
                            "re-solve instead of loading");
  }
  if (!reader.read_u64_le(sealed_count)) return image;
  image.sealed = sealed_count != kOpenJournal;
  image.valid_bytes = kJournalHeaderBytes;
  if (image.sealed) {
    // Bounded by what the bytes could hold, so a damaged count cannot drive
    // a giant allocation.
    image.entries.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(sealed_count, reader.remaining() / kJournalRecordFrameBytes)));
  }

  while (reader.remaining() > 0) {
    // Frame or payload running past end-of-file is the canonical crash
    // artifact: a torn tail, discarded without error.
    std::uint64_t size = 0;
    std::uint64_t checksum = 0;
    if (reader.remaining() < kJournalRecordFrameBytes) {
      image.torn_records = 1;
      break;
    }
    (void)reader.read_u64_le(size);
    (void)reader.read_u64_le(checksum);
    if (size > reader.remaining()) {
      image.torn_records = 1;
      break;
    }
    std::string_view payload;
    (void)reader.read_raw(static_cast<std::size_t>(size), payload);
    if (util::fnv1a(payload) != checksum) {
      if (reader.done()) {
        // Final record, checksum failed: the append itself was torn.
        image.torn_records = 1;
        break;
      }
      // Bytes follow, so this record's write completed — the file is
      // damaged, not merely torn.
      return corrupt("record " + std::to_string(image.entries.size()) + " checksum mismatch");
    }
    // Checksum-valid payloads must decode completely: a structural failure
    // here is corruption even at the tail (the write finished).
    util::bytes::ByteReader payload_reader(payload);
    util::Expected<FrontCache::ExportedEntry> entry =
        decode_cache_entry(payload_reader, image.entries.size(), corrupt_code);
    if (!entry.has_value()) return entry.error();
    if (!payload_reader.done()) {
      return corrupt("record " + std::to_string(image.entries.size()) +
                     " has trailing payload bytes");
    }
    image.entries.push_back(std::move(entry).take());
    image.valid_bytes = reader.cursor();
  }
  // A sealed log was written whole and renamed into place: anything but
  // exactly its count of intact records is damage, never a crash artifact.
  if (image.sealed && (image.torn_records != 0 || image.entries.size() != sealed_count)) {
    return corrupt("sealed " + std::string(kind) + " declares " + std::to_string(sealed_count) +
                   " records but holds " + std::to_string(image.entries.size()) +
                   (image.torn_records != 0 ? " and a torn tail" : ""));
  }
  return image;
}

Journal::Journal(std::string path, JournalOptions options, int fd, std::uint64_t file_bytes)
    : path_(std::move(path)), options_(options), fd_(fd) {
  stats_.file_bytes = file_bytes;
  stats_.synced_bytes = file_bytes;
}

Journal::~Journal() {
  if (fd_ >= 0) {
    // Clean shutdown leaves the tail durable on a best-effort basis; the
    // group-commit loss bound only applies to crashes.
    if (!wedged_) (void)::fsync(fd_);
    ::close(fd_);
  }
}

util::Expected<Journal::Opened> Journal::open(std::string path, JournalOptions options) {
  std::string bytes;
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0) {
    util::Expected<std::string> read = util::fs::read_file(path);
    if (!read.has_value()) return read.error();
    bytes = std::move(read).take();
  }

  util::Expected<JournalImage> image = decode_journal(bytes);
  if (!image.has_value()) return image.error();
  if (image->sealed) {
    return util::make_error("journal-version",
                            "'" + path + "' is a sealed snapshot, not an appendable journal");
  }

  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return io_error("cannot open '" + path + "' for appending");
  std::uint64_t file_bytes = image->valid_bytes;
  bool ok = true;
  if (image->valid_bytes < bytes.size()) {
    // Drop the torn tail so appends resume a clean record stream.
    ok = ::ftruncate(fd, static_cast<off_t>(image->valid_bytes)) == 0;
  }
  if (ok && image->valid_bytes == 0) {
    ok = util::fs::write_all(fd, encode_journal_header());
    file_bytes = kJournalHeaderBytes;
  }
  // Make the (possibly new or truncated) journal file itself durable before
  // anyone relies on appends to it.
  if (ok) ok = ::fsync(fd) == 0 && util::fs::fsync_parent_directory(path);
  if (!ok) {
    ::close(fd);
    return io_error("cannot initialize journal '" + path + "'");
  }

  Opened opened;
  opened.journal.reset(new Journal(std::move(path), options, fd, file_bytes));
  opened.replayed = std::move(image).take();
  return opened;
}

util::Expected<JournalStats> Journal::commit() {
  if (faultpoint::should_fail("journal.fsync") || ::fsync(fd_) != 0) {
    // Durability of the unsynced suffix is now unknown; wedge rather than
    // keep acknowledging appends a crash could silently lose.
    wedged_ = true;
    ++stats_.append_errors;
    return io_error("fsync of journal '" + path_ + "' failed; journal is wedged");
  }
  ++stats_.fsyncs;
  stats_.synced_bytes = stats_.file_bytes;
  unsynced_records_ = 0;
  return stats_;
}

util::Expected<JournalStats> Journal::append(const FrontCache::ExportedEntry& entry) {
  if (wedged_) {
    ++stats_.append_errors;
    return io_error("journal '" + path_ + "' is wedged after an earlier failure");
  }
  const std::string record = encode_journal_record(entry);
  // Fault point: a crash mid-append. The armed value is the number of bytes
  // of the record that make it to the file before the "crash" — the torn
  // tail replay must then discard.
  if (const std::optional<double> torn = faultpoint::fire_value("journal.append")) {
    const std::size_t torn_bytes =
        std::min(record.size(), static_cast<std::size_t>(std::max(0.0, *torn)));
    (void)util::fs::write_all(fd_, std::string_view(record).substr(0, torn_bytes));
    stats_.file_bytes += torn_bytes;
    wedged_ = true;
    ++stats_.append_errors;
    return io_error("injected torn append to journal '" + path_ + "'");
  }
  if (!util::fs::write_all(fd_, record)) {
    // The record may be partially on disk; that is exactly a torn tail, so
    // leave it for replay and wedge.
    wedged_ = true;
    ++stats_.append_errors;
    return io_error("append to journal '" + path_ + "' failed; journal is wedged");
  }
  stats_.file_bytes += record.size();
  ++stats_.records_appended;
  ++unsynced_records_;
  if (options_.fsync_every != 0 && unsynced_records_ >= options_.fsync_every) {
    return commit();
  }
  return stats_;
}

util::Expected<JournalStats> Journal::sync() {
  if (wedged_) {
    return io_error("journal '" + path_ + "' is wedged after an earlier failure");
  }
  if (stats_.synced_bytes == stats_.file_bytes) return stats_;
  return commit();
}

util::Expected<JournalStats> Journal::rotate() {
  if (wedged_) {
    return io_error("journal '" + path_ + "' is wedged after an earlier failure");
  }
  // Same temp-then-rename commit protocol as snapshot saves; a failure at
  // any step leaves the old journal (and this object's fd) untouched.
  const std::string temp = path_ + ".tmp";
  const int fd = faultpoint::should_fail("journal.rotate")
                     ? -1
                     : ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (fd < 0) return io_error("cannot open '" + temp + "' for the journal rotation");
  if (!util::fs::write_all(fd, encode_journal_header()) || ::fsync(fd) != 0) {
    ::close(fd);
    std::remove(temp.c_str());
    return io_error("write to '" + temp + "' failed during the journal rotation");
  }
  if (std::rename(temp.c_str(), path_.c_str()) != 0) {
    ::close(fd);
    std::remove(temp.c_str());
    return io_error("cannot rename '" + temp + "' to '" + path_ + "'");
  }
  if (!util::fs::fsync_parent_directory(path_)) {
    // The fresh journal is committed by name but the rename may not be
    // durable; report it, but the swap below is still correct either way
    // (both files start with a bare header).
    ::close(fd_);
    fd_ = fd;
    stats_.file_bytes = kJournalHeaderBytes;
    stats_.synced_bytes = kJournalHeaderBytes;
    unsynced_records_ = 0;
    ++stats_.rotations;
    return io_error("fsync of directory '" + util::fs::parent_directory(path_) +
                    "' failed after the journal rotation");
  }
  ::close(fd_);
  fd_ = fd;  // the fd follows the file through the rename
  stats_.file_bytes = kJournalHeaderBytes;
  stats_.synced_bytes = kJournalHeaderBytes;
  unsynced_records_ = 0;
  ++stats_.rotations;
  return stats_;
}

}  // namespace relap::service
