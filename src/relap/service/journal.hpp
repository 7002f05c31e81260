#pragma once

/// \file journal.hpp
/// The one persistence format of the solved-front memo cache: a framed log
/// of cache entry records behind one header. It comes in two states:
///  * an *open* journal is the write-ahead log of cache insertions between
///    snapshots, so a crash loses at most the last `fsync_every - 1`
///    committed solves instead of everything since the last snapshot;
///  * a *sealed* journal is a snapshot (service/snapshot.hpp): the header
///    names its record count, and nothing may be appended.
/// Recovery is therefore "replay the snapshot, then the journal", one
/// decoder for both. Snapshot saves are *compaction*: save, fsync, then
/// atomically rotate the open journal back to an empty header (`rotate()`).
///
/// Format (all integers little-endian via util/bytes):
///
///     magic    8 bytes  "relapjnl"
///     u32      format version (kJournalFormatVersion)
///     u64      build stamp hash — FNV-1a of snapshot_build_stamp()
///     u64      sealed record count; kOpenJournal (all ones) = open
///     then zero or more records:
///       u64    payload size in bytes
///       u64    payload FNV-1a checksum
///       ...    payload: one cache entry record (service/snapshot.hpp
///              `encode_cache_entry`): u64 key hash, length-prefixed key
///              bytes, solved front
///
/// Replay rules — the file is runtime input and a crash can truncate an
/// open journal at *any byte*, so the decoder distinguishes torn tails from
/// corruption. Errors are "<kind>-corrupt" / "<kind>-version", where `kind`
/// names the caller ("journal" or "snapshot"):
///   * a record whose frame or payload runs past end-of-file, or whose
///     checksum fails **and** which is the final record, is a *torn tail*:
///     silently discarded (counted, never an error) — that is what a crash
///     mid-append leaves behind;
///   * a checksum failure with more bytes after it, or a checksum-valid
///     payload that does not decode (key/hash mismatch, a front that is not
///     a valid mapping of its key's instance, trailing payload bytes), is
///     "-corrupt": the write completed, so the damage is not a crash
///     artifact;
///   * a file cut inside its header is a torn creation: replayed as empty
///     (the header is rewritten on open); header fields that are present
///     are still checked;
///   * wrong magic, format version, or build stamp is "-version" (an
///     incompatible solver build must not serve replayed fronts);
///   * a sealed log must hold exactly its count of intact records and
///     nothing after them: a torn tail, a short count or a trailing byte is
///     "-corrupt" (a sealed file is written whole, then renamed into place,
///     so it is never legitimately torn).
/// Which rules apply is read from the file's own header, never the caller.
///
/// `Journal::open` replays the file, truncates the torn tail off, and
/// leaves the fd positioned for appends, so a recovered journal is again a
/// clean record stream. It refuses a sealed file ("journal-version"), so
/// appends can never break a snapshot's count. Group commit: `append`
/// fsyncs after every `fsync_every` records (1 = every append, 0 = never —
/// the OS decides). After a failed append or fsync the journal *wedges*
/// (mirroring a crashed or failing disk): the torn bytes stay for replay to
/// handle, further appends report "io" without writing, and serving
/// continues undurable — callers surface the condition through
/// `stats().append_errors`.
///
/// The class is externally synchronized: the broker serializes appends,
/// compaction and stat reads under one mutex (see broker.cpp). Nothing here
/// locks.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "relap/service/cache.hpp"
#include "relap/util/expected.hpp"

namespace relap::service {

inline constexpr std::uint32_t kJournalFormatVersion = 2;
/// Magic + u32 version + u64 build-stamp hash + u64 sealed record count.
inline constexpr std::size_t kJournalHeaderBytes = 8 + 4 + 8 + 8;
/// Per-record frame: u64 payload size + u64 payload checksum.
inline constexpr std::size_t kJournalRecordFrameBytes = 16;
/// The sealed-count field of an open, appendable journal.
inline constexpr std::uint64_t kOpenJournal = ~std::uint64_t{0};

struct JournalOptions {
  /// Group-commit interval: fsync after every N appended records. 1 fsyncs
  /// every append (maximum durability), N > 1 bounds crash loss to the
  /// N - 1 most recent records, 0 never fsyncs explicitly.
  std::uint64_t fsync_every = 1;
};

/// Monotonic counters over the journal's lifetime in this process
/// (replayed records are not re-counted; rotation resets the byte fields
/// but no counter).
struct JournalStats {
  std::uint64_t records_appended = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t rotations = 0;
  std::uint64_t append_errors = 0;  ///< failed appends/fsyncs (journal wedges)
  std::uint64_t file_bytes = 0;     ///< current journal size, header included
  std::uint64_t synced_bytes = 0;   ///< prefix guaranteed durable by a completed fsync
};

/// Result of decoding a journal byte stream.
struct JournalImage {
  std::vector<FrontCache::ExportedEntry> entries;  ///< intact records, append order
  std::uint64_t torn_records = 0;  ///< discarded torn tail (0 or 1 records)
  std::uint64_t valid_bytes = 0;   ///< header + intact records; the torn tail starts here
  bool sealed = false;             ///< the header carries a record count (a snapshot)
};

/// A journal header for the running build: open by default, or sealed
/// around exactly `sealed_count` records.
[[nodiscard]] std::string encode_journal_header(std::uint64_t sealed_count = kOpenJournal);

/// Frames one cache entry as a journal record (size, checksum, payload).
[[nodiscard]] std::string encode_journal_record(const FrontCache::ExportedEntry& entry);

/// Pure decode of a journal byte stream per the replay rules above. `kind`
/// only names the error codes ("<kind>-corrupt", "<kind>-version").
[[nodiscard]] util::Expected<JournalImage> decode_journal(std::string_view bytes,
                                                          std::string_view kind = "journal");

class Journal {
 public:
  struct Opened {
    std::unique_ptr<Journal> journal;
    JournalImage replayed;
  };

  /// Opens (creating if missing) the journal at `path`: validates and
  /// replays existing bytes, truncates any torn tail, and readies the file
  /// for appends. Errors: "io" on filesystem failure, "journal-version" /
  /// "journal-corrupt" per the replay rules, "journal-version" for a sealed
  /// file (a snapshot is never appended to).
  [[nodiscard]] static util::Expected<Opened> open(std::string path,
                                                   JournalOptions options = {});

  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends one record, group-committing per `fsync_every`. On failure the
  /// journal wedges (see file comment) and every later append reports "io".
  /// Returns the post-append stats.
  [[nodiscard]] util::Expected<JournalStats> append(const FrontCache::ExportedEntry& entry);

  /// Forces the group commit early (e.g. on clean shutdown): fsyncs any
  /// unsynced suffix.
  [[nodiscard]] util::Expected<JournalStats> sync();

  /// Compaction step: atomically replaces the journal with a fresh empty
  /// one (`util::fs::commit_file`: temp header, fsync, rename, directory
  /// fsync), to be called right after the snapshot that absorbed its
  /// records committed. On failure the old journal stays intact and
  /// appendable — replaying it over the new snapshot is idempotent, so a
  /// failed rotation is safe, just uncompacted.
  [[nodiscard]] util::Expected<JournalStats> rotate();

  [[nodiscard]] const JournalStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] bool wedged() const { return wedged_; }

 private:
  Journal(std::string path, JournalOptions options, int fd, std::uint64_t file_bytes);
  [[nodiscard]] util::Expected<JournalStats> commit();

  std::string path_;
  JournalOptions options_;
  int fd_ = -1;
  std::uint64_t unsynced_records_ = 0;
  bool wedged_ = false;
  JournalStats stats_;
};

}  // namespace relap::service
