#pragma once

/// \file fs.hpp
/// Tiny POSIX filesystem helpers shared by the crash-safe persistence code
/// (service/snapshot.cpp, service/journal.cpp): whole-file reads,
/// full-buffer writes, directory fsyncs and the one
/// write -> fsync -> rename -> fsync(dir) durable commit (`commit_file`)
/// behind snapshot saves and journal rotations.

#include <fcntl.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "relap/util/expected.hpp"

namespace relap::util::fs {

/// Reads the whole file at `path`; "io" error if it cannot be opened or read.
inline Expected<std::string> read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return make_error("io", "cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  if (!file) return make_error("io", "read from '" + path + "' failed");
  return std::move(buffer).str();
}

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR.
inline bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t written = ::write(fd, bytes.data(), bytes.size());
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(written));
  }
  return true;
}

/// Directory holding `path` ("." for a bare filename) — the entry that must
/// be fsynced for a rename into it to survive a crash.
inline std::string parent_directory(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

/// Fsyncs the directory holding `path`, making a rename into it durable.
inline bool fsync_parent_directory(const std::string& path) {
  const std::string dir = parent_directory(path);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) return false;
  const bool synced = ::fsync(dir_fd) == 0;
  ::close(dir_fd);
  return synced;
}

/// The steps of `commit_file`, in order — what its fault hook names.
enum class CommitStep { Open, Write, Fsync, Rename };

/// Outcome of `commit_file`.
struct Committed {
  /// Open for appends on the file committed under the target path, or -1
  /// when the commit failed before the rename. The caller closes it.
  int fd = -1;
  /// The "io" error of the step that failed, if any.
  std::optional<Error> error;
};

/// Durably replaces the file at `path` with `bytes`: writes `<path>.tmp`,
/// fsyncs its data, renames it over `path`, then fsyncs the directory so
/// the rename itself survives a crash. Without the fsyncs a crash shortly
/// after "success" can leave a zero-length or torn file under the committed
/// name — the rename persists before the data does.
///
/// A failure before the rename removes the temp file and leaves `path`
/// untouched. A failed directory fsync is reported, not rolled back: the
/// file is committed by name, just not yet guaranteed durable, so its fd is
/// handed out all the same. `fails` is asked once per step reached, in
/// order; true fails that step as if its system call had — the hook callers
/// wire their fault points into.
inline Committed commit_file(const std::string& path, std::string_view bytes,
                             bool (*fails)(CommitStep)) {
  const std::string temp = path + ".tmp";
  const int fd = fails(CommitStep::Open)
                     ? -1
                     : ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (fd < 0) return {-1, make_error("io", "cannot open '" + temp + "' for writing")};
  if (fails(CommitStep::Write) || !write_all(fd, bytes) || fails(CommitStep::Fsync) ||
      ::fsync(fd) != 0) {
    ::close(fd);
    std::remove(temp.c_str());
    return {-1, make_error("io", "write to '" + temp + "' failed")};
  }
  if (fails(CommitStep::Rename) || std::rename(temp.c_str(), path.c_str()) != 0) {
    ::close(fd);
    std::remove(temp.c_str());
    return {-1, make_error("io", "cannot rename '" + temp + "' to '" + path + "'")};
  }
  if (!fsync_parent_directory(path)) {
    return {fd, make_error("io", "fsync of directory '" + parent_directory(path) +
                                     "' failed after the rename")};
  }
  return {fd, std::nullopt};
}

}  // namespace relap::util::fs
