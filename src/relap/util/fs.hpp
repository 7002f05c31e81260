#pragma once

/// \file fs.hpp
/// Tiny POSIX filesystem helpers shared by the crash-safe persistence code
/// (service/snapshot.cpp, service/journal.cpp): whole-file reads,
/// full-buffer writes and the directory-fsync half of the
/// write -> fsync -> rename -> fsync(dir) durability protocol.

#include <fcntl.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
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

}  // namespace relap::util::fs
