#pragma once

/// \file server_process.hpp
/// The `relap_serve` child process and the loopback TCP connections the load
/// generator drives it through.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace servebench {

/// A running `relap_serve --port 0 ...`. The destructor kills and reaps the
/// child if `stop()` was not called; the child also dies with this process
/// (PR_SET_PDEATHSIG), so no server outlives the benchmark.
class ServerProcess {
 public:
  /// Launches `binary --port 0 args...` and blocks until it reports its
  /// listening port on stderr. Throws std::runtime_error on failure.
  ServerProcess(const std::string& binary, const std::vector<std::string>& args);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Peak resident set (VmHWM) of the server so far, in MiB.
  [[nodiscard]] double peak_rss_mb() const;

  /// Graceful stop: SIGTERM (drain + snapshot save), then wait. Returns the
  /// exit status (SIGKILL after `timeout_s`, reported as -1).
  int stop(double timeout_s = 30.0);
  /// Immediate SIGKILL + reap (a crash, as far as the server knows).
  void kill();

 private:
  void reap(double timeout_s);

  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  std::uint16_t port_ = 0;
  int status_ = 0;
  std::thread drain_;  ///< keeps reading stderr so the child never blocks on it
};

/// One blocking client connection speaking the line protocol.
class Connection {
 public:
  explicit Connection(std::uint16_t port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send(std::string_view bytes);
  /// Next response line without its '\n'. Throws on EOF or after
  /// `timeout_s` without a complete line.
  std::string read_line(double timeout_s = 60.0);
  /// Like read_line, but returns false instead of throwing when no complete
  /// line arrives within `timeout_s`.
  bool try_read_line(std::string& line, double timeout_s);

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t start_ = 0;
};

/// A parsed `solve` response: `ok solve ...`, `trace`, `point` lines, `done`
/// — or one `err` line.
struct SolveReply {
  bool ok = false;
  std::string error;           ///< the err line, when !ok
  std::uint64_t front = 0;     ///< the `front=` checksum
  std::vector<std::pair<double, double>> points;  ///< (latency, fp) per point
};

/// Reads the lines of one solve response. `parse_points` fills `points`.
[[nodiscard]] SolveReply read_solve_reply(Connection& connection, bool parse_points);

/// Raw lines of one solve response (up to and including `done`, or the single
/// `err` line), for callers that stop a clock before parsing.
[[nodiscard]] std::vector<std::string> read_reply_lines(Connection& connection);
[[nodiscard]] SolveReply parse_solve_reply(const std::vector<std::string>& lines,
                                           bool parse_points);

}  // namespace servebench
