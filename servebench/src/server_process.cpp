#include "server_process.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
  return left.count() < 0 ? 0 : static_cast<int>(left.count());
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary, const std::vector<std::string>& args) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) fail("pipe");
  std::vector<std::string> argv_storage = {binary, "--port", "0"};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();

  pid_ = ::fork();
  if (pid_ < 0) fail("fork");
  if (pid_ == 0) {
    // Child: async-signal-safe calls only.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int null_fd = ::open("/dev/null", O_RDWR);
    ::dup2(null_fd, 0);
    ::dup2(null_fd, 1);
    ::dup2(pipe_fds[1], 2);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  stderr_fd_ = pipe_fds[0];

  // Read stderr until the "listening on 127.0.0.1:<port>" line.
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  std::string seen;
  while (port_ == 0) {
    pollfd pfd{stderr_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, remaining_ms(deadline));
    if (ready < 0 && errno == EINTR) continue;
    char buffer[512];
    const ssize_t got = ready > 0 ? ::read(stderr_fd_, buffer, sizeof buffer) : 0;
    if (got <= 0) {
      kill();
      throw std::runtime_error("relap_serve did not report a port; stderr: " + seen);
    }
    seen.append(buffer, static_cast<std::size_t>(got));
    const std::size_t at = seen.find("listening on 127.0.0.1:");
    if (at != std::string::npos && seen.find('\n', at) != std::string::npos) {
      port_ = static_cast<std::uint16_t>(std::atoi(seen.c_str() + at + 23));
    }
  }
  drain_ = std::thread([fd = stderr_fd_] {
    char buffer[4096];
    while (true) {
      const ssize_t got = ::read(fd, buffer, sizeof buffer);
      if (got > 0) continue;
      if (got < 0 && errno == EINTR) continue;
      break;
    }
  });
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) kill();
  if (drain_.joinable()) drain_.join();
  if (stderr_fd_ >= 0) ::close(stderr_fd_);
}

double ServerProcess::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

void ServerProcess::reap(double timeout_s) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  while (pid_ > 0) {
    const pid_t done = ::waitpid(pid_, &status_, WNOHANG);
    if (done == pid_ || (done < 0 && errno != EINTR)) {
      pid_ = -1;
      break;
    }
    if (Clock::now() >= deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status_, 0);
      status_ = -1;
      pid_ = -1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (drain_.joinable()) drain_.join();
}

int ServerProcess::stop(double timeout_s) {
  if (pid_ <= 0) return status_;
  ::kill(pid_, SIGTERM);
  reap(timeout_s);
  if (status_ == -1) return -1;
  return WIFEXITED(status_) ? WEXITSTATUS(status_) : 128 + WTERMSIG(status_);
}

void ServerProcess::kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  reap(30.0);
}

Connection::Connection(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) fail("socket");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
    const int saved = errno;
    ::close(fd_);
    errno = saved;
    fail("connect");
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::send(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t sent = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      fail("send");
    }
    bytes.remove_prefix(static_cast<std::size_t>(sent));
  }
}

std::string Connection::read_line(double timeout_s) {
  std::string line;
  if (!try_read_line(line, timeout_s)) {
    throw std::runtime_error("timed out waiting for a response line");
  }
  return line;
}

bool Connection::try_read_line(std::string& line, double timeout_s) {
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(timeout_s));
  while (true) {
    const std::size_t newline = buffer_.find('\n', start_);
    if (newline != std::string::npos) {
      line.assign(buffer_, start_, newline - start_);
      start_ = newline + 1;
      if (start_ == buffer_.size()) {
        buffer_.clear();
        start_ = 0;
      }
      return true;
    }
    if (start_ > 0) {
      buffer_.erase(0, start_);
      start_ = 0;
    }
    const auto left = std::max(deadline - Clock::now(), Clock::duration::zero());
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
    const timespec timeout{static_cast<time_t>(ns / 1'000'000'000),
                           static_cast<long>(ns % 1'000'000'000)};
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) fail("poll");
    if (ready == 0) return false;
    char chunk[16384];
    const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) throw std::runtime_error("server closed the connection");
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
}

std::vector<std::string> read_reply_lines(Connection& connection) {
  std::vector<std::string> lines;
  lines.push_back(connection.read_line());
  if (lines.front().rfind("ok solve ", 0) != 0) return lines;
  do {
    lines.push_back(connection.read_line());
  } while (lines.back() != "done");
  return lines;
}

namespace {

/// Value of `key=` in a whitespace-separated line ("" when absent).
std::string_view field(std::string_view line, std::string_view key) {
  std::size_t at = 0;
  while ((at = line.find(key, at)) != std::string_view::npos) {
    if (at == 0 || line[at - 1] == ' ') {
      const std::size_t begin = at + key.size();
      const std::size_t end = line.find(' ', begin);
      return line.substr(begin, end == std::string_view::npos ? line.size() - begin : end - begin);
    }
    at += key.size();
  }
  return {};
}

}  // namespace

SolveReply parse_solve_reply(const std::vector<std::string>& lines, bool parse_points) {
  SolveReply reply;
  const std::string& head = lines.front();
  if (head.rfind("ok solve ", 0) != 0) {
    reply.error = head;
    return reply;
  }
  reply.ok = true;
  reply.front = std::strtoull(std::string(field(head, "front=")).c_str(), nullptr, 16);
  if (parse_points) {
    for (const std::string& line : lines) {
      if (line.rfind("point ", 0) != 0) continue;
      reply.points.emplace_back(std::strtod(std::string(field(line, "latency=")).c_str(), nullptr),
                                std::strtod(std::string(field(line, "fp=")).c_str(), nullptr));
    }
  }
  return reply;
}

SolveReply read_solve_reply(Connection& connection, bool parse_points) {
  return parse_solve_reply(read_reply_lines(connection), parse_points);
}

}  // namespace servebench
