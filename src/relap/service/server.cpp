#include "relap/service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <istream>
#include <mutex>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "relap/io/instance_format.hpp"
#include "relap/service/faultpoint.hpp"
#include "relap/util/hash.hpp"
#include "relap/util/strings.hpp"

namespace relap::service {

namespace {

/// One response line must stay one line: protocol framing is '\n'.
std::string flatten(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

/// `err <seq> <code> <message>`: seq correlates the error with the input
/// line that caused it (0 = a server-level error outside any session line).
void emit_err_line(std::string& out, std::uint64_t seq, std::string_view code,
                   std::string_view message) {
  out += "err ";
  out += std::to_string(seq);
  out += ' ';
  out += code;
  out += ' ';
  out += flatten(message);
  out += '\n';
}

/// Algorithm names carry spaces ("algorithm-1 (fully homogeneous)"); response
/// fields are whitespace-delimited and lines newline-delimited, so spaces and
/// control bytes become underscores on the wire.
std::string token_safe(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (static_cast<unsigned char>(c) <= ' ' || c == '\x7f') c = '_';
  }
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

Session::Session(Broker& broker, Options options) : broker_(broker), options_(options) {}

void Session::emit_err(std::string& out, std::string_view code, std::string_view message) const {
  emit_err_line(out, seq_, code, message);
}

void Session::emit_err(std::string& out, const util::Error& error) const {
  emit_err_line(out, seq_, error.code, error.message);
}

bool Session::handle_line(std::string_view line, std::string& out) {
  const std::string_view trimmed = util::trim(line);
  if (trimmed.empty() || trimmed.front() == '#') return true;
  ++seq_;
  if (in_block_) {
    handle_block_line(trimmed, out);
  } else {
    handle_command(trimmed, out);
  }
  return !closed_;
}

void Session::handle_command(std::string_view line, std::string& out) {
  const std::vector<std::string_view> tokens = util::split_ws(line);
  const std::string_view command = tokens.front();

  if (command == "ping") {
    out += "ok pong\n";
    return;
  }
  if (command == "quit") {
    out += "ok bye\n";
    closed_ = true;
    return;
  }
  if (command == "shutdown") {
    out += "ok shutdown\n";
    closed_ = true;
    shutdown_ = true;
    return;
  }
  if (command == "stats") {
    out += "ok stats ";
    out += broker_.metrics_json();
    out += '\n';
    return;
  }
  if (command == "instance") {
    if (tokens.size() != 2) {
      emit_err(out, "protocol", "usage: instance <name>");
      return;
    }
    block_name_ = std::string(tokens[1]);
    if (!instances_.contains(block_name_) && instances_.size() >= options_.max_instances) {
      emit_err(out, "oversized",
               "instance table full (" + std::to_string(options_.max_instances) + " names)");
      return;
    }
    block_instance_ = InstanceData{};
    block_has_uniform_links_ = false;
    block_uniform_links_ = 0.0;
    in_block_ = true;
    return;
  }
  if (command == "drop") {
    if (tokens.size() != 2) {
      emit_err(out, "protocol", "usage: drop <name>");
      return;
    }
    if (instances_.erase(std::string(tokens[1])) == 0) {
      emit_err(out, "protocol", "unknown instance '" + std::string(tokens[1]) + "'");
      return;
    }
    out += "ok drop ";
    out += tokens[1];
    out += '\n';
    return;
  }
  if (command == "solve") {
    handle_solve(line.substr(command.size()), out);
    return;
  }
  if (command == "snapshot") {
    handle_snapshot(line.substr(command.size()), out);
    return;
  }
  if (command == "end" || command == "input" || command == "stage" || command == "proc" ||
      command == "links") {
    emit_err(out, "protocol",
             "'" + std::string(command) + "' is only valid inside an instance block");
    return;
  }
  emit_err(out, "protocol", "unknown command '" + std::string(command) + "'");
}

void Session::handle_block_line(std::string_view line, std::string& out) {
  const std::vector<std::string_view> tokens = util::split_ws(line);
  const std::string_view command = tokens.front();

  if (command == "end") {
    in_block_ = false;
    const std::size_t m = block_instance_.processors.size();
    for (std::size_t i = 0; i < m; ++i) {
      LabeledProcessor& proc = block_instance_.processors[i];
      if (proc.links.empty()) {
        proc.links.assign(m, block_has_uniform_links_ ? block_uniform_links_ : 0.0);
      } else if (proc.links.size() != m) {
        emit_err(out, "protocol",
                 "proc " + std::to_string(i) + " has " + std::to_string(proc.links.size()) +
                     " link entries, expected " + std::to_string(m));
        return;
      }
    }
    out += "ok instance ";
    out += block_name_;
    out += " stages=" + std::to_string(block_instance_.stages.size());
    out += " processors=" + std::to_string(m);
    out += '\n';
    instances_[block_name_] = broker_.prepare(block_instance_);
    block_instance_ = InstanceData{};
    return;
  }
  if (command == "input") {
    const std::optional<double> value =
        tokens.size() == 2 ? util::parse_double(tokens[1]) : std::nullopt;
    if (!value) {
      emit_err(out, "protocol", "usage: input <data-size>");
      return;
    }
    block_instance_.input_data = *value;
    return;
  }
  if (command == "stage") {
    if (block_instance_.stages.size() >= options_.max_stage_records) {
      emit_err(out, "oversized",
               "too many stage records (wire cap " + std::to_string(options_.max_stage_records) +
                   ")");
      return;
    }
    const std::optional<std::size_t> position =
        tokens.size() == 4 ? util::parse_size(tokens[1]) : std::nullopt;
    const std::optional<double> work =
        tokens.size() == 4 ? util::parse_double(tokens[2]) : std::nullopt;
    const std::optional<double> output =
        tokens.size() == 4 ? util::parse_double(tokens[3]) : std::nullopt;
    if (!position || !work || !output) {
      emit_err(out, "protocol", "usage: stage <position> <work> <output-data>");
      return;
    }
    block_instance_.stages.push_back(LabeledStage{*position, *work, *output});
    return;
  }
  if (command == "proc") {
    if (block_instance_.processors.size() >= options_.max_processor_records) {
      emit_err(out, "oversized",
               "too many processor records (wire cap " +
                   std::to_string(options_.max_processor_records) + ")");
      return;
    }
    if (tokens.size() < 5) {
      emit_err(out, "protocol", "usage: proc <speed> <fp> <in-bw> <out-bw> [links...]");
      return;
    }
    LabeledProcessor proc;
    double* const fields[4] = {&proc.speed, &proc.failure_prob, &proc.in_bandwidth,
                               &proc.out_bandwidth};
    for (std::size_t i = 0; i < 4; ++i) {
      const std::optional<double> value = util::parse_double(tokens[i + 1]);
      if (!value) {
        emit_err(out, "protocol", "unparseable proc field '" + std::string(tokens[i + 1]) + "'");
        return;
      }
      *fields[i] = *value;
    }
    if (tokens.size() - 5 > options_.max_processor_records) {
      emit_err(out, "oversized", "links row exceeds the wire processor cap");
      return;
    }
    for (std::size_t i = 5; i < tokens.size(); ++i) {
      const std::optional<double> value = util::parse_double(tokens[i]);
      if (!value) {
        emit_err(out, "protocol", "unparseable link bandwidth '" + std::string(tokens[i]) + "'");
        return;
      }
      proc.links.push_back(*value);
    }
    block_instance_.processors.push_back(std::move(proc));
    return;
  }
  if (command == "links") {
    const std::optional<double> value =
        tokens.size() == 2 ? util::parse_double(tokens[1]) : std::nullopt;
    if (!value) {
      emit_err(out, "protocol", "usage: links <bandwidth>");
      return;
    }
    block_has_uniform_links_ = true;
    block_uniform_links_ = *value;
    return;
  }
  emit_err(out, "protocol",
           "unknown instance-block command '" + std::string(command) + "' (expecting end)");
}

void Session::handle_solve(std::string_view args, std::string& out) {
  const std::vector<std::string_view> tokens = util::split_ws(args);
  if (tokens.empty()) {
    emit_err(out, "protocol", "usage: solve <name> [obj=|threshold=|method=|budget=|sweep=]");
    return;
  }
  const auto it = instances_.find(std::string(tokens.front()));
  if (it == instances_.end()) {
    emit_err(out, "protocol", "unknown instance '" + std::string(tokens.front()) + "'");
    return;
  }

  SolveRequest request;
  request.prepared = it->second;
  request.objective = Objective::ParetoFront;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string_view token = tokens[i];
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == token.size()) {
      emit_err(out, "protocol", "malformed knob '" + std::string(token) + "' (want key=value)");
      return;
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (key == "obj") {
      if (value == "pareto") {
        request.objective = Objective::ParetoFront;
      } else if (value == "minfp") {
        request.objective = Objective::MinFpForLatency;
      } else if (value == "minlat") {
        request.objective = Objective::MinLatencyForFp;
      } else {
        emit_err(out, "protocol", "unknown objective '" + std::string(value) + "'");
        return;
      }
    } else if (key == "threshold") {
      const std::optional<double> parsed = util::parse_double(value);
      if (!parsed) {
        emit_err(out, "protocol", "unparseable threshold '" + std::string(value) + "'");
        return;
      }
      request.threshold = *parsed;
    } else if (key == "method") {
      if (value == "auto") {
        request.method = algorithms::Method::Auto;
      } else if (value == "exact") {
        request.method = algorithms::Method::Exact;
      } else if (value == "heuristic") {
        request.method = algorithms::Method::Heuristic;
      } else if (value == "exhaustive") {
        request.method = algorithms::Method::Exhaustive;
      } else {
        emit_err(out, "protocol", "unknown method '" + std::string(value) + "'");
        return;
      }
    } else if (key == "budget") {
      const std::optional<std::size_t> parsed = util::parse_size(value);
      if (!parsed) {
        emit_err(out, "protocol", "unparseable budget '" + std::string(value) + "'");
        return;
      }
      request.max_evaluations = *parsed;
    } else if (key == "sweep") {
      const std::optional<std::size_t> parsed = util::parse_size(value);
      if (!parsed) {
        emit_err(out, "protocol", "unparseable sweep '" + std::string(value) + "'");
        return;
      }
      request.pareto_thresholds = *parsed;
    } else {
      emit_err(out, "protocol", "unknown knob '" + std::string(key) + "'");
      return;
    }
  }

  const util::Expected<Reply> reply =
      options_.batch_solves ? broker_.solve_batched(request) : broker_.solve(request);
  if (!reply.has_value()) {
    emit_err(out, reply.error());
    return;
  }

  const auto render_start = std::chrono::steady_clock::now();
  out += "ok solve name=";
  out += tokens.front();
  out += reply->cache_hit ? " cache=hit" : " cache=miss";
  out += reply->exact ? " exact=1" : " exact=0";
  out += " algorithm=" + token_safe(reply->algorithm);
  out += " points=" + std::to_string(reply->front.size());
  out += " front=" + util::Fnv1a(front_checksum(reply->front)).hex();
  out += " canonical=" + util::Fnv1a(reply->canonical_hash).hex();
  out += " solve_ms=" + util::format_fixed(reply->spans.solve_seconds * 1e3, 3);
  out += '\n';
  out += "trace ";
  out += reply->spans.to_json();
  out += '\n';
  for (std::size_t i = 0; i < reply->front.size(); ++i) {
    const algorithms::ParetoSolution& point = reply->front[i];
    out += "point " + std::to_string(i);
    out += " latency=" + util::format_double(point.latency);
    out += " fp=" + util::format_double(point.failure_probability);
    out += " mapping=" + io::format_mapping(point.mapping);
    out += '\n';
  }
  out += "done\n";
  broker_.metrics().render.record(seconds_since(render_start));
}

void Session::handle_snapshot(std::string_view args, std::string& out) {
  const std::vector<std::string_view> tokens = util::split_ws(args);
  if (tokens.size() != 2 || (tokens[0] != "save" && tokens[0] != "load")) {
    emit_err(out, "protocol", "usage: snapshot save|load <path>");
    return;
  }
  const std::string path(tokens[1]);
  const util::Expected<SnapshotStats> stats =
      tokens[0] == "save" ? broker_.save_snapshot(path) : broker_.load_snapshot(path);
  if (!stats.has_value()) {
    emit_err(out, stats.error());
    return;
  }
  out += "ok snapshot ";
  out += tokens[0];
  out += " entries=" + std::to_string(stats->entries);
  out += " bytes=" + std::to_string(stats->bytes);
  out += '\n';
}

bool serve_stream(Broker& broker, std::istream& in, std::ostream& out,
                  Session::Options options) {
  Session session(broker, options);
  std::string line;
  std::string response;
  bool alive = true;
  while (alive && std::getline(in, line)) {
    response.clear();
    alive = session.handle_line(line, response);
    out << response;
    out.flush();
  }
  return session.shutdown_requested();
}

TcpServer::TcpServer(TcpServer&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), port_(std::exchange(other.port_, 0)) {
  stop_.store(other.stop_.load(std::memory_order_acquire), std::memory_order_release);
}

TcpServer& TcpServer::operator=(TcpServer&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
    stop_.store(other.stop_.load(std::memory_order_acquire), std::memory_order_release);
  }
  return *this;
}

TcpServer::~TcpServer() {
  if (fd_ >= 0) ::close(fd_);
}

util::Expected<TcpServer> TcpServer::bind_localhost(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return util::Error{"io", std::string("socket: ") + std::strerror(errno)};
  }
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0 ||
      ::listen(fd, 16) != 0) {
    const std::string message = std::strerror(errno);
    ::close(fd);
    return util::Error{"io", "bind 127.0.0.1:" + std::to_string(port) + ": " + message};
  }
  socklen_t length = sizeof address;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&address), &length) != 0) {
    const std::string message = std::strerror(errno);
    ::close(fd);
    return util::Error{"io", std::string("getsockname: ") + message};
  }

  TcpServer server;
  server.fd_ = fd;
  server.port_ = ntohs(address.sin_port);
  return server;
}

namespace {

/// How often blocked reads re-check the stop flag and the idle clock.
constexpr int kPollSliceMs = 50;

/// Longest unterminated line a connection buffers: 10x the longest legal
/// line (a `proc` record with 4096 links is about 100 KB).
constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/// Writes the whole buffer, retrying short sends (the "server.short_write"
/// fault point forces 1-byte sends to keep that retry loop tested). With a
/// write timeout, a peer that stops draining forfeits the connection. False
/// on a dead or stuck peer — the session then just winds down.
bool send_all(int fd, std::string_view bytes, int write_timeout_ms) {
  while (!bytes.empty()) {
    if (write_timeout_ms > 0) {
      pollfd pfd{fd, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, write_timeout_ms);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return false;  // timeout or poll failure
    }
    const std::size_t chunk =
        faultpoint::should_fail("server.short_write") ? 1 : bytes.size();
    const ssize_t sent = ::send(fd, bytes.data(), chunk, MSG_NOSIGNAL);
    if (sent <= 0) {
      if (sent < 0 && errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(sent));
  }
  return true;
}

/// `send_all` of one session response, timed into the broker's `write`
/// histogram (lines that answer nothing send nothing and are not timed).
bool write_response(Broker& broker, int fd, std::string_view response, int write_timeout_ms) {
  if (response.empty()) return true;
  const auto start = std::chrono::steady_clock::now();
  const bool sent = send_all(fd, response, write_timeout_ms);
  broker.metrics().write.record(seconds_since(start));
  return sent;
}

}  // namespace

void TcpServer::serve_connection(Broker& broker, int conn, const ServerOptions& options) {
  Session session(broker, options.session);
  std::string pending;
  std::string response;
  char buffer[4096];
  bool alive = true;
  bool peer_gone = false;
  int idle_ms = 0;
  while (alive) {
    if (stop_requested()) {
      // Graceful drain: the in-flight line (if any) already got its reply;
      // anything further is refused like the broker refuses late work.
      (void)send_all(conn, "err 0 shutting-down server is draining\n", options.write_timeout_ms);
      break;
    }
    // Block in short slices so the idle reaper and stop requests are honored
    // without extra machinery.
    pollfd pfd{conn, POLLIN, 0};
    const int slice = options.read_timeout_ms > 0
                          ? std::min(kPollSliceMs, options.read_timeout_ms)
                          : kPollSliceMs;
    const int ready = ::poll(&pfd, 1, slice);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      idle_ms += slice;
      if (options.read_timeout_ms > 0 && idle_ms >= options.read_timeout_ms) {
        (void)send_all(conn, "err 0 timeout connection idle past its read timeout, closing\n",
                       options.write_timeout_ms);
        break;
      }
      continue;
    }
    idle_ms = 0;
    const ssize_t received = ::recv(conn, buffer, sizeof buffer, 0);
    if (received < 0 && errno == EINTR) continue;
    if (received <= 0) {
      peer_gone = received == 0 && pending.empty();
      break;
    }
    // Bytes already buffered hold no '\n': only the new ones are scanned.
    const std::size_t scanned = pending.size();
    pending.append(buffer, static_cast<std::size_t>(received));
    std::size_t start = 0;
    for (std::size_t newline = pending.find('\n', scanned);
         alive && newline != std::string::npos; newline = pending.find('\n', start)) {
      std::string_view line(pending.data() + start, newline - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);  // telnet friendliness
      response.clear();
      alive = session.handle_line(line, response);
      if (!write_response(broker, conn, response, options.write_timeout_ms)) alive = false;
      start = newline + 1;
    }
    pending.erase(0, start);
    if (alive && pending.size() > kMaxLineBytes) {
      (void)send_all(conn,
                     "err 0 oversized line exceeds " + std::to_string(kMaxLineBytes) + " bytes\n",
                     options.write_timeout_ms);
      alive = false;
    }
  }
  // A final unterminated line (EOF mid-line) still gets served before the
  // peer goes away.
  if (alive && !peer_gone && !stop_requested() && !pending.empty()) {
    response.clear();
    (void)session.handle_line(pending, response);
    (void)write_response(broker, conn, response, options.write_timeout_ms);
  }
  ::close(conn);
  if (session.shutdown_requested()) {
    // Session-issued `shutdown` drains the whole service: the broker starts
    // refusing new work and the accept loop winds down.
    broker.begin_shutdown();
    request_stop();
  }
}

std::size_t TcpServer::serve(Broker& broker, const ServerOptions& options) {
  struct Connections {
    std::mutex mutex;
    std::size_t active = 0;
    /// Connection threads that have finished serving, not yet joined.
    std::vector<std::thread::id> finished;
  } connections;
  std::vector<std::thread> threads;
  std::size_t served = 0;
  while (!stop_requested() && fd_ >= 0) {
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      break;  // request_stop()'s socket shutdown lands here
    }
    // Join the threads of connections that ended since the last accept, so
    // a long-running server holds one stack per live connection, not one
    // per connection it ever served. (Detaching is no option: a thread
    // would outlive `connections` in this frame.)
    std::vector<std::thread::id> finished;
    {
      std::lock_guard<std::mutex> lock(connections.mutex);
      finished.swap(connections.finished);
    }
    for (const std::thread::id id : finished) {
      const auto done = std::find_if(threads.begin(), threads.end(), [id](const std::thread& t) {
        return t.get_id() == id;
      });
      done->join();
      threads.erase(done);
    }
    if (stop_requested()) {
      (void)send_all(conn, "err 0 shutting-down server is draining\n", options.write_timeout_ms);
      ::close(conn);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(connections.mutex);
      if (connections.active >= options.max_connections) {
        // Connection-level load shedding: refuse instead of queueing
        // unboundedly behind busy sessions.
        (void)send_all(conn,
                       "err 0 overloaded connection limit (" +
                           std::to_string(options.max_connections) + ") reached\n",
                       options.write_timeout_ms);
        ::close(conn);
        continue;
      }
      ++connections.active;
    }
    ++served;
    threads.emplace_back([this, &broker, &options, &connections, conn] {
      serve_connection(broker, conn, options);
      std::lock_guard<std::mutex> lock(connections.mutex);
      --connections.active;
      connections.finished.push_back(std::this_thread::get_id());
    });
  }
  for (std::thread& thread : threads) thread.join();
  return served;
}

void TcpServer::request_stop() {
  stop_.store(true, std::memory_order_release);
  // Wake the blocked accept(); the listener stays bound (port() remains
  // valid) but no further connections are accepted.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

}  // namespace relap::service
