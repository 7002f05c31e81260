#include "loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <thread>

#include "relap/util/rng.hpp"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Fills a sample from a complete reply.
void finish(Sample& sample, const std::vector<std::string>& lines) {
  const SolveReply reply = parse_solve_reply(lines, false);
  sample.ok = reply.ok;
  sample.front = reply.front;
  sample.error = reply.error;
}

/// Closed loop on one connection: its requests are c, c + C, c + 2C, ...,
/// with up to `workload.in_flight` of them outstanding. `start` is when the
/// timed window opens; no request is sent after `end`.
void closed_loop(const Workload& workload, Connection& connection, std::size_t c,
                 Clock::time_point start, Clock::time_point end, std::vector<Sample>& out) {
  struct Pending {
    std::size_t at;  // position in `out`
    Clock::time_point sent;
  };
  std::deque<Pending> outstanding;
  try {
    for (std::size_t k = 0;;) {
      while (outstanding.size() < workload.in_flight && Clock::now() < end) {
        const Request request = workload.request(c + k++ * workload.connections);
        out.emplace_back().index = request.index;
        if (request.upload) {
          // Uploading workloads run one request in flight, so nothing else
          // is outstanding and the next line read is the ack.
          connection.send(upload_text(*request.presentation));
          const std::string ack = connection.read_line();
          if (ack.rfind("ok instance ", 0) != 0) {
            out.back().error = ack;
            out.back().done_s = seconds_between(start, Clock::now());
            continue;
          }
        }
        const auto sent = Clock::now();
        out.back().sent_s = seconds_between(start, sent);
        connection.send(solve_line(request));
        outstanding.push_back({out.size() - 1, sent});
      }
      if (outstanding.empty()) return;
      const std::vector<std::string> lines = read_reply_lines(connection);
      const auto done = Clock::now();
      Sample& sample = out[outstanding.front().at];
      sample.latency_s = seconds_between(outstanding.front().sent, done);
      sample.done_s = seconds_between(start, done);
      finish(sample, lines);
      outstanding.pop_front();
    }
  } catch (const std::exception& e) {
    // The connection is unusable: every request without an answer failed.
    for (Sample& sample : out) {
      if (!sample.ok && sample.error.empty()) sample.error = e.what();
    }
  }
}

/// Open loop on one connection: sends each of its requests at its due time
/// and reads replies in between, so one thread serves the connection.
void open_loop(const Workload& workload, Connection& connection,
               const std::vector<std::size_t>& indices, const std::vector<double>& due,
               Clock::time_point start, std::vector<Sample>& out) {
  std::deque<std::size_t> outstanding;  // positions into `out`
  std::vector<std::string> lines;
  std::size_t next = 0;
  try {
    while (next < indices.size() || !outstanding.empty()) {
      const double now_s = seconds_between(start, Clock::now());
      if (next < indices.size() && now_s >= due[indices[next]]) {
        const Request request = workload.request(indices[next]);
        Sample sample;
        sample.index = request.index;
        sample.sent_s = due[request.index];
        sample.lag_s = now_s - due[request.index];
        connection.send(solve_line(request));
        outstanding.push_back(out.size());
        out.push_back(std::move(sample));
        ++next;
        continue;
      }
      const double wait = next < indices.size() ? due[indices[next]] - now_s : 60.0;
      std::string line;
      if (!connection.try_read_line(line, wait)) {
        if (next >= indices.size()) throw std::runtime_error("timed out waiting for replies");
        continue;
      }
      if (outstanding.empty()) throw std::runtime_error("unsolicited response line: " + line);
      lines.push_back(std::move(line));
      const bool complete = lines.size() == 1 ? lines.front().rfind("ok solve ", 0) != 0
                                              : lines.back() == "done";
      if (!complete) continue;
      Sample& sample = out[outstanding.front()];
      outstanding.pop_front();
      const double done_s = seconds_between(start, Clock::now());
      sample.done_s = done_s;
      sample.latency_s = done_s - due[sample.index];
      finish(sample, lines);
      lines.clear();
    }
  } catch (const std::exception& e) {
    for (const std::size_t at : outstanding) out[at].error = e.what();
  }
}

}  // namespace

std::vector<std::unique_ptr<Connection>> connect_and_upload(const Workload& workload,
                                                            std::uint16_t port,
                                                            std::size_t connections) {
  std::vector<std::unique_ptr<Connection>> out;
  for (std::size_t c = 0; c < connections; ++c) {
    out.push_back(std::make_unique<Connection>(port));
    if (c >= workload.uploads.size()) continue;
    std::string text;
    for (const PresentationPtr& presentation : workload.uploads[c]) {
      text += upload_text(*presentation);
    }
    out.back()->send(text);
    for (std::size_t i = 0; i < workload.uploads[c].size(); ++i) {
      const std::string ack = out.back()->read_line();
      if (ack.rfind("ok instance ", 0) != 0) throw std::runtime_error("upload refused: " + ack);
    }
  }
  return out;
}

void solve_all(std::vector<std::unique_ptr<Connection>>& connections,
               const std::vector<Request>& requests) {
  std::vector<std::string> pipelined(connections.size());
  std::vector<std::size_t> pending(connections.size(), 0);
  for (const Request& request : requests) {
    pipelined[request.connection] += solve_line(request);
    ++pending[request.connection];
  }
  for (std::size_t c = 0; c < connections.size(); ++c) connections[c]->send(pipelined[c]);
  for (std::size_t c = 0; c < connections.size(); ++c) {
    for (std::size_t i = 0; i < pending[c]; ++i) {
      const std::vector<std::string> lines = read_reply_lines(*connections[c]);
      if (lines.front().rfind("ok solve ", 0) != 0) {
        throw std::runtime_error("setup solve refused: " + lines.front());
      }
    }
  }
}

void write_preload(const Workload& workload, const std::string& binary,
                   const std::filesystem::path& dir) {
  const std::string snapshot = (dir / "preload.snap").string();
  const std::string journal = (dir / "preload.jnl").string();
  std::filesystem::remove(snapshot);
  std::filesystem::remove(journal);
  std::vector<std::string> args = workload.server_args;
  args.insert(args.end(), {"--snapshot", snapshot, "--journal", journal});
  ServerProcess server(binary, args);
  std::vector<std::unique_ptr<Connection>> connections =
      connect_and_upload(workload, server.port(), 1);
  solve_all(connections, workload.preload_snapshot);
  connections[0]->send("snapshot save " + snapshot + "\n");
  const std::string saved = connections[0]->read_line();
  if (saved.rfind("ok snapshot save ", 0) != 0) {
    throw std::runtime_error("preload snapshot save failed: " + saved);
  }
  solve_all(connections, workload.preload_journal);
  connections.clear();
  // A kill, not a stop: a graceful exit would compact the journal away.
  server.kill();
}

LiveServer start_server(const Workload& workload, const std::string& binary,
                        const std::filesystem::path& dir) {
  std::vector<std::string> args = workload.server_args;
  if (workload.persistent) {
    const auto opts = std::filesystem::copy_options::overwrite_existing;
    std::filesystem::copy_file(dir / "preload.snap", dir / "run.snap", opts);
    std::filesystem::copy_file(dir / "preload.jnl", dir / "run.jnl", opts);
    args.insert(args.end(), {"--snapshot", (dir / "run.snap").string(), "--journal",
                             (dir / "run.jnl").string()});
  }
  LiveServer live;
  const auto start = Clock::now();
  live.server = std::make_unique<ServerProcess>(binary, args);
  live.connections = connect_and_upload(workload, live.server->port(), workload.connections);
  solve_all(live.connections, workload.priming);
  live.setup_s = seconds_between(start, Clock::now());
  return live;
}

int stop_server(LiveServer& live) {
  live.connections.clear();
  return live.server ? live.server->stop() : 0;
}

WindowResult run_window(const Workload& workload,
                        std::vector<std::unique_ptr<Connection>>& connections, double seconds) {
  const std::size_t count = connections.size();
  std::vector<std::vector<Sample>> per_connection(count);
  std::vector<std::thread> threads;
  std::vector<double> due;
  std::vector<std::vector<std::size_t>> indices(count);
  if (workload.open_loop) {
    // Poisson arrivals: exponential gaps at the offered rate, seeded.
    relap::util::Rng rng(workload.seed ^ 0x0A11C0DEULL);
    for (double t = -kWarmupSeconds;;) {
      t += -std::log1p(-rng.uniform()) / workload.rate_rps;
      if (t >= seconds) break;
      indices[due.size() % count].push_back(due.size());
      due.push_back(t);
    }
  }
  const auto after = [](Clock::time_point t, double s) {
    return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  const auto start = after(Clock::now(), kWarmupSeconds);
  const auto end = after(start, seconds);
  for (std::size_t c = 0; c < count; ++c) {
    threads.emplace_back([&, c] {
      if (workload.open_loop) {
        open_loop(workload, *connections[c], indices[c], due, start, per_connection[c]);
      } else {
        closed_loop(workload, *connections[c], c, start, end, per_connection[c]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  WindowResult result;
  result.seconds = seconds;
  for (std::vector<Sample>& samples : per_connection) {
    for (Sample& sample : samples) result.samples.push_back(std::move(sample));
  }
  std::sort(result.samples.begin(), result.samples.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
  return result;
}

}  // namespace servebench
