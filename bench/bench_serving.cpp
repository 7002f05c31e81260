// Experiment: serving-front overhead (service/server.hpp + snapshot.hpp).
//
// Reproduction artifact: the same warm multi-tenant lookup served two ways —
// in-process (`Broker::solve`) and over the wire (`Session::handle_line`
// parsing the line protocol, solving, rendering the response text). The gap
// is the full price of the text front: parse + dispatch + response
// formatting. A third table times cache persistence: snapshot encode/save
// and load/decode, whose entries/sec bound how fast a restarted server
// returns to warm.
//
// Emits BENCH_serving.json: warm in-process and wire requests/sec, snapshot
// save/load entries/sec, and miss-solve requests/sec with the write-ahead
// journal off vs on (all gated by compare_bench.py) plus the
// label-independent front checksum of the served fronts (warn-compared).
// The concurrent TCP rows past one connection are gated only when the host
// has more than one core (`..._per_sec_ungated` otherwise).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/service/broker.hpp"
#include "relap/service/server.hpp"
#include "relap/service/snapshot.hpp"
#include "relap/util/strings.hpp"

namespace {

using namespace relap;

using benchutil::seconds_since;

constexpr std::size_t kBases = 4;
constexpr std::size_t kStages = 6;
constexpr std::size_t kProcessors = 8;

service::SolveRequest base_request(std::uint64_t seed) {
  const auto pipe = gen::random_uniform_pipeline(kStages, seed);
  gen::PlatformGenOptions options;
  options.processors = kProcessors;
  const auto plat = gen::random_fully_heterogeneous(options, seed + 1000);
  service::SolveRequest request;
  request.instance = service::InstanceData::from(pipe, plat);
  request.objective = service::Objective::ParetoFront;
  // Forced heuristic, as in bench_service: bounded deterministic solves.
  request.method = algorithms::Method::Heuristic;
  request.pareto_thresholds = 16;
  return request;
}

/// Renders an instance as the protocol lines `instance <name> ... end`.
std::vector<std::string> instance_lines(const std::string& name,
                                        const service::InstanceData& instance) {
  std::vector<std::string> lines;
  lines.push_back("instance " + name);
  lines.push_back("input " + util::format_double(instance.input_data));
  for (const service::LabeledStage& stage : instance.stages) {
    lines.push_back("stage " + std::to_string(stage.position) + ' ' +
                    util::format_double(stage.work) + ' ' +
                    util::format_double(stage.output_data));
  }
  for (const service::LabeledProcessor& proc : instance.processors) {
    std::string line = "proc " + util::format_double(proc.speed) + ' ' +
                       util::format_double(proc.failure_prob) + ' ' +
                       util::format_double(proc.in_bandwidth) + ' ' +
                       util::format_double(proc.out_bandwidth);
    for (const double bandwidth : proc.links) line += ' ' + util::format_double(bandwidth);
    lines.push_back(std::move(line));
  }
  lines.push_back("end");
  return lines;
}

void expect_ok(const std::string& response, const char* what) {
  if (response.rfind("ok ", 0) != 0) {
    std::fprintf(stderr, "%s did not answer ok: %s\n", what, response.c_str());
    std::exit(1);
  }
}

/// Blocking loopback client for the concurrent-serving tables. A solve
/// reply is many lines ending `done`; a refused one is a single `err` line —
/// `read_reply` consumes exactly one reply either way.
class WireClient {
 public:
  explicit WireClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~WireClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  bool send_text(const std::string& text) {
    return ::send(fd_, text.data(), text.size(), 0) == static_cast<ssize_t>(text.size());
  }

  /// Reads one whole solve reply. Returns +1 for a served solve (`done`),
  /// 0 for a structured `err` line (e.g. shed as overloaded), -1 on
  /// connection loss.
  int read_reply() {
    for (;;) {
      const std::string line = read_line();
      if (line.empty()) return -1;
      if (line == "done\n") return 1;
      if (line.rfind("err ", 0) == 0) return 0;
    }
  }

  /// Reads one '\n'-terminated line; empty on connection loss.
  std::string read_line() {
    for (;;) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline + 1);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t received = ::recv(fd_, chunk, sizeof chunk, 0);
      if (received <= 0) return {};
      buffer_.append(chunk, static_cast<std::size_t>(received));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// One bench client session: upload `instance` under `name`, then issue
/// `solves` warm solve lines one at a time. Counts served vs refused.
void run_bench_client(std::uint16_t port, const std::string& name,
                      const service::InstanceData& instance, std::size_t solves,
                      std::atomic<std::size_t>& served, std::atomic<std::size_t>& refused) {
  WireClient client(port);
  if (!client.connected()) return;
  std::string upload;
  for (const std::string& line : instance_lines(name, instance)) upload += line + '\n';
  if (!client.send_text(upload)) return;
  // Drain the one `ok instance` response line (block lines answer nothing).
  if (client.read_line().rfind("ok instance", 0) != 0) return;
  const std::string solve_line = "solve " + name + " obj=pareto method=heuristic sweep=16\n";
  for (std::size_t i = 0; i < solves; ++i) {
    if (!client.send_text(solve_line)) return;
    const int reply = client.read_reply();
    if (reply < 0) return;
    (reply == 1 ? served : refused).fetch_add(1, std::memory_order_relaxed);
  }
  (void)client.send_text("quit\n");
}

void print_tables() {
  benchutil::header("serving front: wire protocol overhead and snapshot speed");
  std::printf("workload: %zu base instances (%zu stages x %zu processors), warm lookups\n\n",
              kBases, kStages, kProcessors);

  benchutil::JsonReport report("serving");
  report.field("bases", static_cast<std::uint64_t>(kBases))
      .field("stages", static_cast<std::uint64_t>(kStages))
      .field("processors", static_cast<std::uint64_t>(kProcessors));

  service::Broker broker;
  service::Session session(broker);

  // Register and prime every base through the wire (cold solves).
  std::vector<service::SolveRequest> requests;
  std::vector<std::string> solve_lines;
  std::string response;
  for (std::size_t b = 0; b < kBases; ++b) {
    requests.push_back(base_request(b * 7 + 3));
    const std::string name = "base" + std::to_string(b);
    for (const std::string& line : instance_lines(name, requests.back().instance)) {
      response.clear();
      if (!session.handle_line(line, response)) std::exit(1);
    }
    expect_ok(response, "instance upload");
    solve_lines.push_back("solve " + name + " obj=pareto method=heuristic sweep=16");
    response.clear();
    if (!session.handle_line(solve_lines.back(), response)) std::exit(1);
    expect_ok(response, "priming solve");
  }

  constexpr int kReps = 5;

  // Warm in-process: canonicalize + probe + denormalize, no text layer.
  double inproc_elapsed = std::numeric_limits<double>::infinity();
  benchutil::Checksum fronts;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (const service::SolveRequest& request : requests) {
      const auto reply = broker.solve(request);
      if (!reply.has_value() || !reply->cache_hit) {
        std::fprintf(stderr, "warm in-process pass produced a non-warm reply\n");
        std::exit(1);
      }
      if (rep == 0) fronts.add(service::front_checksum(reply->front));
    }
    inproc_elapsed = std::min(inproc_elapsed, seconds_since(start));
  }
  const double inproc_per_sec = static_cast<double>(requests.size()) / inproc_elapsed;

  // Warm over the wire: the same lookups through parse + response rendering.
  double wire_elapsed = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (const std::string& line : solve_lines) {
      response.clear();
      if (!session.handle_line(line, response)) std::exit(1);
      if (response.find("cache=hit") == std::string::npos) {
        std::fprintf(stderr, "warm wire pass produced a non-warm reply\n");
        std::exit(1);
      }
    }
    wire_elapsed = std::min(wire_elapsed, seconds_since(start));
  }
  const double wire_per_sec = static_cast<double>(solve_lines.size()) / wire_elapsed;

  // Concurrent TCP: the same warm lookups through the full concurrent front
  // — sockets, per-connection session threads, and the broker's shared
  // batch queue (`solve_batched`). One row per connection count.
  constexpr std::size_t kTotalConcurrentSolves = 96;
  struct ConcurrentRow {
    std::size_t connections;
    double requests_per_sec;
  };
  std::vector<ConcurrentRow> concurrent_rows;
  for (const std::size_t connections : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    auto bound = service::TcpServer::bind_localhost(0);
    if (!bound.has_value()) {
      std::fprintf(stderr, "tcp bind failed: %s\n", bound.error().to_string().c_str());
      std::exit(1);
    }
    service::TcpServer tcp = std::move(bound.value());
    service::ServerOptions server_options;
    server_options.max_connections = connections;
    std::thread accept_thread([&] { (void)tcp.serve(broker, server_options); });

    std::atomic<std::size_t> ok{0};
    std::atomic<std::size_t> err{0};
    const std::size_t per_client = kTotalConcurrentSolves / connections;
    const auto start = std::chrono::steady_clock::now();
    {
      std::vector<std::thread> clients;
      for (std::size_t c = 0; c < connections; ++c) {
        clients.emplace_back([&, c] {
          run_bench_client(tcp.port(), "conn" + std::to_string(c),
                           requests[c % requests.size()].instance, per_client, ok, err);
        });
      }
      for (std::thread& client : clients) client.join();
    }
    const double elapsed = seconds_since(start);
    tcp.request_stop();
    accept_thread.join();
    if (ok.load() != per_client * connections || err.load() != 0) {
      std::fprintf(stderr, "concurrent pass dropped requests: ok=%zu err=%zu want=%zu\n",
                   ok.load(), err.load(), per_client * connections);
      std::exit(1);
    }
    concurrent_rows.push_back({connections, static_cast<double>(ok.load()) / elapsed});
  }

  // Saturation: a tiny admission queue (high watermark 2) under 16 clients —
  // measures what fraction of offered load the broker sheds as `overloaded`
  // instead of queueing without bound. Structured refusals, no hangs.
  double shed_rate = 0.0;
  {
    service::BrokerOptions saturated_options;
    saturated_options.queue_high_watermark = 2;
    saturated_options.queue_low_watermark = 1;
    service::Broker saturated(saturated_options);
    for (const service::SolveRequest& request : requests) {
      if (!saturated.solve(request).has_value()) std::exit(1);  // warm its cache
    }
    auto bound = service::TcpServer::bind_localhost(0);
    if (!bound.has_value()) std::exit(1);
    service::TcpServer tcp = std::move(bound.value());
    service::ServerOptions server_options;
    server_options.max_connections = 16;
    std::thread accept_thread([&] { (void)tcp.serve(saturated, server_options); });

    std::atomic<std::size_t> ok{0};
    std::atomic<std::size_t> err{0};
    {
      std::vector<std::thread> clients;
      for (std::size_t c = 0; c < 16; ++c) {
        clients.emplace_back([&, c] {
          run_bench_client(tcp.port(), "sat" + std::to_string(c),
                           requests[c % requests.size()].instance, 12, ok, err);
        });
      }
      for (std::thread& client : clients) client.join();
    }
    tcp.request_stop();
    accept_thread.join();
    const std::size_t offered = ok.load() + err.load();
    shed_rate = offered == 0 ? 0.0 : static_cast<double>(err.load()) / static_cast<double>(offered);
  }

  // Snapshot persistence: save the primed cache, load it into a cold broker.
  const std::string path = "BENCH_serving.snapshot.tmp";
  double save_elapsed = std::numeric_limits<double>::infinity();
  double load_elapsed = std::numeric_limits<double>::infinity();
  std::size_t entries = 0;
  std::size_t bytes = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto save_start = std::chrono::steady_clock::now();
    const auto saved = broker.save_snapshot(path);
    save_elapsed = std::min(save_elapsed, seconds_since(save_start));
    if (!saved.has_value()) {
      std::fprintf(stderr, "snapshot save failed: %s\n", saved.error().to_string().c_str());
      std::exit(1);
    }
    entries = saved->entries;
    bytes = saved->bytes;

    service::Broker fresh;
    const auto load_start = std::chrono::steady_clock::now();
    const auto loaded = fresh.load_snapshot(path);
    load_elapsed = std::min(load_elapsed, seconds_since(load_start));
    if (!loaded.has_value() || loaded->entries != entries) {
      std::fprintf(stderr, "snapshot load failed or dropped entries\n");
      std::exit(1);
    }
  }
  std::remove(path.c_str());
  const double save_per_sec = static_cast<double>(entries) / save_elapsed;
  const double load_per_sec = static_cast<double>(entries) / load_elapsed;

  // Journal append overhead: a miss-heavy workload (every solve is a cache
  // miss, so every solve appends one group-committed record) with the
  // write-ahead journal detached vs attached. The gap is the full price of
  // durability at fsync_every=8: record encoding, the append write, and an
  // amortized fsync every 8th solve.
  constexpr std::size_t kJournalSolves = 16;
  const std::string journal_path = "BENCH_serving.journal.tmp";
  double journal_off_elapsed = std::numeric_limits<double>::infinity();
  double journal_on_elapsed = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    // Fresh seeds each rep keep every solve a miss in its fresh broker.
    std::vector<service::SolveRequest> misses;
    for (std::size_t i = 0; i < kJournalSolves; ++i) {
      misses.push_back(base_request(90'000 + static_cast<std::uint64_t>(rep) * 1'000 + i * 13));
    }

    {
      service::Broker cold;
      const auto start = std::chrono::steady_clock::now();
      for (const service::SolveRequest& request : misses) {
        if (!cold.solve(request).has_value()) std::exit(1);
      }
      journal_off_elapsed = std::min(journal_off_elapsed, seconds_since(start));
    }
    {
      std::remove(journal_path.c_str());
      service::Broker cold;
      service::JournalOptions journal_options;
      journal_options.fsync_every = 8;
      if (!cold.recover("", journal_path, journal_options).has_value()) std::exit(1);
      const auto start = std::chrono::steady_clock::now();
      for (const service::SolveRequest& request : misses) {
        if (!cold.solve(request).has_value()) std::exit(1);
      }
      journal_on_elapsed = std::min(journal_on_elapsed, seconds_since(start));
      if (cold.journal_stats().records_appended != kJournalSolves) {
        std::fprintf(stderr, "journal pass lost appends\n");
        std::exit(1);
      }
    }
  }
  std::remove(journal_path.c_str());
  const double journal_off_per_sec = static_cast<double>(kJournalSolves) / journal_off_elapsed;
  const double journal_on_per_sec = static_cast<double>(kJournalSolves) / journal_on_elapsed;

  std::printf("%-18s %9s %12s %16s\n", "path", "requests", "time", "requests/s");
  std::printf("%-18s %9zu %11.3fms %16.0f\n", "warm in-process", requests.size(),
              inproc_elapsed * 1e3, inproc_per_sec);
  std::printf("%-18s %9zu %11.3fms %16.0f\n", "warm wire", solve_lines.size(),
              wire_elapsed * 1e3, wire_per_sec);
  std::printf("\nwire/in-process: %.2fx   fronts %s\n", wire_per_sec / inproc_per_sec,
              fronts.hex().c_str());

  std::printf("\nconcurrent TCP (warm, %zu solves total):\n", kTotalConcurrentSolves);
  std::printf("%-18s %16s\n", "connections", "requests/s");
  for (const ConcurrentRow& row : concurrent_rows) {
    std::printf("%-18zu %16.0f\n", row.connections, row.requests_per_sec);
  }
  std::printf("\nsaturation (16 clients, queue high watermark 2): shed rate %.1f%%\n",
              shed_rate * 100.0);

  std::printf("\nsnapshot: %zu entries, %zu bytes   save %.0f entries/s   load %.0f entries/s\n",
              entries, bytes, save_per_sec, load_per_sec);

  std::printf("\njournal append overhead (%zu miss solves, fsync every 8):\n", kJournalSolves);
  std::printf("%-18s %16s\n", "journal", "requests/s");
  std::printf("%-18s %16.0f\n", "off", journal_off_per_sec);
  std::printf("%-18s %16.0f\n", "on", journal_on_per_sec);
  std::printf("on/off: %.3fx\n", journal_on_per_sec / journal_off_per_sec);

  report.field("warm_inproc_requests_per_sec", inproc_per_sec)
      .field("warm_wire_requests_per_sec", wire_per_sec)
      .field("wire_over_inproc", wire_per_sec / inproc_per_sec);
  // A multi-connection row measured on one core times the scheduler, not
  // the server: compare_bench.py only gates `_per_sec` keys, so on a 1-core
  // host those rows are recorded under an ungated key instead.
  const bool multi_core = std::thread::hardware_concurrency() > 1;
  for (const ConcurrentRow& row : concurrent_rows) {
    const bool gated = row.connections == 1 || multi_core;
    const std::string key = "tcp_" + std::to_string(row.connections) + "conn_requests_per_sec" +
                            (gated ? "" : "_ungated");
    report.field(key.c_str(), row.requests_per_sec);
  }
  report.field("saturation_shed_rate", shed_rate)
      .field("snapshot_entries", static_cast<std::uint64_t>(entries))
      .field("snapshot_bytes", static_cast<std::uint64_t>(bytes))
      .field("snapshot_save_entries_per_sec", save_per_sec)
      .field("snapshot_load_entries_per_sec", load_per_sec)
      .field("journal_off_requests_per_sec", journal_off_per_sec)
      .field("journal_on_requests_per_sec", journal_on_per_sec)
      .field("journal_on_over_off", journal_on_per_sec / journal_off_per_sec)
      .field("fronts_checksum", fronts.hex());
  report.write();
}

// --- Microbenchmarks. -------------------------------------------------------

void bm_wire_warm_solve(benchmark::State& state) {
  // One warm solve line end to end: parse, dispatch, render the full reply.
  service::Broker broker;
  service::Session session(broker);
  std::string response;
  const service::SolveRequest request = base_request(3);
  for (const std::string& line : instance_lines("x", request.instance)) {
    response.clear();
    if (!session.handle_line(line, response)) state.SkipWithError("upload failed");
  }
  response.clear();
  if (!session.handle_line("solve x obj=pareto method=heuristic sweep=16", response)) {
    state.SkipWithError("prime failed");
  }
  for (auto _ : state) {
    response.clear();
    benchmark::DoNotOptimize(
        session.handle_line("solve x obj=pareto method=heuristic sweep=16", response));
  }
}
BENCHMARK(bm_wire_warm_solve)->Unit(benchmark::kMicrosecond);

void bm_stats_line(benchmark::State& state) {
  service::Broker broker;
  service::Session session(broker);
  std::string response;
  for (auto _ : state) {
    response.clear();
    benchmark::DoNotOptimize(session.handle_line("stats", response));
  }
}
BENCHMARK(bm_stats_line)->Unit(benchmark::kMicrosecond);

void bm_snapshot_codec(benchmark::State& state) {
  // Encode + decode of a primed cache, no filesystem.
  service::Broker broker;
  for (std::size_t b = 0; b < kBases; ++b) {
    if (!broker.solve(base_request(b * 7 + 3)).has_value()) {
      state.SkipWithError("prime solve failed");
    }
  }
  const std::string snapshot_path = "BENCH_serving.codec.tmp";
  if (!broker.save_snapshot(snapshot_path).has_value()) state.SkipWithError("save failed");
  for (auto _ : state) {
    service::Broker fresh;
    benchmark::DoNotOptimize(fresh.load_snapshot(snapshot_path));
  }
  std::remove(snapshot_path.c_str());
}
BENCHMARK(bm_snapshot_codec)->Unit(benchmark::kMicrosecond);

}  // namespace

RELAP_BENCH_MAIN(print_tables)
