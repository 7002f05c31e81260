// Tests for service/server.hpp: the line protocol round-trips instances and
// solves through a scripted session, malformed wire input always comes back
// as a structured `err` line (never an assert — the raw-InstanceData
// admission path is the only entry point), wire-level caps bound memory, and
// the loopback TCP transport serves the same protocol end to end.

#include "relap/service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/service/broker.hpp"
#include "relap/util/strings.hpp"

namespace relap::service {
namespace {

/// Feeds one line, returns the response text; fails the test if the session
/// closed (callers that expect closure use feed_expect_closed).
std::string feed(Session& session, const std::string& line) {
  std::string out;
  EXPECT_TRUE(session.handle_line(line, out)) << "session closed on: " << line;
  return out;
}

std::string feed_expect_closed(Session& session, const std::string& line) {
  std::string out;
  EXPECT_FALSE(session.handle_line(line, out));
  return out;
}

/// True iff `response` starts with one `err <seq> <code> ...` line: a
/// numeric sequence number (the session's line ordinal) between the `err`
/// marker and the code. Empty `code` accepts any code.
bool is_err(const std::string& response, std::string_view code = {}) {
  if (response.rfind("err ", 0) != 0) return false;
  std::size_t i = 4;
  std::size_t digits = 0;
  while (i < response.size() && response[i] >= '0' && response[i] <= '9') {
    ++i;
    ++digits;
  }
  if (digits == 0 || i >= response.size() || response[i] != ' ') return false;
  if (code.empty()) return true;
  return response.compare(i + 1, code.size(), code) == 0;
}

/// The `<seq>` of an `err <seq> <code> ...` response (0 if unparseable).
std::uint64_t err_seq(const std::string& response) {
  if (response.rfind("err ", 0) != 0) return 0;
  return std::strtoull(response.c_str() + 4, nullptr, 10);
}

/// The protocol lines registering a generated instance under `name`.
std::vector<std::string> upload_lines(const std::string& name, std::uint64_t seed,
                                      std::size_t stages = 3, std::size_t processors = 3) {
  const auto pipe = gen::random_uniform_pipeline(stages, seed);
  gen::PlatformGenOptions options;
  options.processors = processors;
  const auto plat = gen::random_fully_heterogeneous(options, seed + 1);
  const InstanceData instance = InstanceData::from(pipe, plat);

  std::vector<std::string> lines;
  lines.push_back("instance " + name);
  lines.push_back("input " + util::format_double(instance.input_data));
  for (const LabeledStage& stage : instance.stages) {
    lines.push_back("stage " + std::to_string(stage.position) + ' ' +
                    util::format_double(stage.work) + ' ' +
                    util::format_double(stage.output_data));
  }
  for (const LabeledProcessor& proc : instance.processors) {
    std::string line = "proc " + util::format_double(proc.speed) + ' ' +
                       util::format_double(proc.failure_prob) + ' ' +
                       util::format_double(proc.in_bandwidth) + ' ' +
                       util::format_double(proc.out_bandwidth);
    for (const double b : proc.links) line += ' ' + util::format_double(b);
    lines.push_back(std::move(line));
  }
  lines.push_back("end");
  return lines;
}

void upload(Session& session, const std::string& name, std::uint64_t seed) {
  const std::vector<std::string> lines = upload_lines(name, seed);
  std::string response;
  for (const std::string& line : lines) response = feed(session, line);
  ASSERT_EQ(response.rfind("ok instance " + name, 0), 0U) << response;
}

// --- Scripted sessions. -----------------------------------------------------

TEST(Server, ScriptedSessionEndToEnd) {
  Broker broker;
  Session session(broker);

  EXPECT_EQ(feed(session, "ping"), "ok pong\n");
  EXPECT_EQ(feed(session, ""), "");            // blank lines are ignored
  EXPECT_EQ(feed(session, "# comment"), "");   // so are comments

  upload(session, "job", 5);

  const std::string cold = feed(session, "solve job obj=pareto");
  EXPECT_NE(cold.find("ok solve name=job cache=miss"), std::string::npos) << cold;
  EXPECT_NE(cold.find("trace {\"queue_wait_s\":"), std::string::npos);
  EXPECT_NE(cold.find("point 0 latency="), std::string::npos);
  EXPECT_NE(cold.find("mapping=[0.."), std::string::npos);
  EXPECT_NE(cold.find("done\n"), std::string::npos);

  // The identical request hits warm with the identical front checksum.
  const std::string warm = feed(session, "solve job obj=pareto");
  EXPECT_NE(warm.find("cache=hit"), std::string::npos) << warm;
  const auto front_of = [](const std::string& response) {
    const std::size_t pos = response.find("front=");
    return response.substr(pos, response.find(' ', pos) - pos);
  };
  EXPECT_EQ(front_of(cold), front_of(warm));

  const std::string stats = feed(session, "stats");
  EXPECT_EQ(stats.rfind("ok stats {\"cache\":", 0), 0U) << stats;
  EXPECT_NE(stats.find("\"requests_total\":2"), std::string::npos) << stats;

  EXPECT_EQ(feed(session, "drop job"), "ok drop job\n");
  const std::string gone = feed(session, "solve job");
  EXPECT_TRUE(is_err(gone, "protocol")) << gone;

  EXPECT_EQ(feed_expect_closed(session, "quit"), "ok bye\n");
  EXPECT_FALSE(session.shutdown_requested());
}

TEST(Server, SolveRepliesFeedTheRenderHistogram) {
  Broker broker;
  Session session(broker);
  upload(session, "job", 5);
  ASSERT_NE(feed(session, "solve job obj=pareto").find("done\n"), std::string::npos);
  EXPECT_TRUE(is_err(feed(session, "solve job obj=nope"), "protocol"));
  EXPECT_EQ(broker.metrics().render.count(), 1U);  // errors render no reply
  EXPECT_EQ(broker.metrics().write.count(), 0U);   // no socket on a bare session

  const std::string stats = feed(session, "stats");
  EXPECT_NE(stats.find("\"render\":{\"count\":1,"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"write\":{\"count\":0,"), std::string::npos) << stats;
}

TEST(Server, ObjectiveAndMethodKnobs) {
  Broker broker;
  Session session(broker);
  upload(session, "job", 9);

  const std::string minfp = feed(session, "solve job obj=minfp threshold=1e9");
  EXPECT_NE(minfp.find("ok solve"), std::string::npos) << minfp;
  EXPECT_NE(minfp.find("points=1"), std::string::npos) << minfp;

  const std::string heuristic =
      feed(session, "solve job obj=pareto method=heuristic sweep=8 budget=1000");
  EXPECT_NE(heuristic.find("ok solve"), std::string::npos) << heuristic;

  // An infeasible threshold is a structured solver error, not a crash.
  const std::string infeasible = feed(session, "solve job obj=minfp threshold=1e-12");
  EXPECT_TRUE(is_err(infeasible, "infeasible")) << infeasible;
}

TEST(Server, ShutdownPropagates) {
  Broker broker;
  Session session(broker);
  EXPECT_EQ(feed_expect_closed(session, "shutdown"), "ok shutdown\n");
  EXPECT_TRUE(session.shutdown_requested());
}

// --- Hardening: malformed wire input. ---------------------------------------

TEST(Server, MalformedInputAlwaysAnswersErrAndNeverKillsTheSession) {
  Broker broker;
  Session session(broker);
  const std::vector<std::string> garbage = {
      "frobnicate",
      "solve",
      "solve nosuch",
      "instance",
      "instance a b c",
      "end",
      "input 1",
      "proc 1 2 3 4",
      "snapshot",
      "snapshot frobnicate /tmp/x",
      "snapshot save",
      "drop",
      "drop nosuch",
      "solve x obj=",
      "solve x =v",
      "solve x obj=banana",
  };
  for (const std::string& line : garbage) {
    const std::string response = feed(session, line);
    EXPECT_TRUE(is_err(response)) << "line '" << line << "' -> " << response;
    EXPECT_EQ(response.find('\n'), response.size() - 1) << "multi-line error for " << line;
  }

  // Inside a block, bad records error but the block survives...
  EXPECT_EQ(feed(session, "instance x"), "");
  for (const std::string& line :
       {std::string("stage zero 1 2"), std::string("stage 0 1"), std::string("proc fast 1 2 3"),
        std::string("input"), std::string("links"), std::string("solve x")}) {
    const std::string response = feed(session, line);
    EXPECT_TRUE(is_err(response)) << "block line '" << line << "' -> " << response;
  }
  // ...and a structurally nonsensical instance (no stages/procs) is a
  // structured admission error at solve time, not an assert.
  EXPECT_EQ(feed(session, "end").rfind("ok instance x", 0), 0U);
  const std::string empty_solve = feed(session, "solve x");
  EXPECT_TRUE(is_err(empty_solve)) << empty_solve;

  // Nonsense numerics (negative speeds, NaN work...) reject as malformed.
  EXPECT_EQ(feed(session, "instance y"), "");
  EXPECT_EQ(feed(session, "input 1"), "");
  EXPECT_EQ(feed(session, "stage 0 nan 1"), "");
  EXPECT_EQ(feed(session, "proc -1 0.5 1 1 1"), "");
  EXPECT_EQ(feed(session, "end").rfind("ok instance y", 0), 0U);
  const std::string bad_solve = feed(session, "solve y");
  EXPECT_TRUE(is_err(bad_solve, "malformed")) << bad_solve;

  // After all of that the session still serves a real request.
  upload(session, "ok_instance", 5);
  EXPECT_NE(feed(session, "solve ok_instance").find("ok solve"), std::string::npos);
}

TEST(Server, WireCapsBoundMemory) {
  Broker broker;
  SessionOptions options;
  options.max_stage_records = 2;
  options.max_processor_records = 2;
  options.max_instances = 1;
  Session session(broker, options);

  EXPECT_EQ(feed(session, "instance a"), "");
  EXPECT_EQ(feed(session, "stage 0 1 1"), "");
  EXPECT_EQ(feed(session, "stage 1 1 1"), "");
  EXPECT_TRUE(is_err(feed(session, "stage 2 1 1"), "oversized"));
  EXPECT_EQ(feed(session, "proc 1 0 1 1"), "");
  EXPECT_EQ(feed(session, "proc 1 0 1 1"), "");
  EXPECT_TRUE(is_err(feed(session, "proc 1 0 1 1"), "oversized"));
  EXPECT_EQ(feed(session, "end").rfind("ok instance a", 0), 0U);

  // The instance table cap counts names, and re-registering is not growth.
  EXPECT_TRUE(is_err(feed(session, "instance b"), "oversized"));
  EXPECT_EQ(feed(session, "instance a"), "");
  EXPECT_EQ(feed(session, "end").rfind("ok instance a", 0), 0U);
}

TEST(Server, ProcLinkRowLengthValidatedAtEnd) {
  Broker broker;
  Session session(broker);
  EXPECT_EQ(feed(session, "instance x"), "");
  EXPECT_EQ(feed(session, "input 1"), "");
  EXPECT_EQ(feed(session, "stage 0 1 1"), "");
  EXPECT_EQ(feed(session, "proc 1 0 1 1 5 5 5"), "");  // 3 links, but m = 2
  EXPECT_EQ(feed(session, "proc 1 0 1 1"), "");
  const std::string response = feed(session, "end");
  EXPECT_TRUE(is_err(response, "protocol")) << response;
}

TEST(Server, ErrSeqCorrelatesWithSessionLineOrdinals) {
  Broker broker;
  Session session(broker);

  // Lines 1-3 are fine; blanks and comments do not consume ordinals.
  EXPECT_EQ(feed(session, "ping"), "ok pong\n");
  EXPECT_EQ(feed(session, ""), "");
  EXPECT_EQ(feed(session, "# comment"), "");
  EXPECT_EQ(feed(session, "ping"), "ok pong\n");
  EXPECT_EQ(feed(session, "ping"), "ok pong\n");

  // Line 4 and 5 fail: their err lines carry exactly those ordinals, so a
  // pipelining client can attribute each failure to the line that caused it.
  const std::string first = feed(session, "frobnicate");
  ASSERT_TRUE(is_err(first, "protocol")) << first;
  EXPECT_EQ(err_seq(first), 4U) << first;

  EXPECT_EQ(feed(session, "   "), "");  // whitespace-only: still no ordinal

  const std::string second = feed(session, "solve nosuch");
  ASSERT_TRUE(is_err(second, "protocol")) << second;
  EXPECT_EQ(err_seq(second), 5U) << second;

  // A successful line still advances the ordinal for the next failure.
  EXPECT_EQ(feed(session, "ping"), "ok pong\n");
  const std::string third = feed(session, "drop nosuch");
  ASSERT_TRUE(is_err(third)) << third;
  EXPECT_EQ(err_seq(third), 7U) << third;
}

// --- Stream and TCP transports. ---------------------------------------------

TEST(Server, ServeStreamRunsAScript) {
  Broker broker;
  std::istringstream in("ping\nping\nquit\nping\n");  // the trailing ping is never read
  std::ostringstream out;
  EXPECT_FALSE(serve_stream(broker, in, out));
  EXPECT_EQ(out.str(), "ok pong\nok pong\nok bye\n");

  std::istringstream in2("shutdown\n");
  std::ostringstream out2;
  EXPECT_TRUE(serve_stream(broker, in2, out2));
}

/// Minimal blocking loopback client for the TCP test.
class Client {
 public:
  explicit Client(std::uint16_t port) {
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
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  void send_text(const std::string& text) {
    ASSERT_EQ(::send(fd_, text.data(), text.size(), 0),
              static_cast<ssize_t>(text.size()));
  }

  /// Reads until the peer closes the connection.
  std::string read_all() {
    std::string out;
    char buffer[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
      if (n <= 0) break;
      out.append(buffer, static_cast<std::size_t>(n));
    }
    return out;
  }

 private:
  int fd_ = -1;
};

TEST(Server, TcpLoopbackServesSessionsUntilShutdown) {
  Broker broker;
  auto bound = TcpServer::bind_localhost(0);
  ASSERT_TRUE(bound.has_value()) << bound.error().to_string();
  TcpServer server = std::move(bound.value());
  ASSERT_TRUE(server.bound());
  ASSERT_NE(server.port(), 0);

  std::size_t sessions = 0;
  std::thread accept_thread([&] { sessions = server.serve(broker); });

  {
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    std::string script = "ping\r\n";  // CRLF tolerated
    for (const std::string& line : upload_lines("job", 5)) script += line + '\n';
    script += "solve job obj=pareto\nquit\n";
    client.send_text(script);
    const std::string response = client.read_all();
    EXPECT_EQ(response.rfind("ok pong\nok instance job", 0), 0U) << response;
    EXPECT_NE(response.find("ok solve name=job cache=miss"), std::string::npos);
    EXPECT_NE(response.find("done\nok bye\n"), std::string::npos);
  }
  {
    // A second connection shares the broker (and therefore the warm cache).
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    std::string script;
    for (const std::string& line : upload_lines("job", 5)) script += line + '\n';
    script += "solve job obj=pareto\nshutdown\n";
    client.send_text(script);
    const std::string response = client.read_all();
    EXPECT_NE(response.find("cache=hit"), std::string::npos) << response;
    EXPECT_NE(response.find("ok shutdown\n"), std::string::npos);
  }

  accept_thread.join();
  EXPECT_EQ(sessions, 2U);

  // Wire-layer histograms: one render per solve reply, one timed write per
  // non-empty response (pong, instance, solve, bye; instance, solve,
  // shutdown). Block lines answer nothing and send nothing.
  EXPECT_EQ(broker.metrics().render.count(), 2U);
  EXPECT_EQ(broker.metrics().write.count(), 7U);
}

// --- Concurrent serving. ------------------------------------------------------

/// The `front=0x...` checksum field of a solve response — the determinism
/// witness. (Never compare cache=hit/miss across connections: which tenant
/// leads a deduped batch is timing-dependent; the front bits are not.)
std::string front_of(const std::string& response) {
  const std::size_t pos = response.find("front=");
  EXPECT_NE(pos, std::string::npos) << response;
  if (pos == std::string::npos) return {};
  return response.substr(pos, response.find(' ', pos) - pos);
}

/// One whole client session: upload seed `seed` as `name`, solve, quit.
/// Returns the full response text.
std::string run_client_session(std::uint16_t port, const std::string& name,
                               std::uint64_t seed) {
  Client client(port);
  if (!client.connected()) return {};
  std::string script;
  for (const std::string& line : upload_lines(name, seed)) script += line + '\n';
  script += "solve " + name + " obj=pareto\nquit\n";
  client.send_text(script);
  return client.read_all();
}

TEST(Server, TcpConcurrentIdenticalClientsCoalesceOntoOneSolve) {
  Broker broker;
  auto bound = TcpServer::bind_localhost(0);
  ASSERT_TRUE(bound.has_value()) << bound.error().to_string();
  TcpServer server = std::move(bound.value());
  std::thread accept_thread([&] { (void)server.serve(broker, ServerOptions{}); });

  // Two tenants present the identical instance under different names at the
  // same time: the shared batch queue (or the memo cache, if one finishes
  // first) makes sure the broker only ever solves it once.
  std::vector<std::string> responses(2);
  {
    std::thread first([&] { responses[0] = run_client_session(server.port(), "alpha", 5); });
    std::thread second([&] { responses[1] = run_client_session(server.port(), "beta", 5); });
    first.join();
    second.join();
  }
  server.request_stop();
  accept_thread.join();

  for (const std::string& response : responses) {
    EXPECT_NE(response.find("ok solve"), std::string::npos) << response;
  }
  EXPECT_EQ(front_of(responses[0]), front_of(responses[1]));
  EXPECT_EQ(broker.metrics().solves_total.value(), 1U);
  EXPECT_EQ(broker.metrics().requests_total.value(), 2U);
}

TEST(Server, TcpConcurrentServingIsBitIdenticalToSequentialAcrossPoolSizes) {
  constexpr std::uint64_t kSeeds[] = {11, 12, 13, 14};

  // Sequential reference: one scripted session per seed on a fresh
  // single-threaded broker — the canonical answers.
  std::vector<std::string> reference;
  {
    exec::ThreadPool pool(1);
    BrokerOptions options;
    options.pool = &pool;
    Broker broker(options);
    Session session(broker);
    for (const std::uint64_t seed : kSeeds) {
      const std::string name = "job" + std::to_string(seed);
      upload(session, name, seed);
      reference.push_back(front_of(feed(session, "solve " + name + " obj=pareto")));
    }
  }

  for (const std::size_t pool_size : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    exec::ThreadPool pool(pool_size);
    BrokerOptions options;
    options.pool = &pool;
    Broker broker(options);
    auto bound = TcpServer::bind_localhost(0);
    ASSERT_TRUE(bound.has_value()) << bound.error().to_string();
    TcpServer server = std::move(bound.value());
    std::thread accept_thread([&] { (void)server.serve(broker, ServerOptions{}); });

    // All seeds solved concurrently, one connection each.
    std::vector<std::string> responses(std::size(kSeeds));
    {
      std::vector<std::thread> clients;
      for (std::size_t i = 0; i < std::size(kSeeds); ++i) {
        clients.emplace_back([&, i] {
          responses[i] =
              run_client_session(server.port(), "job" + std::to_string(kSeeds[i]), kSeeds[i]);
        });
      }
      for (std::thread& client : clients) client.join();
    }
    server.request_stop();
    accept_thread.join();

    for (std::size_t i = 0; i < std::size(kSeeds); ++i) {
      EXPECT_EQ(front_of(responses[i]), reference[i])
          << "pool=" << pool_size << " seed=" << kSeeds[i];
    }
  }
}

}  // namespace
}  // namespace relap::service
