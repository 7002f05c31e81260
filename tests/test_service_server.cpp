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

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/service/broker.hpp"
#include "relap/service/snapshot.hpp"
#include "relap/util/fs.hpp"
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

/// The protocol lines registering `instance` under `name`.
std::vector<std::string> instance_block(const std::string& name, const InstanceData& instance) {
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

/// The protocol lines registering a generated instance under `name`.
std::vector<std::string> upload_lines(const std::string& name, std::uint64_t seed,
                                      std::size_t stages = 3, std::size_t processors = 3) {
  gen::PlatformGenOptions options;
  options.processors = processors;
  return instance_block(name,
                        InstanceData::from(gen::random_uniform_pipeline(stages, seed),
                                           gen::random_fully_heterogeneous(options, seed + 1)));
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

TEST(Server, UploadsBeyondTheNormalizableRangeAnswerMalformed) {
  Broker broker;
  Session session(broker);
  // Every value is in range, but normalization divides each column by a
  // power of two near its largest value: the data scale (2^996) underflows
  // the P_in bandwidth, the work scale the speed.
  const std::vector<std::vector<std::string>> uploads = {
      {"instance x", "input 1", "stage 0 1 1e300", "proc 1 0.1 1e-300 1", "end"},
      {"instance x", "input 1", "stage 0 1e300 1", "proc 1e-300 0.1 1 1", "end"},
  };
  for (const std::vector<std::string>& lines : uploads) {
    for (const std::string& line : lines) (void)feed(session, line);
    const std::string response = feed(session, "solve x");
    EXPECT_TRUE(is_err(response, "malformed")) << response;
    EXPECT_NE(response.find("too wide a range"), std::string::npos) << response;
    EXPECT_EQ(feed(session, "ping"), "ok pong\n");
  }
}

TEST(Server, SubnormalRatesAnswerMalformed) {
  // 1e-310 is finite and > 0, but its reciprocal is inf: with zero work and
  // data, 0 * inf used to put latency=-nan points on an exact front.
  Broker broker;
  Session session(broker);
  for (const char* line : {"instance tiny", "input 0", "stage 0 0 0", "proc 1 0.1 1 1",
                           "proc 1e-310 0.2 1e-310 1e-310", "links 1e-310", "end"}) {
    (void)feed(session, line);
  }
  for (const char* solve : {"solve tiny", "solve tiny obj=minlat threshold=0.5"}) {
    const std::string response = feed(session, solve);
    EXPECT_TRUE(is_err(response, "malformed")) << response;
    EXPECT_NE(response.find("finite reciprocals"), std::string::npos) << response;
    EXPECT_EQ(feed(session, "ping"), "ok pong\n");
  }
}

TEST(Server, UploadsWhoseLatenciesOverflowAnswerMalformed) {
  // Every value is in range and normalizes, but the whole pipeline on the
  // 1e-10-speed processor takes 2e308 / 1e-10 time units: fronts used to
  // carry latency=inf points, dominated ones included.
  Broker broker;
  Session session(broker);
  for (const char* line : {"instance o", "input 1", "stage 0 1e308 1", "stage 1 1e308 1",
                           "proc 1 0.1 1 1", "proc 1e-10 0.2 1 1", "links 1", "end"}) {
    (void)feed(session, line);
  }
  for (const char* solve : {"solve o obj=pareto", "solve o obj=minfp threshold=1",
                            "solve o obj=minlat threshold=0.5 method=heuristic"}) {
    const std::string response = feed(session, solve);
    EXPECT_TRUE(is_err(response, "malformed")) << response;
    EXPECT_NE(response.find("latencies can overflow"), std::string::npos) << response;
    EXPECT_EQ(feed(session, "ping"), "ok pong\n");
  }
}

TEST(Server, LatencyInfeasibleRepliesQuoteTheCallersThreshold) {
  // Speeds 1 and 2 run the canonical clock at twice the caller's, so the
  // solver's cap is 1 where the caller asked for 0.5; the reply must say 0.5.
  Broker broker;
  Session session(broker);
  for (const char* line : {"instance u", "input 1", "stage 0 1 1", "stage 1 1 1", "proc 1 0.1 1 1",
                           "proc 2 0.2 1 1", "links 1"}) {
    EXPECT_EQ(feed(session, line), "");
  }
  EXPECT_EQ(feed(session, "end"), "ok instance u stages=2 processors=2\n");
  EXPECT_EQ(feed(session, "solve u obj=minfp threshold=0.5"),
            "err 9 infeasible no interval mapping meets latency threshold 0.5\n");
  EXPECT_EQ(feed(session, "solve u obj=minfp threshold=0.5 method=heuristic"),
            "err 10 infeasible no heuristic candidate meets the latency threshold 0.5\n");
}

TEST(Server, FrontSweepsPastTheCapAnswerMalformed) {
  // A sweep allocates one slot per threshold, so an unbounded count could
  // exhaust memory and abort the whole process.
  Broker broker;
  Session session(broker);
  for (const char* line : {"instance a", "input 1", "stage 0 2 1", "stage 1 3 1", "proc 1 0.1 1 1",
                           "proc 2 0.2 1 1", "links 1"}) {
    EXPECT_EQ(feed(session, line), "");
  }
  EXPECT_EQ(feed(session, "end"), "ok instance a stages=2 processors=2\n");
  std::size_t seq = 9;
  for (const char* sweep : {"18446744073709551615", "1000000000000", "1025"}) {
    EXPECT_EQ(feed(session, std::string("solve a obj=pareto method=heuristic sweep=") + sweep),
              "err " + std::to_string(seq) +
                  " malformed pareto_thresholds must be <= 1024 for a front sweep\n");
    EXPECT_EQ(feed(session, "ping"), "ok pong\n");
    seq += 2;  // the solve and its ping
  }
  const std::string reply = feed(session, "solve a obj=pareto method=heuristic sweep=1024");
  EXPECT_EQ(reply.rfind("ok solve name=a cache=miss", 0), 0U) << reply;
}

/// `count` numerals of one instance column for the fuzz below. They are
/// valid for the column: log-uniform over the whole double range (5e-324 to
/// 1.7e308), or below 1 for failure probabilities. But one column in ten
/// holds 0, inf, nan or -1 at a random position.
std::vector<std::string> fuzz_column(std::mt19937_64& rng, std::size_t count, bool probability) {
  std::vector<std::string> column;
  for (std::size_t i = 0; i < count; ++i) {
    const double mantissa = std::uniform_real_distribution<double>(1.0, 2.0)(rng);
    const int exponent = probability ? -1 - static_cast<int>(rng() % 1074)
                                     : static_cast<int>(rng() % 2098) - 1074;
    column.push_back(util::format_double(std::ldexp(mantissa, exponent)));
  }
  if (rng() % 10 == 0) {
    static constexpr const char* kEdges[] = {"0", "inf", "nan", "-1"};
    const std::size_t at = rng() % count;
    column[at] = kEdges[rng() % 4];
  }
  return column;
}

/// A random instance block named `f`: 1-4 stages in shuffled record order,
/// 1-4 processors, links uniform or given per row.
std::vector<std::string> fuzz_instance_block(std::mt19937_64& rng) {
  const std::size_t n = 1 + rng() % 4;
  const std::size_t m = 1 + rng() % 4;
  const bool uniform_links = rng() % 2 == 0;
  const std::vector<std::string> input = fuzz_column(rng, 1, false);
  const std::vector<std::string> work = fuzz_column(rng, n, false);
  const std::vector<std::string> output = fuzz_column(rng, n, false);
  const std::vector<std::string> speed = fuzz_column(rng, m, false);
  const std::vector<std::string> fp = fuzz_column(rng, m, true);
  const std::vector<std::string> in = fuzz_column(rng, m, false);
  const std::vector<std::string> out = fuzz_column(rng, m, false);
  const std::vector<std::string> links = fuzz_column(rng, uniform_links ? 1 : m * m, false);

  std::vector<std::string> lines = {"instance f", "input " + input[0]};
  std::vector<std::size_t> positions(n);
  std::iota(positions.begin(), positions.end(), std::size_t{0});
  std::shuffle(positions.begin(), positions.end(), rng);
  for (const std::size_t k : positions) {
    lines.push_back("stage " + std::to_string(k) + ' ' + work[k] + ' ' + output[k]);
  }
  for (std::size_t u = 0; u < m; ++u) {
    std::string line = "proc " + speed[u] + ' ' + fp[u] + ' ' + in[u] + ' ' + out[u];
    for (std::size_t v = 0; !uniform_links && v < m; ++v) line += ' ' + links[u * m + v];
    lines.push_back(std::move(line));
  }
  if (uniform_links) lines.push_back("links " + links[0]);
  lines.emplace_back("end");
  return lines;
}

/// A `sweep=` value for the fuzz below: small (0-39, in range from 2), next
/// to the 1024 cap, or any 64-bit numeral.
std::string fuzz_sweep(std::mt19937_64& rng) {
  switch (rng() % 3) {
    case 0:
      return std::to_string(rng() % 40);
    case 1:
      return std::to_string(1023 + rng() % 4);
    default:
      return std::to_string(rng() >> (rng() % 64));
  }
}

/// The (latency, fp) pair of every `point` line of a solve reply; nullopt
/// for a field that does not parse.
std::vector<std::pair<std::optional<double>, std::optional<double>>> reply_points(
    const std::string& response) {
  const auto field = [](std::string_view line, std::string_view key) {
    const std::size_t start = line.find(key) + key.size();
    return util::parse_double(line.substr(start, line.find(' ', start) - start));
  };
  std::vector<std::pair<std::optional<double>, std::optional<double>>> points;
  for (std::size_t start = 0; start < response.size();) {
    const std::size_t end = response.find('\n', start);
    const std::string_view line = std::string_view(response).substr(start, end - start);
    start = end + 1;
    if (line.rfind("point ", 0) == 0) {
      points.emplace_back(field(line, " latency="), field(line, " fp="));
    }
  }
  return points;
}

/// True iff every line of `response` is an `ok` line, an `err <seq>` line
/// or a solve reply's continuation (`trace`, `point`, `done`).
bool well_formed(const std::string& response) {
  if (!response.empty() && response.back() != '\n') return false;
  for (std::size_t start = 0; start < response.size();) {
    const std::size_t end = response.find('\n', start);
    const std::string line = response.substr(start, end - start);
    start = end + 1;
    if (line.rfind("ok ", 0) != 0 && !is_err(line) && line.rfind("trace ", 0) != 0 &&
        line.rfind("point ", 0) != 0 && line != "done") {
      return false;
    }
  }
  return true;
}

TEST(Server, SeededNumeralFuzzOnlyEverAnswersStructuredLines) {
  static constexpr const char* kObjectives[] = {"pareto", "minfp", "minlat"};
  static constexpr const char* kMethods[] = {"auto", "exact", "heuristic", "exhaustive"};
  std::size_t solved = 0;
  std::size_t too_wide = 0;
  std::size_t capped = 0;
  for (const std::uint64_t seed : {101U, 202U, 303U}) {
    Broker broker;
    Session session(broker);
    std::mt19937_64 rng(seed);
    for (int iteration = 0; iteration < 700; ++iteration) {
      for (const std::string& line : fuzz_instance_block(rng)) {
        const std::string response = feed(session, line);
        ASSERT_TRUE(well_formed(response)) << "seed " << seed << ": " << line << " -> " << response;
      }
      std::string solve = "solve f obj=";
      solve += kObjectives[rng() % 3];
      solve += " method=";
      solve += kMethods[rng() % 4];
      solve += " threshold=";
      solve += fuzz_column(rng, 1, rng() % 2 == 0)[0];
      solve += " budget=" + std::to_string(1 + rng() % 5000);
      solve += " sweep=" + fuzz_sweep(rng);
      const std::string response = feed(session, solve);
      ASSERT_TRUE(well_formed(response)) << "seed " << seed << ": " << solve << " -> " << response;
      ASSERT_TRUE(response.rfind("ok solve", 0) == 0 || is_err(response)) << response;
      // Every served point is a finite latency with an FP in [0, 1], and no
      // point of a reply strictly dominates another.
      const auto points = reply_points(response);
      for (const auto& [latency, fp] : points) {
        ASSERT_TRUE(latency && std::isfinite(*latency)) << solve << " -> " << response;
        ASSERT_TRUE(fp && *fp >= 0.0 && *fp <= 1.0) << solve << " -> " << response;
      }
      for (const auto& a : points) {
        for (const auto& b : points) {
          ASSERT_FALSE(*a.first <= *b.first && *a.second <= *b.second &&
                       (*a.first < *b.first || *a.second < *b.second))
              << solve << " -> " << response;
        }
      }
      solved += response.rfind("ok solve", 0) == 0 ? 1 : 0;
      too_wide += response.find("too wide a range") != std::string::npos ? 1 : 0;
      capped += response.find("pareto_thresholds must be <=") != std::string::npos ? 1 : 0;
      ASSERT_EQ(feed(session, "ping"), "ok pong\n") << "seed " << seed << " after " << solve;
    }
  }
  // The draws reach a real solve, the normalization range rule and the
  // sweep cap.
  EXPECT_GT(solved, 0U);
  EXPECT_GT(too_wide, 0U);
  EXPECT_GT(capped, 0U);
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

// --- Per-session prepared instances. ------------------------------------------

/// The value of a solve response's `key=` field (`canonical=`, `front=`...).
std::string field_of(const std::string& response, const std::string& key) {
  const std::size_t pos = response.find(' ' + key);
  EXPECT_NE(pos, std::string::npos) << key << " in " << response;
  if (pos == std::string::npos) return {};
  const std::size_t start = pos + 1 + key.size();
  return response.substr(start, response.find(' ', start) - start);
}

TEST(Server, ReuploadReplacesAndDropDiscardsThePreparedForm) {
  Broker broker;
  Session session(broker);
  upload(session, "job", 5);
  const std::string first = feed(session, "solve job");

  // Different content under the same name: the new instance answers, cold,
  // exactly as in a session that only ever saw it.
  upload(session, "job", 9);
  const std::string second = feed(session, "solve job");
  EXPECT_NE(second.find("ok solve name=job cache=miss"), std::string::npos) << second;
  EXPECT_NE(field_of(second, "canonical="), field_of(first, "canonical="));
  EXPECT_NE(field_of(second, "front="), field_of(first, "front="));
  Broker fresh_broker;
  Session fresh(fresh_broker);
  upload(fresh, "job", 9);
  const std::string reference = feed(fresh, "solve job");
  EXPECT_EQ(field_of(second, "canonical="), field_of(reference, "canonical="));
  EXPECT_EQ(field_of(second, "front="), field_of(reference, "front="));

  // Lines 1-9 and 11-19 are the uploads.
  EXPECT_EQ(feed(session, "drop job"), "ok drop job\n");
  EXPECT_EQ(feed(session, "solve job"), "err 22 protocol unknown instance 'job'\n");
}

TEST(Server, RefusedUploadsAnswerTheirSolvesInAdmissionOrder) {
  BrokerOptions options;
  options.max_stages = 4;
  options.max_processors = 4;
  Broker broker(options);
  Session session(broker);
  const LatencyHistogram& canonicalized = broker.metrics().prepare;

  // Over the broker's caps but under the wire caps (4096 records): the
  // upload is accepted and never canonicalized, and every solve naming it
  // is refused as oversized, ahead of any knob error. Lines 1-10 upload.
  for (const std::string& line : upload_lines("wide", 11, 2, 5)) (void)feed(session, line);
  EXPECT_EQ(canonicalized.count(), 0U);
  EXPECT_EQ(feed(session, "solve wide"),
            "err 11 oversized request has 5 processors, broker admits at most 4\n");
  EXPECT_EQ(feed(session, "solve wide budget=0"),
            "err 12 oversized request has 5 processors, broker admits at most 4\n");

  // Fails validation: canonicalized once at upload (lines 13-18), and knob
  // errors still come before the instance's own.
  for (const char* line :
       {"instance neg", "input 1", "stage 0 1 1", "proc -1 0.1 1 1", "links 1"}) {
    EXPECT_EQ(feed(session, line), "");
  }
  EXPECT_EQ(feed(session, "end"), "ok instance neg stages=1 processors=1\n");
  EXPECT_EQ(canonicalized.count(), 1U);
  EXPECT_EQ(feed(session, "solve neg budget=0"), "err 19 malformed max_evaluations must be > 0\n");
  EXPECT_EQ(feed(session, "solve neg"),
            "err 20 malformed processor speeds must be finite and > 0\n");

  // A valid upload is canonicalized once, however often it is solved.
  upload(session, "job", 5);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(feed(session, "solve job obj=pareto").find("ok solve"), std::string::npos);
  }
  EXPECT_EQ(canonicalized.count(), 2U);
  EXPECT_EQ(broker.metrics().canonicalize.count(), 3U);
}

TEST(Server, StoredAlgorithmNamesCannotSplitAReply) {
  // A checksum-valid snapshot can carry any algorithm bytes; written raw,
  // this name would turn the reply header into three protocol lines.
  const std::string path = std::string(::testing::TempDir()) + "relap_server_algorithm.snap";
  {
    Broker broker;
    Session session(broker);
    upload(session, "job", 5);
    ASSERT_NE(feed(session, "solve job").find("ok solve"), std::string::npos);
    ASSERT_TRUE(broker.save_snapshot(path).has_value());
  }
  const util::Expected<std::string> bytes = util::fs::read_file(path);
  ASSERT_TRUE(bytes.has_value());
  util::Expected<std::vector<FrontCache::ExportedEntry>> entries = decode_snapshot(*bytes);
  ASSERT_TRUE(entries.has_value());
  ASSERT_EQ(entries->size(), 1U);
  auto report = std::make_shared<algorithms::FrontReport>(*entries.value()[0].value);
  report->algorithm = "x\nok pong\nerr 0 injected";
  entries.value()[0].value = std::move(report);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << encode_snapshot(*entries);
  }

  Broker broker;
  ASSERT_TRUE(broker.load_snapshot(path).has_value());
  Session session(broker);
  upload(session, "job", 5);
  const std::string reply = feed(session, "solve job");
  const std::string header = reply.substr(0, reply.find('\n'));
  EXPECT_EQ(header.rfind("ok solve name=job cache=hit", 0), 0U) << reply;
  EXPECT_EQ(field_of(header, "algorithm="), "x_ok_pong_err_0_injected") << header;
  // The header, the trace line, one line per point and `done`: no more.
  EXPECT_EQ(static_cast<std::size_t>(std::count(reply.begin(), reply.end(), '\n')),
            3 + std::stoul(field_of(header, "points=")))
      << reply;
  EXPECT_EQ(feed(session, "ping"), "ok pong\n");
  std::remove(path.c_str());
}

/// The scripted transcript's session: uploads on three platform classes, a
/// relabeled and rescaled duplicate, a re-upload, a drop, uploads the broker
/// caps refuse or that fail validation, knob errors, and hit and miss solves
/// over every `obj=` and `method=`.
std::vector<std::string> transcript_script() {
  std::vector<std::string> script = {"ping"};
  const auto add = [&](const std::vector<std::string>& lines) {
    script.insert(script.end(), lines.begin(), lines.end());
  };
  gen::PlatformGenOptions three;
  three.processors = 3;
  const InstanceData het = InstanceData::from(gen::random_uniform_pipeline(3, 5),
                                              gen::random_fully_heterogeneous(three, 6));
  const InstanceData comm = InstanceData::from(gen::random_uniform_pipeline(3, 7),
                                               gen::random_comm_homogeneous(three, 8));
  const InstanceData hom = InstanceData::from(gen::random_uniform_pipeline(4, 9),
                                              gen::random_fully_homogeneous(three, 10));
  const std::vector<std::size_t> stage_order = {2, 0, 1};
  const std::vector<std::size_t> processor_order = {1, 2, 0};
  const InstanceData twin = het.relabeled(stage_order, processor_order).scaled(4.0, 0.5, 2.0);

  add(instance_block("het", het));
  for (const char* knobs :
       {"", "", " obj=pareto method=heuristic sweep=4", " obj=pareto method=exhaustive",
        " obj=pareto method=exact", " obj=pareto method=auto budget=10",
        " obj=minfp threshold=1e9", " obj=minfp threshold=1e9",
        " obj=minfp threshold=1e9 method=heuristic", " obj=minfp threshold=1e9 method=exhaustive",
        " obj=minfp threshold=1e9 method=exact",
        " obj=minlat threshold=0.5", " obj=minlat threshold=0.5 method=heuristic",
        " obj=minlat threshold=0.5 method=exhaustive", " obj=minlat threshold=0.5 method=exact",
        " obj=minfp threshold=1e-12", " budget=0", " sweep=1", " obj=minfp threshold=-1",
        " obj=minlat threshold=nan", " obj=banana", " method=fast", " threshold=x"}) {
    script.push_back(std::string("solve het") + knobs);
  }
  add(instance_block("twin", twin));
  script.push_back("solve twin");
  script.push_back("solve twin obj=minfp threshold=2e9");

  add(instance_block("comm", comm));
  add(instance_block("hom", hom));
  for (const char* name : {"comm", "hom"}) {
    for (const char* knobs :
         {"", " obj=minfp threshold=1e9 method=exact", " obj=minlat threshold=0.5 method=exact",
          " obj=minfp threshold=1e9 method=heuristic", " method=exhaustive", " method=exact"}) {
      script.push_back(std::string("solve ") + name + knobs);
    }
  }

  // Re-upload under a taken name: the new content answers, cold.
  add(instance_block("het", InstanceData::from(gen::random_uniform_pipeline(2, 15),
                                               gen::random_fully_heterogeneous(three, 16))));
  script.push_back("solve het");
  script.push_back("solve het obj=minfp threshold=1e9");
  script.push_back("drop het");
  script.push_back("solve het");
  script.push_back("drop het");

  // Over the broker's caps (4 stages, 4 processors) but under the wire caps.
  gen::PlatformGenOptions five;
  five.processors = 5;
  add(instance_block("wide", InstanceData::from(gen::random_uniform_pipeline(2, 11),
                                                gen::random_fully_heterogeneous(five, 12))));
  add(instance_block("long", InstanceData::from(gen::random_uniform_pipeline(5, 13),
                                                gen::random_fully_heterogeneous(three, 14))));
  for (const char* name : {"wide", "long"}) {
    for (const char* knobs : {"", " budget=0", " obj=minfp threshold=-1"}) {
      script.push_back(std::string("solve ") + name + knobs);
    }
  }

  // Uploads that fail validation, answered at solve time.
  add({"instance bad", "input 1", "stage 0 1 1", "stage 0 2 1", "proc 1 0.1 1 1", "links 1",
       "end"});
  add({"instance neg", "input 1", "stage 0 1 1", "proc -1 0.1 1 1", "links 1", "end"});
  add({"instance empty", "end"});
  for (const char* name : {"bad", "neg", "empty"}) {
    for (const char* knobs : {"", " budget=0", " obj=minfp threshold=-1", " sweep=1"}) {
      script.push_back(std::string("solve ") + name + knobs);
    }
  }
  script.push_back("solve twin");
  add({"instance twin", "end"});
  script.push_back("solve twin");
  script.push_back("solve nosuch");
  script.push_back("quit");
  return script;
}

/// Runs the script through one session on a broker capped at 4 stages and
/// 4 processors. `solve_ms=` values and `trace` lines vary from run to run;
/// they are masked.
std::string masked_transcript(bool batch_solves) {
  BrokerOptions options;
  options.max_stages = 4;
  options.max_processors = 4;
  Broker broker(options);
  SessionOptions session_options;
  session_options.batch_solves = batch_solves;
  Session session(broker, session_options);
  std::string transcript;
  for (const std::string& line : transcript_script()) {
    std::string response;
    (void)session.handle_line(line, response);
    std::size_t start = 0;
    for (std::size_t nl = response.find('\n'); nl != std::string::npos;
         nl = response.find('\n', start)) {
      std::string out = response.substr(start, nl - start);
      start = nl + 1;
      if (out.rfind("trace ", 0) == 0) out = "trace *";
      const std::size_t ms = out.find(" solve_ms=");
      if (ms != std::string::npos) out = out.substr(0, ms) + " solve_ms=*";
      transcript += out + '\n';
    }
  }
  return transcript;
}

/// `masked_transcript` as the session answered it when it kept raw records
/// and canonicalized them on every solve.
constexpr std::string_view kRawRecordTranscript = R"golden(ok pong
ok instance het stages=3 processors=3
ok solve name=het cache=miss exact=1 algorithm=exhaustive_pareto points=9 front=0x97aaa4d08a975eca canonical=0x426867d1a9fa4d34 solve_ms=*
trace *
point 0 latency=2.2179040006174544 fp=0.17364636192558625 mapping=[0..0]->{1} [1..2]->{0}
point 1 latency=2.5952155186886072 fp=0.13132939820263279 mapping=[0..0]->{1} [1..2]->{2}
point 2 latency=2.9589971174474834 fp=0.1023808912372286 mapping=[0..2]->{1}
point 3 latency=3.420669539478785 fp=0.07939388766643574 mapping=[0..2]->{0}
point 4 latency=4.0163117260507075 fp=0.032250323865436914 mapping=[0..2]->{2}
point 5 latency=4.852886465241266 fp=0.00812841697807809 mapping=[0..2]->{0,1}
point 6 latency=5.7111498356438775 fp=0.003301816900032728 mapping=[0..2]->{1,2}
point 7 latency=6.172822257675179 fp=0.0025604785901787164 mapping=[0..2]->{0,2}
point 8 latency=7.605039183437659 fp=0.0002621440800563146 mapping=[0..2]->{0,1,2}
done
ok solve name=het cache=hit exact=1 algorithm=exhaustive_pareto points=9 front=0x97aaa4d08a975eca canonical=0x426867d1a9fa4d34 solve_ms=*
trace *
point 0 latency=2.2179040006174544 fp=0.17364636192558625 mapping=[0..0]->{1} [1..2]->{0}
point 1 latency=2.5952155186886072 fp=0.13132939820263279 mapping=[0..0]->{1} [1..2]->{2}
point 2 latency=2.9589971174474834 fp=0.1023808912372286 mapping=[0..2]->{1}
point 3 latency=3.420669539478785 fp=0.07939388766643574 mapping=[0..2]->{0}
point 4 latency=4.0163117260507075 fp=0.032250323865436914 mapping=[0..2]->{2}
point 5 latency=4.852886465241266 fp=0.00812841697807809 mapping=[0..2]->{0,1}
point 6 latency=5.7111498356438775 fp=0.003301816900032728 mapping=[0..2]->{1,2}
point 7 latency=6.172822257675179 fp=0.0025604785901787164 mapping=[0..2]->{0,2}
point 8 latency=7.605039183437659 fp=0.0002621440800563146 mapping=[0..2]->{0,1,2}
done
ok solve name=het cache=miss exact=0 algorithm=heuristic_front_sweep points=3 front=0xbd5c842cafc0aacb canonical=0x426867d1a9fa4d34 solve_ms=*
trace *
point 0 latency=2.5952155186886072 fp=0.13132939820263279 mapping=[0..0]->{1} [1..2]->{2}
point 1 latency=4.0163117260507075 fp=0.032250323865436914 mapping=[0..2]->{2}
point 2 latency=7.605039183437659 fp=0.0002621440800563146 mapping=[0..2]->{0,1,2}
done
ok solve name=het cache=miss exact=1 algorithm=exhaustive_pareto points=9 front=0x97aaa4d08a975eca canonical=0x426867d1a9fa4d34 solve_ms=*
trace *
point 0 latency=2.2179040006174544 fp=0.17364636192558625 mapping=[0..0]->{1} [1..2]->{0}
point 1 latency=2.5952155186886072 fp=0.13132939820263279 mapping=[0..0]->{1} [1..2]->{2}
point 2 latency=2.9589971174474834 fp=0.1023808912372286 mapping=[0..2]->{1}
point 3 latency=3.420669539478785 fp=0.07939388766643574 mapping=[0..2]->{0}
point 4 latency=4.0163117260507075 fp=0.032250323865436914 mapping=[0..2]->{2}
point 5 latency=4.852886465241266 fp=0.00812841697807809 mapping=[0..2]->{0,1}
point 6 latency=5.7111498356438775 fp=0.003301816900032728 mapping=[0..2]->{1,2}
point 7 latency=6.172822257675179 fp=0.0025604785901787164 mapping=[0..2]->{0,2}
point 8 latency=7.605039183437659 fp=0.0002621440800563146 mapping=[0..2]->{0,1,2}
done
ok solve name=het cache=miss exact=1 algorithm=exhaustive_pareto points=9 front=0x97aaa4d08a975eca canonical=0x426867d1a9fa4d34 solve_ms=*
trace *
point 0 latency=2.2179040006174544 fp=0.17364636192558625 mapping=[0..0]->{1} [1..2]->{0}
point 1 latency=2.5952155186886072 fp=0.13132939820263279 mapping=[0..0]->{1} [1..2]->{2}
point 2 latency=2.9589971174474834 fp=0.1023808912372286 mapping=[0..2]->{1}
point 3 latency=3.420669539478785 fp=0.07939388766643574 mapping=[0..2]->{0}
point 4 latency=4.0163117260507075 fp=0.032250323865436914 mapping=[0..2]->{2}
point 5 latency=4.852886465241266 fp=0.00812841697807809 mapping=[0..2]->{0,1}
point 6 latency=5.7111498356438775 fp=0.003301816900032728 mapping=[0..2]->{1,2}
point 7 latency=6.172822257675179 fp=0.0025604785901787164 mapping=[0..2]->{0,2}
point 8 latency=7.605039183437659 fp=0.0002621440800563146 mapping=[0..2]->{0,1,2}
done
ok solve name=het cache=miss exact=0 algorithm=heuristic_front_sweep points=8 front=0xbd84352ab136a700 canonical=0x426867d1a9fa4d34 solve_ms=*
trace *
point 0 latency=2.2179040006174544 fp=0.17364636192558625 mapping=[0..0]->{1} [1..2]->{0}
point 1 latency=2.5952155186886072 fp=0.13132939820263279 mapping=[0..0]->{1} [1..2]->{2}
point 2 latency=2.9589971174474834 fp=0.1023808912372286 mapping=[0..2]->{1}
point 3 latency=3.420669539478785 fp=0.07939388766643574 mapping=[0..2]->{0}
point 4 latency=4.0163117260507075 fp=0.032250323865436914 mapping=[0..2]->{2}
point 5 latency=5.7111498356438775 fp=0.003301816900032728 mapping=[0..2]->{1,2}
point 6 latency=6.172822257675179 fp=0.0025604785901787164 mapping=[0..2]->{0,2}
point 7 latency=7.605039183437659 fp=0.0002621440800563146 mapping=[0..2]->{0,1,2}
done
ok solve name=het cache=miss exact=1 algorithm=exhaustive points=1 front=0xddc738ef0abf3b4b canonical=0x426867d1a9fa4d34 solve_ms=*
trace *
point 0 latency=7.605039183437659 fp=0.0002621440800563146 mapping=[0..2]->{0,1,2}
done
ok solve name=het cache=hit exact=1 algorithm=exhaustive points=1 front=0xddc738ef0abf3b4b canonical=0x426867d1a9fa4d34 solve_ms=*
trace *
point 0 latency=7.605039183437659 fp=0.0002621440800563146 mapping=[0..2]->{0,1,2}
done
ok solve name=het cache=miss exact=0 algorithm=heuristic_suite_+_local_search points=1 front=0xddc738ef0abf3b4b canonical=0x426867d1a9fa4d34 solve_ms=*
trace *
point 0 latency=7.605039183437659 fp=0.0002621440800563146 mapping=[0..2]->{0,1,2}
done
ok solve name=het cache=miss exact=1 algorithm=exhaustive points=1 front=0xddc738ef0abf3b4b canonical=0x426867d1a9fa4d34 solve_ms=*
trace *
point 0 latency=7.605039183437659 fp=0.0002621440800563146 mapping=[0..2]->{0,1,2}
done
ok solve name=het cache=miss exact=1 algorithm=exhaustive points=1 front=0xddc738ef0abf3b4b canonical=0x426867d1a9fa4d34 solve_ms=*
trace *
point 0 latency=7.605039183437659 fp=0.0002621440800563146 mapping=[0..2]->{0,1,2}
done
ok solve name=het cache=miss exact=1 algorithm=exhaustive points=1 front=0xffd6c97d8a26d6c5 canonical=0x426867d1a9fa4d34 solve_ms=*
trace *
point 0 latency=2.2179040006174544 fp=0.17364636192558625 mapping=[0..0]->{1} [1..2]->{0}
done
ok solve name=het cache=miss exact=0 algorithm=heuristic_suite_+_local_search points=1 front=0xffd6c97d8a26d6c5 canonical=0x426867d1a9fa4d34 solve_ms=*
trace *
point 0 latency=2.2179040006174544 fp=0.17364636192558625 mapping=[0..0]->{1} [1..2]->{0}
done
ok solve name=het cache=miss exact=1 algorithm=exhaustive points=1 front=0xffd6c97d8a26d6c5 canonical=0x426867d1a9fa4d34 solve_ms=*
trace *
point 0 latency=2.2179040006174544 fp=0.17364636192558625 mapping=[0..0]->{1} [1..2]->{0}
done
ok solve name=het cache=miss exact=1 algorithm=exhaustive points=1 front=0xffd6c97d8a26d6c5 canonical=0x426867d1a9fa4d34 solve_ms=*
trace *
point 0 latency=2.2179040006174544 fp=0.17364636192558625 mapping=[0..0]->{1} [1..2]->{0}
done
err 26 infeasible no interval mapping meets latency threshold 1e-12
err 27 malformed max_evaluations must be > 0
err 28 malformed pareto_thresholds must be >= 2 for a front sweep
err 29 infeasible no mapping satisfies a negative latency bound
err 30 malformed threshold must not be NaN
err 31 protocol unknown objective 'banana'
err 32 protocol unknown method 'fast'
err 33 protocol unparseable threshold 'x'
ok instance twin stages=3 processors=3
ok solve name=twin cache=hit exact=1 algorithm=exhaustive_pareto points=9 front=0x3375b401b8f198ce canonical=0x426867d1a9fa4d34 solve_ms=*
trace *
point 0 latency=1.1089520003087272 fp=0.17364636192558625 mapping=[0..0]->{0} [1..2]->{2}
point 1 latency=1.2976077593443036 fp=0.13132939820263279 mapping=[0..0]->{0} [1..2]->{1}
point 2 latency=1.4794985587237417 fp=0.1023808912372286 mapping=[0..2]->{0}
point 3 latency=1.7103347697393925 fp=0.07939388766643574 mapping=[0..2]->{2}
point 4 latency=2.0081558630253538 fp=0.032250323865436914 mapping=[0..2]->{1}
point 5 latency=2.426443232620633 fp=0.00812841697807809 mapping=[0..2]->{0,2}
point 6 latency=2.8555749178219387 fp=0.003301816900032728 mapping=[0..2]->{0,1}
point 7 latency=3.0864111288375895 fp=0.0025604785901787164 mapping=[0..2]->{1,2}
point 8 latency=3.8025195917188297 fp=0.0002621440800563146 mapping=[0..2]->{0,1,2}
done
ok solve name=twin cache=miss exact=1 algorithm=exhaustive points=1 front=0x583bdf38d5be073b canonical=0x426867d1a9fa4d34 solve_ms=*
trace *
point 0 latency=3.8025195917188297 fp=0.0002621440800563146 mapping=[0..2]->{0,1,2}
done
ok instance comm stages=3 processors=3
ok instance hom stages=4 processors=3
ok solve name=comm cache=miss exact=1 algorithm=exhaustive_pareto points=3 front=0x52c39c0315252eac canonical=0x2ddd90a1783192b0 solve_ms=*
trace *
point 0 latency=1.7680383390225478 fp=0.2039837390866549 mapping=[0..2]->{0}
point 1 latency=2.6714343540375403 fp=0.04160936581177255 mapping=[0..2]->{0,1}
point 2 latency=3.2058617460619505 fp=0.008487634019309742 mapping=[0..2]->{0,1,2}
done
ok solve name=comm cache=miss exact=1 algorithm=algorithm-3_(comm_homogeneous,_failure_homogeneous) points=1 front=0x12a11d3a8942d8cd canonical=0x2ddd90a1783192b0 solve_ms=*
trace *
point 0 latency=3.2058617460619505 fp=0.008487634019309742 mapping=[0..2]->{0,1,2}
done
ok solve name=comm cache=miss exact=1 algorithm=algorithm-4_(comm_homogeneous,_failure_homogeneous) points=1 front=0x76e3eeab5b16581b canonical=0x2ddd90a1783192b0 solve_ms=*
trace *
point 0 latency=1.7680383390225478 fp=0.2039837390866549 mapping=[0..2]->{0}
done
ok solve name=comm cache=miss exact=0 algorithm=heuristic_suite_+_local_search points=1 front=0x12a11d3a8942d8cd canonical=0x2ddd90a1783192b0 solve_ms=*
trace *
point 0 latency=3.2058617460619505 fp=0.008487634019309742 mapping=[0..2]->{0,1,2}
done
ok solve name=comm cache=miss exact=1 algorithm=exhaustive_pareto points=3 front=0x52c39c0315252eac canonical=0x2ddd90a1783192b0 solve_ms=*
trace *
point 0 latency=1.7680383390225478 fp=0.2039837390866549 mapping=[0..2]->{0}
point 1 latency=2.6714343540375403 fp=0.04160936581177255 mapping=[0..2]->{0,1}
point 2 latency=3.2058617460619505 fp=0.008487634019309742 mapping=[0..2]->{0,1,2}
done
ok solve name=comm cache=miss exact=1 algorithm=exhaustive_pareto points=3 front=0x52c39c0315252eac canonical=0x2ddd90a1783192b0 solve_ms=*
trace *
point 0 latency=1.7680383390225478 fp=0.2039837390866549 mapping=[0..2]->{0}
point 1 latency=2.6714343540375403 fp=0.04160936581177255 mapping=[0..2]->{0,1}
point 2 latency=3.2058617460619505 fp=0.008487634019309742 mapping=[0..2]->{0,1,2}
done
ok solve name=hom cache=miss exact=1 algorithm=exhaustive_pareto points=3 front=0x6c3437bd34569c2b canonical=0x8393f42443d5a942 solve_ms=*
trace *
point 0 latency=5.4975726463206245 fp=0.4778526525993889 mapping=[0..3]->{0}
point 1 latency=6.548643610405758 fp=0.22834315759627222 mapping=[0..3]->{0,1}
point 2 latency=7.599714574490893 fp=0.10911438356029901 mapping=[0..3]->{0,1,2}
done
ok solve name=hom cache=miss exact=1 algorithm=algorithm-1_(fully_homogeneous) points=1 front=0xfe8553200512c5a8 canonical=0x8393f42443d5a942 solve_ms=*
trace *
point 0 latency=7.599714574490893 fp=0.10911438356029901 mapping=[0..3]->{0,1,2}
done
ok solve name=hom cache=miss exact=1 algorithm=algorithm-2_(fully_homogeneous) points=1 front=0xdfcf510f678da22d canonical=0x8393f42443d5a942 solve_ms=*
trace *
point 0 latency=5.4975726463206245 fp=0.4778526525993889 mapping=[0..3]->{0}
done
ok solve name=hom cache=miss exact=0 algorithm=heuristic_suite_+_local_search points=1 front=0xfe8553200512c5a8 canonical=0x8393f42443d5a942 solve_ms=*
trace *
point 0 latency=7.599714574490893 fp=0.10911438356029901 mapping=[0..3]->{0,1,2}
done
ok solve name=hom cache=miss exact=1 algorithm=exhaustive_pareto points=3 front=0x6c3437bd34569c2b canonical=0x8393f42443d5a942 solve_ms=*
trace *
point 0 latency=5.4975726463206245 fp=0.4778526525993889 mapping=[0..3]->{0}
point 1 latency=6.548643610405758 fp=0.22834315759627222 mapping=[0..3]->{0,1}
point 2 latency=7.599714574490893 fp=0.10911438356029901 mapping=[0..3]->{0,1,2}
done
ok solve name=hom cache=miss exact=1 algorithm=exhaustive_pareto points=3 front=0x6c3437bd34569c2b canonical=0x8393f42443d5a942 solve_ms=*
trace *
point 0 latency=5.4975726463206245 fp=0.4778526525993889 mapping=[0..3]->{0}
point 1 latency=6.548643610405758 fp=0.22834315759627222 mapping=[0..3]->{0,1}
point 2 latency=7.599714574490893 fp=0.10911438356029901 mapping=[0..3]->{0,1,2}
done
ok instance het stages=2 processors=3
ok solve name=het cache=miss exact=1 algorithm=exhaustive_pareto points=3 front=0x4cdffe12c5af8317 canonical=0x5789d8370624e16d solve_ms=*
trace *
point 0 latency=1.305219398434092 fp=0.03535117633011309 mapping=[0..1]->{0}
point 1 latency=1.8042948609032798 fp=0.012494346496719766 mapping=[0..1]->{0,2}
point 2 latency=12.923618727105556 fp=0.0050417031000905554 mapping=[0..1]->{0,1,2}
done
ok solve name=het cache=miss exact=1 algorithm=exhaustive points=1 front=0x3dce9132ae0fe47b canonical=0x5789d8370624e16d solve_ms=*
trace *
point 0 latency=12.923618727105556 fp=0.0050417031000905554 mapping=[0..1]->{0,1,2}
done
ok drop het
err 87 protocol unknown instance 'het'
err 88 protocol unknown instance 'het'
ok instance wide stages=2 processors=5
ok instance long stages=5 processors=3
err 110 oversized request has 5 processors, broker admits at most 4
err 111 oversized request has 5 processors, broker admits at most 4
err 112 oversized request has 5 processors, broker admits at most 4
err 113 oversized request has 5 stages, broker admits at most 4
err 114 oversized request has 5 stages, broker admits at most 4
err 115 oversized request has 5 stages, broker admits at most 4
ok instance bad stages=2 processors=1
ok instance neg stages=1 processors=1
ok instance empty stages=0 processors=0
err 131 malformed duplicate stage position 0
err 132 malformed max_evaluations must be > 0
err 133 infeasible no mapping satisfies a negative latency bound
err 134 malformed pareto_thresholds must be >= 2 for a front sweep
err 135 malformed processor speeds must be finite and > 0
err 136 malformed max_evaluations must be > 0
err 137 infeasible no mapping satisfies a negative latency bound
err 138 malformed pareto_thresholds must be >= 2 for a front sweep
err 139 malformed empty pipeline: a request needs at least one stage
err 140 malformed max_evaluations must be > 0
err 141 infeasible no mapping satisfies a negative latency bound
err 142 malformed pareto_thresholds must be >= 2 for a front sweep
ok solve name=twin cache=hit exact=1 algorithm=exhaustive_pareto points=9 front=0x3375b401b8f198ce canonical=0x426867d1a9fa4d34 solve_ms=*
trace *
point 0 latency=1.1089520003087272 fp=0.17364636192558625 mapping=[0..0]->{0} [1..2]->{2}
point 1 latency=1.2976077593443036 fp=0.13132939820263279 mapping=[0..0]->{0} [1..2]->{1}
point 2 latency=1.4794985587237417 fp=0.1023808912372286 mapping=[0..2]->{0}
point 3 latency=1.7103347697393925 fp=0.07939388766643574 mapping=[0..2]->{2}
point 4 latency=2.0081558630253538 fp=0.032250323865436914 mapping=[0..2]->{1}
point 5 latency=2.426443232620633 fp=0.00812841697807809 mapping=[0..2]->{0,2}
point 6 latency=2.8555749178219387 fp=0.003301816900032728 mapping=[0..2]->{0,1}
point 7 latency=3.0864111288375895 fp=0.0025604785901787164 mapping=[0..2]->{1,2}
point 8 latency=3.8025195917188297 fp=0.0002621440800563146 mapping=[0..2]->{0,1,2}
done
ok instance twin stages=0 processors=0
err 146 malformed empty pipeline: a request needs at least one stage
err 147 protocol unknown instance 'nosuch'
ok bye
)golden";

TEST(Server, TranscriptIsByteIdenticalToTheRawRecordSession) {
  EXPECT_EQ(masked_transcript(false), kRawRecordTranscript);
  EXPECT_EQ(masked_transcript(true), kRawRecordTranscript);
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

  /// Sends as much of `bytes` as the peer takes, stopping at the first
  /// failed send (the peer closed) without SIGPIPE, then half-closes.
  void send_until_refused(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t sent = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (sent <= 0) break;
      bytes.remove_prefix(static_cast<std::size_t>(sent));
    }
    ::shutdown(fd_, SHUT_WR);
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
  std::thread accept_thread([&] { sessions = server.serve(broker, ServerOptions{}); });

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

TEST(Server, TcpOverlongLineIsRefusedAndOnlyItsConnectionCloses) {
  Broker broker;
  auto bound = TcpServer::bind_localhost(0);
  ASSERT_TRUE(bound.has_value()) << bound.error().to_string();
  TcpServer server = std::move(bound.value());
  std::thread accept_thread([&] { (void)server.serve(broker, ServerOptions{}); });

  {
    // 2 MiB without a newline. The server stops reading past its cap, so
    // the bytes go out from a second thread while this one reads.
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    const std::string unterminated(std::size_t{2} << 20, 'x');
    std::thread sender([&] { client.send_until_refused(unterminated); });
    const std::string response = client.read_all();
    sender.join();
    EXPECT_EQ(response, "err 0 oversized line exceeds 1048576 bytes\n");
  }
  {
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    client.send_text("ping\nshutdown\n");
    EXPECT_EQ(client.read_all(), "ok pong\nok shutdown\n");
  }
  accept_thread.join();
}

TEST(Server, TcpOutOfRangeUploadAnswersErrAndOtherConnectionsKeepServing) {
  Broker broker;
  auto bound = TcpServer::bind_localhost(0);
  ASSERT_TRUE(bound.has_value()) << bound.error().to_string();
  TcpServer server = std::move(bound.value());
  std::thread accept_thread([&] { (void)server.serve(broker, ServerOptions{}); });

  // Another tenant is connected before the upload arrives.
  Client bystander(server.port());
  ASSERT_TRUE(bystander.connected());
  {
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    client.send_text(
        "instance wide\ninput 1\nstage 0 1 1e300\nproc 1 0.1 1e-300 1\nend\nsolve wide\nquit\n");
    const std::string response = client.read_all();
    EXPECT_NE(response.find("\nerr 6 malformed "), std::string::npos) << response;
    EXPECT_NE(response.find("ok bye\n"), std::string::npos) << response;
  }
  bystander.send_text("ping\nshutdown\n");
  EXPECT_EQ(bystander.read_all(), "ok pong\nok shutdown\n");
  accept_thread.join();
}

/// Lines of /proc/self/maps, one per mapping. A thread stack takes two (the
/// stack and its guard page), and a finished thread's stack is reused for a
/// new thread only once that thread has been joined.
std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST(Server, TcpJoinsFinishedConnectionThreadsWhileServing) {
  Broker broker;
  auto bound = TcpServer::bind_localhost(0);
  ASSERT_TRUE(bound.has_value()) << bound.error().to_string();
  TcpServer server = std::move(bound.value());
  std::thread accept_thread([&] { (void)server.serve(broker, ServerOptions{}); });

  const auto ping_and_quit = [&] {
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    client.send_text("ping\nquit\n");
    EXPECT_EQ(client.read_all(), "ok pong\nok bye\n");
  };
  constexpr std::size_t kConnections = 64;
  // A first round also fills the allocator's (and any sanitizer's)
  // per-thread caches, which then hold steady.
  for (std::size_t i = 0; i < kConnections; ++i) ping_and_quit();
  const std::size_t before = mapping_count();
  for (std::size_t i = 0; i < kConnections; ++i) ping_and_quit();
  // Unjoined, each finished connection would keep its two mappings until
  // `serve` returns: 128 more lines.
  EXPECT_LT(mapping_count(), before + kConnections / 2);

  {
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    client.send_text("shutdown\n");
    EXPECT_EQ(client.read_all(), "ok shutdown\n");
  }
  accept_thread.join();
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
