// servebench: end-to-end serving benchmark for relap_serve, plus a traced
// per-layer ledger of the same seeded request stream.
//
//   servebench --server PATH --workdir DIR --workload NAME --seed N
//              --seconds S --trace 0|1 [--corrupt-reply I]
//
// --trace 0 starts relap_serve as a child process, drives it over loopback
// TCP for S seconds and prints the end-to-end metrics; --trace 1 prints the
// per-layer ledger instead (ledger.hpp). The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Every reply's front
// checksum is checked against an in-process solve of the same request on a
// fresh broker; any wrong or failed reply makes the exit status non-zero.
// --corrupt-reply I flips a bit of reply I's checksum in the client, so the
// self-test can show that the gate trips. See README.md for the metrics.

#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "ledger.hpp"
#include "loadgen.hpp"
#include "relap/algorithms/pareto_driver.hpp"
#include "relap/util/hash.hpp"
#include "relap/util/pareto.hpp"
#include "relap/util/simd.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace servebench {

namespace {

/// Setup is repeated (a fresh server each time) at least kMinSetupRepeats
/// times and until kSetupBudgetS seconds of setups have run, at most
/// kMaxSetupRepeats times; `setup_s` reports the median. The cheap setups
/// (cold-solves: milliseconds) so get the most repeats.
constexpr std::size_t kMinSetupRepeats = 3;
constexpr std::size_t kMaxSetupRepeats = 15;
constexpr double kSetupBudgetS = 1.0;
/// Size of the front-quality sample (front_sample_instance).
constexpr std::size_t kFrontSample = 16;
/// fronts_checksum digests the first this many replies in stream order.
constexpr std::size_t kDigestReplies = 200;
/// Requests per run the p99 needs (>= 10 samples beyond it).
constexpr std::size_t kMinSamples = 1000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server;
  std::filesystem::path workdir;
  std::optional<std::size_t> corrupt_reply;
};

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return std::thread::hardware_concurrency();
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Provenance, keyed like benchutil::JsonReport's meta_* block.
std::string provenance(const Args& args, const Workload& workload) {
  const char* threads = std::getenv("RELAP_THREADS");
  char rate[32];
  std::snprintf(rate, sizeof rate, "%.17g", workload.rate_rps);
  return "{\"meta_compiler\": \"" + json_escape(relap::benchutil::compiler_version()) +
         "\", \"meta_build_type\": \"" RELAP_BENCH_BUILD_TYPE "\", \"meta_flags\": \"" +
         json_escape(RELAP_BENCH_FLAGS) + "\", \"meta_isa\": \"" +
         relap::util::simd::isa_name() +
         "\", \"meta_lane_width\": " + std::to_string(relap::util::simd::kDefaultLaneWidth) +
         ", \"meta_hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"meta_nproc\": " + std::to_string(nproc()) + ", \"meta_relap_threads\": \"" +
         json_escape(threads != nullptr ? threads : "") + "\", \"workload\": \"" +
         workload.name + "\", \"seed\": " + std::to_string(args.seed) +
         ", \"connections\": " + std::to_string(workload.connections) +
         ", \"in_flight\": " + std::to_string(workload.in_flight) + ", \"loop\": \"" +
         (workload.open_loop ? "open" : "closed") + "\", \"offered_rate_rps\": " + rate + "}";
}

/// Front checksums an in-process reference broker gives the same requests.
/// Requests against presentations uploaded during setup repeat, so their
/// checksums are memoized per (connection, solve line); fresh uploads are
/// solved one by one, in batches so the misses use the pool.
std::vector<std::optional<std::uint64_t>> reference_checksums(
    relap::service::Broker& broker, const std::vector<Request>& requests) {
  std::vector<std::optional<std::uint64_t>> out(requests.size());
  std::map<std::string, std::size_t> first_of;  // memo key -> first request position
  std::vector<std::pair<std::size_t, std::size_t>> copies;  // (position, source position)
  std::vector<relap::service::SolveRequest> batch;
  std::vector<std::size_t> batch_at;
  const auto flush = [&] {
    const auto replies = broker.solve_batch(batch);
    for (std::size_t j = 0; j < replies.size(); ++j) {
      if (replies[j].has_value()) {
        out[batch_at[j]] = relap::service::front_checksum(replies[j]->front);
      }
    }
    batch.clear();
    batch_at.clear();
  };
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!requests[i].upload) {
      const std::string key =
          std::to_string(requests[i].connection) + ' ' + solve_line(requests[i]);
      const auto [it, inserted] = first_of.try_emplace(key, i);
      if (!inserted) {
        copies.emplace_back(i, it->second);
        continue;
      }
    }
    batch.push_back(solve_request(requests[i]));
    batch_at.push_back(i);
    if (batch.size() == 16) flush();
  }
  if (!batch.empty()) flush();
  for (const auto& [at, source] : copies) out[at] = out[source];
  return out;
}

struct FrontQuality {
  double ratio = 0.0;
  std::size_t dominated = 0;  ///< exhaustive points strictly dominated by a served one
  std::size_t missing = 0;    ///< sample fronts the server did not serve
};

/// Geometric mean of front_fp_ratio of served fronts against
/// exhaustive_pareto. Per-instance ratios are heavy-tailed (a missed
/// low-FP point can score in the hundreds), and the arithmetic mean let one
/// such instance move a seed's value 15x; the geometric mean, the usual mean
/// for ratios, still moves with any across-the-board change.
FrontQuality front_quality(const std::vector<std::vector<std::pair<double, double>>>& served,
                           relap::service::Broker& reference) {
  FrontQuality quality;
  double total = 0.0;
  const auto dummy = relap::mapping::IntervalMapping::single_interval(1, {0});
  for (std::size_t i = 0; i < served.size(); ++i) {
    if (served[i].empty()) {
      ++quality.missing;
      continue;
    }
    relap::service::SolveRequest request;
    request.instance = front_sample_instance(i)->data;
    request.objective = Objective::ParetoFront;
    request.method = relap::algorithms::Method::Exhaustive;
    request.max_evaluations = 50'000'000;
    const auto exact = reference.solve(request);
    if (!exact.has_value()) throw std::runtime_error("exhaustive reference failed");
    std::vector<relap::algorithms::ParetoSolution> achieved;
    for (const auto& [latency, fp] : served[i]) achieved.push_back({latency, fp, dummy});
    total += std::log(relap::algorithms::front_fp_ratio(achieved, exact->front));
    for (const auto& [latency, fp] : served[i]) {
      for (const auto& point : exact->front) {
        if (relap::util::dominates({latency, fp, 0},
                                   {point.latency, point.failure_probability, 0})) {
          ++quality.dominated;
        }
      }
    }
  }
  const std::size_t measured = served.size() - quality.missing;
  quality.ratio = measured == 0 ? 0.0 : std::exp(total / static_cast<double>(measured));
  return quality;
}

int run_end_to_end(const Args& args, Workload& workload, relap::service::Broker& reference,
                   const std::filesystem::path& dir) {
  if (workload.persistent) write_preload(workload, args.server, dir);

  std::vector<double> setups;
  double setup_total_s = 0.0;
  LiveServer live;
  while (setups.size() < kMaxSetupRepeats &&
         (setups.size() < kMinSetupRepeats || setup_total_s < kSetupBudgetS)) {
    if (live.server) (void)stop_server(live);
    live = start_server(workload, args.server, dir);
    setups.push_back(live.setup_s);
    setup_total_s += live.setup_s;
  }

  WindowResult window = run_window(workload, live.connections, args.seconds);
  const double peak_rss_mb = live.server->peak_rss_mb();

  // Front-quality sample, asked of the server after the window.
  std::vector<std::vector<std::pair<double, double>>> served(kFrontSample);
  Connection& connection = *live.connections.front();
  for (std::size_t i = 0; i < kFrontSample; ++i) {
    Request r;
    r.presentation = front_sample_instance(i);
    connection.send(upload_text(*r.presentation));
    (void)connection.read_line();
    connection.send(solve_line(r));
    const SolveReply reply = read_solve_reply(connection, true);
    if (reply.ok) served[i] = reply.points;
  }
  const int server_status = stop_server(live);
  const FrontQuality quality = front_quality(served, reference);

  // Correctness gate: every reply against the in-process reference.
  if (args.corrupt_reply && *args.corrupt_reply < window.samples.size()) {
    window.samples[*args.corrupt_reply].front ^= 1;
  }
  std::vector<Request> requests;
  for (const Sample& s : window.samples) requests.push_back(workload.request(s.index));
  const std::vector<std::optional<std::uint64_t>> expected =
      reference_checksums(reference, requests);

  std::size_t failed = 0;
  std::size_t mismatched = 0;
  std::size_t completed_ok = 0;
  std::vector<double> latencies_ms;
  std::vector<double> lag_ms;
  relap::util::Fnv1a digest;
  std::size_t digested = 0;
  bool digest_contiguous = true;
  for (std::size_t i = 0; i < window.samples.size(); ++i) {
    const Sample& s = window.samples[i];
    const bool right = s.ok && expected[i] && *expected[i] == s.front;
    if (s.ok && !right) {
      ++mismatched;
      std::printf("mismatch request=%zu served=0x%016llx expected=%s\n", s.index,
                  static_cast<unsigned long long>(s.front),
                  expected[i] ? relap::util::Fnv1a(*expected[i]).hex().c_str() : "error");
    } else if (!s.ok) {
      std::printf("failed request=%zu: %s\n", s.index, s.error.c_str());
    }
    if (!right) ++failed;
    if (right && s.done_s >= 0.0 && s.done_s < window.seconds) ++completed_ok;
    // Latencies are those of requests sent inside the window; a failed
    // request misses every latency limit.
    if (s.sent_s >= 0.0 && s.sent_s < window.seconds) {
      latencies_ms.push_back(right ? s.latency_s * 1e3 : std::numeric_limits<double>::infinity());
      if (workload.open_loop) lag_ms.push_back(s.lag_s * 1e3);
    }
    if (digested < kDigestReplies) {
      digest_contiguous = digest_contiguous && s.index == i && right;
      digest.add(s.front);
      ++digested;
    }
  }
  const std::size_t attempted = window.samples.size();

  std::sort(setups.begin(), setups.end());
  const std::vector<Metric> metrics = {
      {"throughput_rps", static_cast<double>(completed_ok) / window.seconds, "1/s"},
      {"latency_p50_ms", percentile(latencies_ms, 0.50), "ms"},
      {"latency_p99_ms", percentile(latencies_ms, 0.99), "ms"},
      {"setup_s", percentile(setups, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"front_fp_ratio", quality.ratio, "ratio"},
  };
  const bool correct = failed == 0 && quality.dominated == 0 && quality.missing == 0 &&
                       server_status == 0 && attempted > 0 && all_finite(metrics);
  for (const Metric& m : metrics) {
    std::printf("%-16s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-16s %.6g (%zu failed of %zu attempted; %zu checksum mismatches)\n",
              "failed_ratio", attempted == 0 ? 1.0 : double(failed) / double(attempted), failed,
              attempted, mismatched);
  std::printf("samples          %zu requests in the window, %zu with the warm-up (%s)\n",
              latencies_ms.size(), attempted,
              latencies_ms.size() >= kMinSamples ? "p99 has >= 10 samples beyond it"
                                                 : "below 1000: p99 is thin");
  if (workload.open_loop) {
    std::printf("gen_lag_ms       p50=%.4g p99=%.4g\n", percentile(lag_ms, 0.5),
                percentile(lag_ms, 0.99));
  }
  std::printf("setup_s repeats ");
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf("\nfront_quality    ratio=%.6g over %zu sampled 6x8 fronts, "
              "%zu dominated exact points\n",
              quality.ratio, kFrontSample - quality.missing, quality.dominated);
  std::printf("fronts_checksum  %s over the first %zu replies%s\n", digest.hex().c_str(), digested,
              digest_contiguous ? "" : " (incomplete: not comparable)");
  std::printf("server_exit      %d\n", server_status);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics_json(metrics).c_str());
  return correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: servebench --server PATH --workdir DIR --workload "
               "warm-hits|cold-solves|mixed-churn --seed N --seconds S --trace 0|1 "
               "[--corrupt-reply I]\n");
  return 2;
}

int run(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--server") {
      args.server = value;
    } else if (key == "--workdir") {
      args.workdir = value;
    } else if (key == "--corrupt-reply") {
      args.corrupt_reply = std::stoull(value);
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || args.server.empty() || args.workdir.empty() ||
      !(args.seconds > 0.0)) {
    return usage();
  }

  relap::service::BrokerOptions reference_options;
  reference_options.cache.capacity = 1 << 16;
  relap::service::Broker reference(reference_options);
  Workload workload = make_workload(args.workload, args.seed, reference);
  std::printf("servebench workload=%s seed=%llu seconds=%g trace=%d\n", workload.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("provenance %s\n", provenance(args, workload).c_str());
  if (nproc() < workload.connections) {
    std::fprintf(stderr,
                 "servebench: refusing to record: nproc=%zu is below the workload's %zu "
                 "connections\n",
                 nproc(), workload.connections);
    return 3;
  }

  const std::filesystem::path dir =
      args.workdir / (workload.name + "-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  int status = 1;
  try {
    status = args.trace ? run_ledger(args.server, workload, reference, dir, args.seconds)
                        : run_end_to_end(args, workload, reference, dir);
  } catch (...) {
    std::filesystem::remove_all(dir);
    throw;
  }
  std::filesystem::remove_all(dir);
  return status;
}

}  // namespace

}  // namespace servebench

int main(int argc, char** argv) {
  try {
    return servebench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
