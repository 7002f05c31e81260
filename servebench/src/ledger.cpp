#include "ledger.hpp"

#include <time.h>

#include <atomic>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <thread>

#include "loadgen.hpp"
#include "relap/algorithms/heuristics.hpp"
#include "relap/algorithms/local_search.hpp"
#include "relap/algorithms/pareto_driver.hpp"
#include "relap/io/instance_format.hpp"
#include "relap/service/server.hpp"
#include "relap/util/bytes.hpp"
#include "relap/util/hash.hpp"
#include "relap/util/strings.hpp"
#include "stats.hpp"

namespace servebench {

namespace {

namespace algorithms = relap::algorithms;
namespace service = relap::service;

/// Share of --seconds for the traced phase (TCP request, then in-process
/// replay) and for the untraced one-in-flight phase after it; the rest goes
/// to the concurrent broker phase.
constexpr double kTracedShare = 0.55;
constexpr double kUntracedShare = 0.20;

double us(double seconds) { return seconds * 1e6; }

double ratio(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl = text.find('\n'); nl != std::string::npos; nl = text.find('\n', start)) {
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// The broker's full cache key (canonical bytes + knob suffix), rebuilt from
/// the public canonical form the way `Broker::admit` builds it, so the
/// benchmark's own cache sees the same keys the server's does.
std::string full_key(const service::CanonicalInstance& canonical,
                     const service::SolveRequest& request) {
  double threshold = 0.0;
  if (request.objective == Objective::MinFpForLatency) {
    threshold = request.threshold * canonical.time_scale;
  } else if (request.objective == Objective::MinLatencyForFp) {
    threshold = request.threshold;
  }
  std::string key = canonical.key_bytes;
  key.push_back(static_cast<char>(request.objective));
  key.push_back(static_cast<char>(request.method));
  relap::util::bytes::append_double_le(key, threshold);
  relap::util::bytes::append_u64_le(key, request.max_evaluations);
  relap::util::bytes::append_u64_le(
      key, request.objective == Objective::ParetoFront ? request.pareto_thresholds : 0);
  return key;
}

/// Accumulated per-layer observations.
struct Ledger {
  // service/server
  std::vector<double> upload_us, solve_line_us, render_us, render_doubles, reply_bytes, socket_us;
  // service/broker
  std::vector<double> self_us, queue_wait_us;
  double batch_size = 0.0, dedup_ratio = 0.0;
  std::size_t rejected = 0;
  // service/canonical, service/cache
  std::vector<double> canonicalize_us, denormalize_us, probe_us, insert_us;
  std::size_t probes = 0, hits = 0, evictions = 0, requests = 0;
  // algorithms, exec: solve times are the program's own solver calls; pass
  // and candidate counts and the generator split come from the reference
  // sweep, whose own wall time is kept to print its gap to the program's.
  std::vector<double> solve_ms;
  double solve_cpu_s = 0.0, solve_wall_s = 0.0, stream_solve_s = 0.0;
  std::size_t heuristic_fronts = 0, heuristic_solves = 0, exhaustive_solves = 0;
  double front_passes = 0, cand_single = 0, cand_greedy = 0, cand_beam = 0;
  double single_ms = 0, greedy_ms = 0, beam_ms = 0, local_search_ms = 0;
  double heuristic_program_s = 0, heuristic_reference_s = 0;
  double evaluations = 0, exhaustive_s = 0;
  // service/journal, service/snapshot
  std::vector<double> append_us;
  double snapshot_load_ms = 0, journal_replay_ms = 0;
};

/// In-process twin of the server: a broker with the server's options and
/// persistence, one protocol session per connection, plus the benchmark's
/// own cache and journal that the per-layer calls run against.
class Tracer {
 public:
  Tracer(const Workload& workload, const std::filesystem::path& dir, Ledger& ledger)
      : ledger_(ledger), shadow_(options(workload)),
        mirror_(service::FrontCache::Options{options(workload).cache.capacity, 16}) {
    service::JournalOptions journal_options;
    journal_options.fsync_every =
        workload.journal_fsync_every == 0 ? 1 : workload.journal_fsync_every;
    if (workload.persistent) {
      const auto copy = [&](const char* from, const char* to) {
        std::filesystem::copy_file(dir / from, dir / to,
                                   std::filesystem::copy_options::overwrite_existing);
        return (dir / to).string();
      };
      const auto recovered = shadow_.recover(copy("preload.snap", "shadow.snap"),
                                             copy("preload.jnl", "shadow.jnl"), journal_options);
      if (!recovered.has_value()) throw std::runtime_error(recovered.error().to_string());
      // The benchmark's cache starts from the same recovered state.
      if (!service::load_snapshot(mirror_, copy("preload.snap", "mirror.snap")).has_value()) {
        throw std::runtime_error("mirror snapshot load failed");
      }
      auto replayed = service::Journal::open(copy("preload.jnl", "mirror.jnl"));
      if (!replayed.has_value()) throw std::runtime_error(replayed.error().to_string());
      for (service::FrontCache::ExportedEntry& entry : replayed.value().replayed.entries) {
        mirror_.insert(entry.hash, std::move(entry.key), std::move(entry.value));
      }
    }
    std::filesystem::remove(dir / "ledger.jnl");
    auto opened = service::Journal::open((dir / "ledger.jnl").string(), journal_options);
    if (!opened.has_value()) throw std::runtime_error(opened.error().to_string());
    journal_ = std::move(opened.value().journal);

    service::SessionOptions session_options;
    session_options.batch_solves = true;  // as on the TCP front
    for (std::size_t c = 0; c < workload.connections; ++c) {
      sessions_.push_back(std::make_unique<service::Session>(shadow_, session_options));
      if (c < workload.uploads.size()) {
        for (const PresentationPtr& p : workload.uploads[c]) upload(c, *p);
      }
    }
    for (const Request& r : workload.priming) (void)replay(r, false);
  }

  service::Broker& shadow() { return shadow_; }
  service::Journal& journal() { return *journal_; }
  service::FrontCache& mirror() { return mirror_; }

  /// Replays one request through every layer. Returns the shadow session's
  /// wire checksum; throws if the layers disagree with each other.
  std::uint64_t replay(const Request& request, bool stream) {
    service::Session& session = *sessions_[request.connection];
    if (request.upload) upload(request.connection, *request.presentation);
    ++ledger_.requests;

    std::string line = solve_line(request);
    line.pop_back();
    std::string out;
    auto start = Clock::now();
    (void)session.handle_line(line, out);
    const double solve_line_s = seconds_since(start);
    const SolveReply wire = parse_solve_reply(split_lines(out), false);
    if (!wire.ok) throw std::runtime_error("in-process session refused: " + wire.error);

    const service::SolveRequest solve = solve_request(request);
    start = Clock::now();
    const auto reply = shadow_.solve(solve);
    const double broker_s = seconds_since(start);
    if (!reply.has_value()) throw std::runtime_error("in-process broker refused");
    const service::TraceSpans& spans = reply->spans;

    start = Clock::now();
    std::size_t rendered = 0;
    for (const algorithms::ParetoSolution& point : reply->front) {
      rendered += relap::util::format_double(point.latency).size();
      rendered += relap::util::format_double(point.failure_probability).size();
      rendered += relap::io::format_mapping(point.mapping).size();
    }
    const double render_s = seconds_since(start);
    render_sink_ += rendered;

    start = Clock::now();
    auto canonical = service::canonicalize(solve.instance);
    const double canonicalize_s = seconds_since(start);
    if (!canonical.has_value()) throw std::runtime_error("canonicalize failed");
    const std::string key = full_key(*canonical, solve);
    const std::uint64_t hash = relap::util::fnv1a(key);

    const std::uint64_t evictions_before = mirror_.stats().evictions;
    start = Clock::now();
    std::shared_ptr<const algorithms::FrontReport> report = mirror_.find(hash, key);
    const double probe_s = seconds_since(start);
    ++ledger_.probes;
    if (report) ++ledger_.hits;
    if (!report) {
      report = std::make_shared<const algorithms::FrontReport>(solve_canonical(solve, *canonical));
      if (stream) ledger_.stream_solve_s += ledger_.solve_ms.back() * 1e-3;
      start = Clock::now();
      mirror_.insert(hash, key, report);
      ledger_.insert_us.push_back(us(seconds_since(start)));
      start = Clock::now();
      const auto appended = journal_->append(service::FrontCache::ExportedEntry{hash, key, report});
      ledger_.append_us.push_back(us(seconds_since(start)));
      if (!appended.has_value()) ++ledger_.rejected;
    }
    ledger_.evictions += mirror_.stats().evictions - evictions_before;

    start = Clock::now();
    const std::vector<algorithms::ParetoSolution> front =
        service::denormalize_front(*canonical, report->front);
    const double denormalize_s = seconds_since(start);

    const std::uint64_t layered = service::front_checksum(front);
    if (layered != wire.front || service::front_checksum(reply->front) != wire.front) {
      throw std::runtime_error("layer replay disagrees with the in-process session on request " +
                               std::to_string(request.index));
    }
    if (stream) {
      ledger_.solve_line_us.push_back(us(solve_line_s));
      ledger_.reply_bytes.push_back(static_cast<double>(out.size()));
      ledger_.self_us.push_back(us(broker_s - spans.canonicalize_seconds -
                                   spans.cache_probe_seconds - spans.solve_seconds -
                                   spans.denormalize_seconds));
      ledger_.render_us.push_back(us(render_s));
      ledger_.render_doubles.push_back(2.0 * static_cast<double>(reply->front.size()));
      ledger_.canonicalize_us.push_back(us(canonicalize_s));
      ledger_.probe_us.push_back(us(probe_s));
      ledger_.denormalize_us.push_back(us(denormalize_s));
    }
    last_solve_line_us_ = us(solve_line_s);
    return wire.front;
  }

  [[nodiscard]] double last_solve_line_us() const { return last_solve_line_us_; }
  /// Heuristic solves whose reference-sweep front differed from the program's.
  [[nodiscard]] std::size_t reference_mismatches() const { return reference_mismatches_; }

 private:
  static service::BrokerOptions options(const Workload& workload) {
    service::BrokerOptions out;
    if (workload.cache_entries > 0) out.cache.capacity = workload.cache_entries;
    return out;
  }

  void upload(std::size_t connection, const Presentation& presentation) {
    std::string out;
    const std::vector<std::string> lines = split_lines(upload_text(presentation));
    const auto start = Clock::now();
    for (const std::string& line : lines) (void)sessions_[connection]->handle_line(line, out);
    ledger_.upload_us.push_back(us(seconds_since(start)));
    if (out.rfind("ok instance ", 0) != 0) throw std::runtime_error("in-process upload refused");
  }

  /// Generator and local-search counters of one solve (atomic: the sweep
  /// runs its thresholds concurrently).
  struct PassCounters {
    std::atomic<std::uint64_t> passes{0}, single{0}, greedy{0}, beam{0};
    std::atomic<std::uint64_t> single_ns{0}, greedy_ns{0}, beam_ns{0}, local_search_ns{0};
  };

  /// One heuristic pass, the same steps as heuristic_min_fp_for_latency /
  /// heuristic_min_latency_for_fp: the best candidate of the three public
  /// generators under the constrained comparator, then local search. Every
  /// call is timed and every candidate counted.
  static algorithms::Result counted_pass(const relap::pipeline::Pipeline& pipeline,
                                         const relap::platform::Platform& platform, double cap,
                                         bool min_fp, PassCounters& counters) {
    const auto ns_since = [](Clock::time_point t) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t).count());
    };
    counters.passes.fetch_add(1);
    const algorithms::HeuristicOptions heuristic;
    std::optional<algorithms::Solution> best;
    std::uint64_t count = 0;
    const algorithms::CandidateSink sink = [&](algorithms::Solution s) {
      ++count;
      if (!best || (min_fp ? algorithms::better_min_fp(s, *best, cap)
                           : algorithms::better_min_latency(s, *best, cap))) {
        best = std::move(s);
      }
    };
    const auto generate = [&](auto&& generator, std::atomic<std::uint64_t>& ns,
                              std::atomic<std::uint64_t>& candidates) {
      const auto t = Clock::now();
      generator(pipeline, platform, heuristic, sink);
      ns.fetch_add(ns_since(t));
      candidates.fetch_add(std::exchange(count, 0));
    };
    generate(algorithms::enumerate_single_interval_candidates, counters.single_ns, counters.single);
    generate(algorithms::enumerate_greedy_split_candidates, counters.greedy_ns, counters.greedy);
    generate(algorithms::enumerate_beam_candidates, counters.beam_ns, counters.beam);
    if (!best || !algorithms::within_cap(min_fp ? best->latency : best->failure_probability, cap)) {
      return relap::util::infeasible("no heuristic candidate meets the threshold");
    }
    const auto t = Clock::now();
    algorithms::Solution polished =
        min_fp ? algorithms::local_search_min_fp(pipeline, platform, std::move(*best), cap,
                                                 algorithms::LocalSearchOptions{})
               : algorithms::local_search_min_latency(pipeline, platform, std::move(*best), cap,
                                                      algorithms::LocalSearchOptions{});
    counters.local_search_ns.fetch_add(ns_since(t));
    return polished;
  }

  /// The algorithms layer on the canonical instance: the program's public
  /// solver, called with the options the broker builds for a miss. Its wall
  /// and CPU time are `algorithms.solve_ms`, `exec.solve_cpu_per_wall` and
  /// the reconcile line's solve share. A heuristic solve is then repeated by
  /// `reference_sweep` for the counts the program does not expose.
  algorithms::FrontReport solve_canonical(const service::SolveRequest& request,
                                          const service::CanonicalInstance& canonical) {
    const relap::pipeline::Pipeline& pipeline = canonical.pipeline;
    const relap::platform::Platform& platform = canonical.platform;
    algorithms::SolveOptions options;
    options.method = request.method;
    options.auto_exhaustive_budget = request.max_evaluations;
    options.pareto_thresholds = request.pareto_thresholds;
    options.exhaustive.max_evaluations = request.max_evaluations;
    const double cap = request.objective == Objective::MinFpForLatency
                           ? request.threshold * canonical.time_scale
                           : request.threshold;

    const double cpu_start = process_cpu_seconds();
    const auto start = Clock::now();
    algorithms::FrontReport report;
    if (request.objective == Objective::ParetoFront) {
      auto solved = algorithms::solve_pareto_front(pipeline, platform, options);
      if (!solved.has_value()) throw std::runtime_error(solved.error().to_string());
      report = std::move(solved).take();
    } else {
      auto solved = request.objective == Objective::MinFpForLatency
                        ? algorithms::solve_min_fp_for_latency(pipeline, platform, cap, options)
                        : algorithms::solve_min_latency_for_fp(pipeline, platform, cap, options);
      if (!solved.has_value()) throw std::runtime_error(solved.error().to_string());
      algorithms::SolveReport constrained = std::move(solved).take();
      report.front.push_back(algorithms::ParetoSolution{constrained.solution.latency,
                                                        constrained.solution.failure_probability,
                                                        std::move(constrained.solution.mapping)});
      report.algorithm = std::move(constrained.algorithm);
      report.exact = constrained.exact;
    }
    const double wall = seconds_since(start);
    ledger_.solve_ms.push_back(wall * 1e3);
    ledger_.solve_wall_s += wall;
    ledger_.solve_cpu_s += process_cpu_seconds() - cpu_start;

    if (report.evaluations > 0) {
      ++ledger_.exhaustive_solves;
      ledger_.evaluations += static_cast<double>(report.evaluations);
      ledger_.exhaustive_s += wall;
    } else if (!report.exact) {
      reference_sweep(request, canonical, cap, report, wall);
    }
    return report;
  }

  /// The heuristic solve again, as the benchmark's own reference: a front
  /// through `sweep_latency_thresholds` with `counted_pass` as the
  /// per-threshold solver, a constrained request as one `counted_pass`. It
  /// counts passes and candidates, and its per-generator times split the
  /// program's solve time. Its front is compared with the program's, so a
  /// reference that no longer matches the program is reported, not hidden.
  void reference_sweep(const service::SolveRequest& request,
                       const service::CanonicalInstance& canonical, double cap,
                       const algorithms::FrontReport& program, double program_s) {
    const relap::pipeline::Pipeline& pipeline = canonical.pipeline;
    const relap::platform::Platform& platform = canonical.platform;
    PassCounters counters;
    std::vector<algorithms::ParetoSolution> front;
    const auto start = Clock::now();
    if (request.objective == Objective::ParetoFront) {
      algorithms::ParetoDriverOptions driver;
      driver.thresholds = request.pareto_thresholds;
      front = algorithms::sweep_latency_thresholds(
          pipeline, platform,
          [&](double c) { return counted_pass(pipeline, platform, c, true, counters); }, driver);
      ++ledger_.heuristic_fronts;
      ledger_.front_passes += static_cast<double>(counters.passes.load());
    } else {
      const bool min_fp = request.objective == Objective::MinFpForLatency;
      algorithms::Result solved = counted_pass(pipeline, platform, cap, min_fp, counters);
      if (solved.has_value()) {
        front.push_back(algorithms::ParetoSolution{solved->latency, solved->failure_probability,
                                                   solved->mapping});
      }
    }
    ledger_.heuristic_reference_s += seconds_since(start);
    ledger_.heuristic_program_s += program_s;
    if (service::front_checksum(front) != service::front_checksum(program.front)) {
      ++reference_mismatches_;
    }

    ++ledger_.heuristic_solves;
    ledger_.cand_single += static_cast<double>(counters.single.load());
    ledger_.cand_greedy += static_cast<double>(counters.greedy.load());
    ledger_.cand_beam += static_cast<double>(counters.beam.load());
    const auto ns = [](const std::atomic<std::uint64_t>& v) {
      return static_cast<double>(v.load());
    };
    const double total = ns(counters.single_ns) + ns(counters.greedy_ns) + ns(counters.beam_ns) +
                         ns(counters.local_search_ns);
    const double program_ms = program_s * 1e3;
    ledger_.single_ms += program_ms * ratio(ns(counters.single_ns), total);
    ledger_.greedy_ms += program_ms * ratio(ns(counters.greedy_ns), total);
    ledger_.beam_ms += program_ms * ratio(ns(counters.beam_ns), total);
    ledger_.local_search_ms += program_ms * ratio(ns(counters.local_search_ns), total);
  }

  Ledger& ledger_;
  service::Broker shadow_;
  service::FrontCache mirror_;
  std::unique_ptr<service::Journal> journal_;
  std::vector<std::unique_ptr<service::Session>> sessions_;
  double last_solve_line_us_ = 0.0;
  std::size_t render_sink_ = 0;
  std::size_t reference_mismatches_ = 0;
};

/// One request over TCP with nothing else in flight: (rtt seconds, reply).
std::pair<double, SolveReply> round_trip(LiveServer& live, const Request& request) {
  Connection& connection = *live.connections[request.connection];
  if (request.upload) {
    connection.send(upload_text(*request.presentation));
    const std::string ack = connection.read_line();
    if (ack.rfind("ok instance ", 0) != 0) throw std::runtime_error("upload refused: " + ack);
  }
  const std::string line = solve_line(request);
  const auto start = Clock::now();
  connection.send(line);
  const std::vector<std::string> lines = read_reply_lines(connection);
  const double rtt = seconds_since(start);
  return {rtt, parse_solve_reply(lines, false)};
}

/// The concurrent broker phase: `workload.connections` threads call
/// `solve_batched` on the shadow broker, as the TCP front's sessions do.
void concurrent_phase(const Workload& workload, service::Broker& broker, std::size_t first,
                      Clock::time_point until, Ledger& ledger) {
  const service::ServiceMetrics& m = broker.metrics();
  const std::uint64_t requests0 = m.requests_total.value();
  const std::uint64_t batches0 = m.batches_total.value();
  const std::uint64_t deduped0 = m.deduped_total.value();
  std::atomic<std::size_t> next{first};
  std::vector<std::vector<double>> waits(workload.connections);
  std::atomic<std::size_t> errors{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < workload.connections; ++t) {
    threads.emplace_back([&, t] {
      do {
        const auto reply = broker.solve_batched(solve_request(workload.request(next.fetch_add(1))));
        if (reply.has_value()) {
          waits[t].push_back(us(reply->spans.queue_wait_seconds));
        } else {
          errors.fetch_add(1);
        }
      } while (Clock::now() < until);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::vector<double>& w : waits) {
    ledger.queue_wait_us.insert(ledger.queue_wait_us.end(), w.begin(), w.end());
  }
  const double requests = static_cast<double>(m.requests_total.value() - requests0);
  const double batches = static_cast<double>(m.batches_total.value() - batches0);
  ledger.batch_size = batches > 0 ? requests / batches : 0.0;
  ledger.dedup_ratio =
      requests > 0 ? static_cast<double>(m.deduped_total.value() - deduped0) / requests : 0.0;
  ledger.rejected += errors.load();
}

/// Startup recovery timed around `Broker::recover`: the workload's own
/// persisted state (mixed-churn: the preload files; otherwise a snapshot of
/// the benchmark's cache and the journal the replay appended to).
void persistence_phase(const Workload& workload, Tracer& tracer, const std::filesystem::path& dir,
                       Ledger& ledger) {
  const std::filesystem::path snapshot =
      dir / (workload.persistent ? "preload.snap" : "ledger.snap");
  const std::filesystem::path journal = dir / (workload.persistent ? "preload.jnl" : "ledger.jnl");
  if (!workload.persistent) {
    if (!service::save_snapshot(tracer.mirror(), snapshot.string()).has_value()) {
      throw std::runtime_error("ledger snapshot save failed");
    }
    (void)tracer.journal().sync();
  }
  // Fresh copies each time: recovery attaches (and may truncate) the journal.
  const auto fresh_copies = [&](const std::filesystem::path& snap,
                                const std::filesystem::path& jnl) {
    std::string snap_copy, jnl_copy;
    if (!snap.empty()) {
      snap_copy = (dir / "probe.snap").string();
      std::filesystem::copy_file(snap, snap_copy,
                                 std::filesystem::copy_options::overwrite_existing);
    }
    if (!jnl.empty()) {
      jnl_copy = (dir / "probe.jnl").string();
      std::filesystem::copy_file(jnl, jnl_copy, std::filesystem::copy_options::overwrite_existing);
    }
    return std::make_pair(snap_copy, jnl_copy);
  };
  std::vector<double> load, replay;
  for (int i = 0; i < 3; ++i) {
    {
      const auto [s, j] = fresh_copies(snapshot, {});
      service::Broker broker;
      const auto start = Clock::now();
      if (!broker.recover(s, j).has_value()) throw std::runtime_error("snapshot recovery failed");
      load.push_back(seconds_since(start) * 1e3);
    }
    {
      const auto [s, j] = fresh_copies({}, journal);
      service::Broker broker;
      const auto start = Clock::now();
      if (!broker.recover(s, j).has_value()) throw std::runtime_error("journal recovery failed");
      replay.push_back(seconds_since(start) * 1e3);
    }
  }
  ledger.snapshot_load_ms = percentile(load, 0.5);
  ledger.journal_replay_ms = percentile(replay, 0.5);
}

}  // namespace

int run_ledger(const std::string& server_binary, const Workload& workload,
               relap::service::Broker& reference, const std::filesystem::path& dir,
               double seconds) {
  if (workload.persistent) write_preload(workload, server_binary, dir);
  LiveServer live = start_server(workload, server_binary, dir);
  Ledger ledger;
  Tracer tracer(workload, dir, ledger);

  const auto start = Clock::now();
  const auto at = [&](double share) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(share * seconds));
  };
  std::size_t next = 0;
  std::size_t failed = 0;
  std::size_t attempted = 0;
  std::vector<double> traced_rtt_us, untraced_rtt_us;
  std::vector<Request> untraced;
  std::vector<std::uint64_t> untraced_fronts;

  // Traced phase: TCP request, then its in-process layer replay.
  while (Clock::now() < at(kTracedShare) || traced_rtt_us.empty()) {
    const Request request = workload.request(next++);
    ++attempted;
    const auto [rtt, reply] = round_trip(live, request);
    const std::uint64_t replayed = tracer.replay(request, true);
    if (!reply.ok || reply.front != replayed) {
      ++failed;
      std::printf("mismatch request=%zu (wire vs in-process) %s\n", request.index,
                  reply.error.c_str());
      continue;
    }
    traced_rtt_us.push_back(us(rtt));
    ledger.socket_us.push_back(us(rtt) - tracer.last_solve_line_us());
  }
  // Untraced phase: the same one-in-flight loop with no replay between.
  while (Clock::now() < at(kTracedShare + kUntracedShare) || untraced_rtt_us.empty()) {
    const Request request = workload.request(next++);
    ++attempted;
    const auto [rtt, reply] = round_trip(live, request);
    untraced_rtt_us.push_back(us(rtt));
    untraced.push_back(request);
    untraced_fronts.push_back(reply.ok ? reply.front : 0);
  }
  // Concurrent broker phase: queue wait, batching and dedup under the
  // workload's connection count.
  const std::size_t requests_before = ledger.queue_wait_us.size();
  concurrent_phase(workload, tracer.shadow(), next, at(1.0), ledger);
  attempted += ledger.queue_wait_us.size() - requests_before;
  const int server_status = stop_server(live);
  // Untraced replies are checked against the reference broker instead.
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    const auto expected = reference.solve(solve_request(untraced[i]));
    if (!expected.has_value() || service::front_checksum(expected->front) != untraced_fronts[i]) {
      ++failed;
      std::printf("mismatch request=%zu (wire vs reference)\n", untraced[i].index);
    }
  }
  persistence_phase(workload, tracer, dir, ledger);

  const service::JournalStats journal = tracer.journal().stats();
  const double kreq = static_cast<double>(ledger.requests) / 1000.0;
  const double fronts = static_cast<double>(std::max<std::size_t>(ledger.heuristic_fronts, 1));
  const double solves = static_cast<double>(std::max<std::size_t>(ledger.heuristic_solves, 1));
  std::vector<Metric> metrics = {
      {"server.upload_us", mean(ledger.upload_us), "us"},
      {"server.solve_line_us", mean(ledger.solve_line_us), "us"},
      {"server.render_us", mean(ledger.render_us), "us"},
      {"server.render_doubles", mean(ledger.render_doubles), "count"},
      {"server.reply_bytes", mean(ledger.reply_bytes), "bytes"},
      {"server.socket_us", mean(ledger.socket_us), "us"},
      {"broker.self_us", mean(ledger.self_us), "us"},
      {"broker.queue_wait_us", mean(ledger.queue_wait_us), "us"},
      {"broker.batch_size", ledger.batch_size, "count"},
      {"broker.dedup_ratio", ledger.dedup_ratio, "ratio"},
      {"broker.rejected", static_cast<double>(ledger.rejected), "count"},
      {"canonical.canonicalize_us", mean(ledger.canonicalize_us), "us"},
      {"canonical.denormalize_us", mean(ledger.denormalize_us), "us"},
      {"cache.probe_us", mean(ledger.probe_us), "us"},
      {"cache.insert_us", mean(ledger.insert_us), "us"},
      {"cache.hit_ratio",
       ratio(static_cast<double>(ledger.hits), static_cast<double>(ledger.probes)), "ratio"},
      {"cache.evictions_per_kreq", ratio(static_cast<double>(ledger.evictions), kreq), "count"},
      {"algorithms.solve_ms", mean(ledger.solve_ms), "ms"},
      {"algorithms.generator_passes_per_front", ledger.front_passes / fronts, "count"},
      {"algorithms.candidates.single_interval", ledger.cand_single / solves, "count"},
      {"algorithms.candidates.greedy_split", ledger.cand_greedy / solves, "count"},
      {"algorithms.candidates.beam", ledger.cand_beam / solves, "count"},
      {"algorithms.beam_ms", ledger.beam_ms / solves, "ms"},
      {"algorithms.local_search_ms", ledger.local_search_ms / solves, "ms"},
      {"algorithms.exhaustive_evaluations",
       ratio(ledger.evaluations, static_cast<double>(ledger.exhaustive_solves)), "count"},
      {"algorithms.exhaustive_cands_per_s", ratio(ledger.evaluations, ledger.exhaustive_s), "1/s"},
      {"exec.solve_cpu_per_wall", ratio(ledger.solve_cpu_s, ledger.solve_wall_s), "ratio"},
      {"journal.append_us", mean(ledger.append_us), "us"},
      {"journal.fsyncs_per_kreq", ratio(static_cast<double>(journal.fsyncs), kreq), "count"},
      {"journal.bytes_per_record",
       ratio(static_cast<double>(journal.file_bytes - service::kJournalHeaderBytes),
             static_cast<double>(journal.records_appended)),
       "bytes"},
      {"journal.append_errors", static_cast<double>(journal.append_errors), "count"},
      {"snapshot.load_ms", ledger.snapshot_load_ms, "ms"},
      {"journal.replay_ms", ledger.journal_replay_ms, "ms"},
  };

  // Reconciliation at one request in flight: the blocking-path layers
  // against the traced end-to-end mean, remainder printed, not hidden.
  const double e2e = mean(traced_rtt_us);
  const double stream = static_cast<double>(ledger.solve_line_us.size());
  const std::vector<std::pair<const char*, double>> parts = {
      {"socket", mean(ledger.socket_us)},
      {"render", mean(ledger.render_us)},
      {"broker.self", mean(ledger.self_us)},
      {"canonicalize", mean(ledger.canonicalize_us)},
      {"cache.probe", mean(ledger.probe_us)},
      {"solve", stream > 0 ? us(ledger.stream_solve_s) / stream : 0.0},
      {"denormalize", mean(ledger.denormalize_us)},
  };
  double explained = 0.0;
  const char* dominant = "none";
  double dominant_us = -1.0;
  for (const auto& [name, value] : parts) {
    explained += value;
    if (value > dominant_us) {
      dominant_us = value;
      dominant = name;
    }
  }
  const double remainder = e2e - explained;
  const double traced_p50 = percentile(traced_rtt_us, 0.5);
  const double untraced_p50 = percentile(untraced_rtt_us, 0.5);
  metrics.push_back({"ledger.e2e_1conn_us", e2e, "us"});
  metrics.push_back({"ledger.unexplained_us", remainder, "us"});
  metrics.push_back({"ledger.tracing_overhead_ratio", ratio(traced_p50, untraced_p50), "ratio"});

  for (const Metric& m : metrics) {
    std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("reconcile %s e2e_mean_us=%.2f (p50 %.2f, %zu requests, 1 in flight):",
              workload.name.c_str(), e2e, traced_p50, traced_rtt_us.size());
  for (const auto& [name, value] : parts) {
    std::printf(" %s=%.2f(%.1f%%)", name, value, 100.0 * ratio(value, e2e));
  }
  std::printf(" unexplained=%.2f(%.1f%%) dominant=%s\n", remainder, 100.0 * ratio(remainder, e2e),
              dominant);
  const double solver_ms =
      ledger.single_ms + ledger.greedy_ms + ledger.beam_ms + ledger.local_search_ms;
  if (ledger.heuristic_solves > 0) {
    std::printf("solve split over %zu heuristic solves (program solve time, split as the "
                "reference sweep spent it): beam %.1f%%, local_search %.1f%%, greedy_split "
                "%.1f%%, single_interval %.1f%%; %.1f passes per front\n",
                ledger.heuristic_solves, 100.0 * ratio(ledger.beam_ms, solver_ms),
                100.0 * ratio(ledger.local_search_ms, solver_ms),
                100.0 * ratio(ledger.greedy_ms, solver_ms),
                100.0 * ratio(ledger.single_ms, solver_ms),
                ledger.front_passes / fronts);
    std::printf("reference sweep: %.2f ms per heuristic solve vs the program's %.2f ms "
                "(ratio %.4f); fronts differing from the program's: %zu\n",
                1e3 * ledger.heuristic_reference_s / solves,
                1e3 * ledger.heuristic_program_s / solves,
                ratio(ledger.heuristic_reference_s, ledger.heuristic_program_s),
                tracer.reference_mismatches());
  }
  std::printf("tracing overhead: traced p50 %.2f us vs untraced p50 %.2f us over %zu requests "
              "(ratio %.4f)\n",
              traced_p50, untraced_p50, untraced_rtt_us.size(), ratio(traced_p50, untraced_p50));
  std::printf("server_exit %d\n", server_status);
  const bool correct = failed == 0 && server_status == 0 && all_finite(metrics);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics_json(metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace servebench
