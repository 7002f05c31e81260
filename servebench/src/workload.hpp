#pragma once

/// \file workload.hpp
/// The benchmark's seeded request streams. The server only ever sees the
/// protocol text generated here; the same structures also drive the
/// in-process reference solves and the traced replay.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "relap/service/broker.hpp"

namespace servebench {

using relap::service::InstanceData;
using relap::service::Objective;

/// Solve knobs of one request (method stays `auto`, budget and sweep stay at
/// the protocol defaults).
struct Knobs {
  Objective objective = Objective::ParetoFront;
  double threshold = 0.0;
};

/// A named instance presentation, as one connection uploads it.
struct Presentation {
  std::string name;
  InstanceData data;
};
using PresentationPtr = std::shared_ptr<const Presentation>;

/// One timed request of the stream.
struct Request {
  std::size_t index = 0;
  std::size_t connection = 0;
  PresentationPtr presentation;
  Knobs knobs;
  /// True when the presentation is uploaded right before its solve line
  /// (cold-solves); otherwise it was uploaded during setup.
  bool upload = false;
};

/// `instance <name> ... end` block for a presentation, every double printed
/// with 17 significant digits so it parses back bit for bit.
[[nodiscard]] std::string upload_text(const Presentation& presentation);

/// `solve <name>[ knobs]\n`.
[[nodiscard]] std::string solve_line(const Request& request);

/// The in-process twin of a request's wire form.
[[nodiscard]] relap::service::SolveRequest solve_request(const Request& request);

/// The fresh 6x8 fully heterogeneous instance #i of the cold stream for
/// `seed`.
[[nodiscard]] PresentationPtr cold_instance(std::uint64_t seed, std::size_t i);

/// Instance #i of the sample `front_fp_ratio` is measured on: shaped like
/// the cold stream's, but drawn from a constant seed, so the ratio depends
/// on the code only, not on --seed.
[[nodiscard]] PresentationPtr front_sample_instance(std::size_t i);

struct Workload {
  std::string name;
  bool open_loop = false;
  std::size_t connections = 4;
  /// Closed loops: requests outstanding per connection. With more than one
  /// the server always has the next line queued, so throughput is its
  /// processing rate, not the rate at which idle threads are woken. A
  /// workload that uploads before each solve keeps one.
  std::size_t in_flight = 1;
  /// Offered Poisson rate of the open loop (requests/s).
  double rate_rps = 0.0;
  /// relap_serve flags besides `--port 0` (persistence paths are added by
  /// the caller, which owns the files).
  std::vector<std::string> server_args;
  /// mixed-churn: relap_serve runs with a snapshot + group-commit journal
  /// recovered from an untimed preload session.
  bool persistent = false;
  std::size_t journal_fsync_every = 0;
  std::size_t cache_entries = 0;
  /// Per connection: presentations uploaded during setup.
  std::vector<std::vector<PresentationPtr>> uploads;
  /// Solves issued during setup so the timed stream hits (warm-hits).
  std::vector<Request> priming;
  /// mixed-churn preload session: solved, then `snapshot save`, then the
  /// second list is solved into the journal.
  std::vector<Request> preload_snapshot;
  std::vector<Request> preload_journal;

  std::uint64_t seed = 0;

  /// Request #i of the stream (deterministic in seed and i).
  [[nodiscard]] Request request(std::size_t i) const;

  // Stream parameters (see workload.cpp).
  std::vector<double> zipf_cdf;                 ///< mixed: catalogue popularity
  std::vector<std::vector<Knobs>> catalogue_knobs;  ///< mixed: valid knobs per instance
};

/// Builds the named workload ("warm-hits", "cold-solves", "mixed-churn").
/// `reference` is the in-process broker used to validate thresholds (mixed)
/// and later to check replies; building may warm it. Throws on an unknown
/// name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed,
                                     relap::service::Broker& reference);

}  // namespace servebench
