#pragma once

/// \file loadgen.hpp
/// The load generator: closed loops (one in-flight request per connection,
/// timed from send) and the open loop (Poisson arrivals pipelined over the
/// connections, timed from the due time).

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "server_process.hpp"
#include "workload.hpp"

namespace servebench {

/// Untimed load run right before the timed window, on the same stream.
constexpr double kWarmupSeconds = 1.0;

/// One request's outcome. Times are seconds since the timed window opened,
/// negative during the warm-up.
struct Sample {
  std::size_t index = 0;
  double latency_s = 0.0;    ///< closed: send -> done; open: due -> done
  double sent_s = 0.0;       ///< closed: send time; open: due time
  double done_s = 0.0;       ///< completion
  double lag_s = 0.0;        ///< open loop: actual send - due time
  bool ok = false;           ///< an `ok solve` reply arrived
  std::uint64_t front = 0;   ///< its `front=` checksum
  std::string error;         ///< err line or transport failure
};

struct WindowResult {
  std::vector<Sample> samples;  ///< every request sent, warm-up included, by index
  double seconds = 0.0;         ///< the timed window
};

/// A started server with the workload's connections open and set up.
struct LiveServer {
  std::unique_ptr<ServerProcess> server;
  std::vector<std::unique_ptr<Connection>> connections;
  double setup_s = 0.0;  ///< launch -> first timed request can be sent
};

/// mixed-churn's untimed preload session: writes `dir`/preload.snap (the
/// first preload list, saved with `snapshot save`) and `dir`/preload.jnl
/// (the second list, journaled behind it), then kills the server.
void write_preload(const Workload& workload, const std::string& binary,
                   const std::filesystem::path& dir);

/// Launches relap_serve for the workload and runs its setup: persistence
/// recovery (from fresh copies of the preload files), connections, uploads
/// and priming solves. `setup_s` times all of it.
[[nodiscard]] LiveServer start_server(const Workload& workload, const std::string& binary,
                                      const std::filesystem::path& dir);

/// Closes the connections, then stops the server gracefully; returns its
/// exit status.
int stop_server(LiveServer& live);

/// Opens the workload's connections and uploads each connection's
/// presentations; throws on any refused upload.
[[nodiscard]] std::vector<std::unique_ptr<Connection>> connect_and_upload(
    const Workload& workload, std::uint16_t port, std::size_t connections);

/// Sends `requests` (each on its own connection index) and checks every
/// reply is `ok`; the setup-time priming and preload sessions use this.
void solve_all(std::vector<std::unique_ptr<Connection>>& connections,
               const std::vector<Request>& requests);

/// Runs the workload over `connections` for kWarmupSeconds, then for the
/// timed window of `seconds`.
[[nodiscard]] WindowResult run_window(const Workload& workload,
                                      std::vector<std::unique_ptr<Connection>>& connections,
                                      double seconds);

}  // namespace servebench
