#pragma once

/// \file ledger.hpp
/// The traced run: the workload's seeded stream is sent over TCP one request
/// at a time, and after each reply the benchmark replays the same request
/// in-process through every layer's public functions, timing each call from
/// here (the program itself is not instrumented). Prints the per-layer
/// ledger, a reconciliation of the layers against the one-in-flight
/// end-to-end time, and the per-layer metrics as the final JSON line.

#include <filesystem>
#include <string>

#include "relap/service/broker.hpp"
#include "workload.hpp"

namespace servebench {

/// Returns the process exit status (non-zero on any wrong reply).
int run_ledger(const std::string& server_binary, const Workload& workload,
               relap::service::Broker& reference, const std::filesystem::path& dir,
               double seconds);

}  // namespace servebench
