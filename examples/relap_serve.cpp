// The relap serving front: a long-lived broker process speaking the
// newline-delimited line protocol of service/server.hpp over stdin/stdout
// (default) or a loopback TCP socket.
//
//   $ ./relap_serve [--stdio] [--port N] [--snapshot PATH] [--journal PATH]
//                   [--journal-fsync-every N] [--snapshot-interval-s N]
//                   [--cache-entries N] [--max-stages N] [--max-processors N]
//                   [--max-connections N] [--read-timeout-ms N]
//                   [--write-timeout-ms N] [--queue-high-watermark N]
//                   [--queue-low-watermark N]
//
//   --stdio            serve one session over stdin/stdout (default)
//   --port N           serve loopback TCP on port N instead (0 = ephemeral;
//                      the chosen port is printed to stderr)
//   --snapshot PATH    warm-start the memo cache from PATH if it exists, and
//                      save the cache back to PATH on clean exit
//   --journal PATH     write-ahead journal: every cache-miss solve appends a
//                      checksummed record; on startup the journal is replayed
//                      on top of the snapshot (torn tail truncated), so a
//                      kill -9 loses at most the unsynced group-commit suffix
//   --journal-fsync-every N  group-commit interval: fsync the journal every
//                            N records (default 1 = every record; 0 = never)
//   --snapshot-interval-s N  autosave the snapshot (and compact the journal)
//                            every N seconds while serving (0 = only on exit)
//   --cache-entries N  memo-cache capacity (entries)
//   --max-stages N     admission cap on pipeline stages
//   --max-processors N admission cap on platform processors
//   --max-connections N    concurrent TCP connection cap (extra connections
//                          get `err overloaded` and are closed)
//   --read-timeout-ms N    reap TCP connections idle this long (0 = never)
//   --write-timeout-ms N   give up on peers not draining responses (0 = off)
//   --queue-high-watermark N  past this many pending tickets, shed queued
//                             work (`err overloaded`): latest deadline first,
//                             newest among equals
//   --queue-low-watermark N   shed down to this many (default: half of high)
//
// In TCP mode SIGTERM/SIGINT trigger a graceful drain: the server stops
// accepting, live connections get `err shutting-down` on their next line,
// in-flight work finishes, and the snapshot (if configured) is saved before
// exit — so an orchestrator's stop signal never tears a snapshot or drops
// an accepted request silently.
//
// On exit the full metrics JSON is printed to stderr, so scripted sessions
// (CI drives one end-to-end) can assert on the counters without mixing
// diagnostics into the protocol stream on stdout.

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "relap/service/broker.hpp"
#include "relap/service/server.hpp"
#include "relap/util/strings.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--stdio] [--port N] [--snapshot PATH] [--journal PATH]\n"
               "          [--journal-fsync-every N] [--snapshot-interval-s N]\n"
               "          [--cache-entries N] [--max-stages N] [--max-processors N]\n"
               "          [--max-connections N] [--read-timeout-ms N] [--write-timeout-ms N]\n"
               "          [--queue-high-watermark N] [--queue-low-watermark N]\n",
               argv0);
  return 2;
}

// Signal handlers may only touch async-signal-safe state: request_stop() is
// an atomic store plus shutdown(2) on the listener. The broker's own drain
// (which takes a mutex) happens on the main thread once serve() returns.
relap::service::TcpServer* g_server = nullptr;

void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace relap;

  bool use_tcp = false;
  std::size_t port = 0;
  std::string snapshot_path;
  std::string journal_path;
  service::JournalOptions journal_options;
  std::size_t snapshot_interval_s = 0;
  service::BrokerOptions options;
  service::ServerOptions server_options;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next_size = [&]() -> std::optional<std::size_t> {
      if (i + 1 >= argc) return std::nullopt;
      return util::parse_size(argv[++i]);
    };
    if (arg == "--stdio") {
      use_tcp = false;
    } else if (arg == "--port") {
      const std::optional<std::size_t> value = next_size();
      if (!value || *value > 65535) return usage(argv[0]);
      use_tcp = true;
      port = *value;
    } else if (arg == "--snapshot") {
      if (i + 1 >= argc) return usage(argv[0]);
      snapshot_path = argv[++i];
    } else if (arg == "--journal") {
      if (i + 1 >= argc) return usage(argv[0]);
      journal_path = argv[++i];
    } else if (arg == "--journal-fsync-every") {
      const std::optional<std::size_t> value = next_size();
      if (!value) return usage(argv[0]);
      journal_options.fsync_every = *value;
    } else if (arg == "--snapshot-interval-s") {
      const std::optional<std::size_t> value = next_size();
      if (!value || *value > 86'400) return usage(argv[0]);
      snapshot_interval_s = *value;
    } else if (arg == "--cache-entries") {
      const std::optional<std::size_t> value = next_size();
      if (!value || *value == 0) return usage(argv[0]);
      options.cache.capacity = *value;
    } else if (arg == "--max-stages") {
      const std::optional<std::size_t> value = next_size();
      if (!value || *value == 0) return usage(argv[0]);
      options.max_stages = *value;
    } else if (arg == "--max-processors") {
      const std::optional<std::size_t> value = next_size();
      if (!value || *value == 0) return usage(argv[0]);
      options.max_processors = *value;
    } else if (arg == "--max-connections") {
      const std::optional<std::size_t> value = next_size();
      if (!value || *value == 0) return usage(argv[0]);
      server_options.max_connections = *value;
    } else if (arg == "--read-timeout-ms") {
      const std::optional<std::size_t> value = next_size();
      if (!value || *value > 86'400'000) return usage(argv[0]);
      server_options.read_timeout_ms = static_cast<int>(*value);
    } else if (arg == "--write-timeout-ms") {
      const std::optional<std::size_t> value = next_size();
      if (!value || *value > 86'400'000) return usage(argv[0]);
      server_options.write_timeout_ms = static_cast<int>(*value);
    } else if (arg == "--queue-high-watermark") {
      const std::optional<std::size_t> value = next_size();
      if (!value) return usage(argv[0]);
      options.queue_high_watermark = *value;
    } else if (arg == "--queue-low-watermark") {
      const std::optional<std::size_t> value = next_size();
      if (!value) return usage(argv[0]);
      options.queue_low_watermark = *value;
    } else {
      return usage(argv[0]);
    }
  }

  service::Broker broker(options);

  if (!snapshot_path.empty() || !journal_path.empty()) {
    // Startup recovery: snapshot (if present) + journal replay. A rejected
    // snapshot or a corrupt journal is a real problem: refusing to run
    // beats silently serving cold and overwriting the evidence on exit.
    const auto recovered = broker.recover(snapshot_path, journal_path, journal_options);
    if (!recovered.has_value()) {
      std::fprintf(stderr, "relap_serve: recovery failed: %s\n",
                   recovered.error().to_string().c_str());
      return 1;
    }
    if (recovered->snapshot_loaded || recovered->journal_records > 0) {
      std::fprintf(stderr,
                   "relap_serve: warm start: %zu snapshot entries + %llu journal records "
                   "(%llu torn discarded) in %.3fs\n",
                   recovered->snapshot_entries,
                   static_cast<unsigned long long>(recovered->journal_records),
                   static_cast<unsigned long long>(recovered->torn_records),
                   recovered->seconds);
    } else {
      std::fprintf(stderr, "relap_serve: cold start (nothing to recover)\n");
    }
  }

  // Periodic autosave: snapshot + journal compaction on a timer, so a crash
  // replays a short journal instead of the whole uptime's worth of solves.
  std::thread autosave;
  std::mutex autosave_mutex;
  std::condition_variable autosave_cv;
  bool autosave_stop = false;
  if (snapshot_interval_s > 0 && !snapshot_path.empty()) {
    autosave = std::thread([&] {
      std::unique_lock<std::mutex> lock(autosave_mutex);
      while (!autosave_cv.wait_for(lock, std::chrono::seconds(snapshot_interval_s),
                                   [&] { return autosave_stop; })) {
        lock.unlock();
        const auto saved = broker.save_snapshot(snapshot_path);
        if (saved.has_value()) {
          std::fprintf(stderr, "relap_serve: autosaved %zu entries to %s\n", saved->entries,
                       snapshot_path.c_str());
        } else {
          std::fprintf(stderr, "relap_serve: autosave failed: %s\n",
                       saved.error().to_string().c_str());
        }
        lock.lock();
      }
    });
  }

  if (use_tcp) {
    auto server = service::TcpServer::bind_localhost(static_cast<std::uint16_t>(port));
    if (!server.has_value()) {
      std::fprintf(stderr, "relap_serve: %s\n", server.error().to_string().c_str());
      return 1;
    }
    std::fprintf(stderr, "relap_serve: listening on 127.0.0.1:%u\n",
                 static_cast<unsigned>(server->port()));
    g_server = &server.value();
    std::signal(SIGTERM, handle_stop_signal);
    std::signal(SIGINT, handle_stop_signal);
    const std::size_t sessions = server.value().serve(broker, server_options);
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    g_server = nullptr;
    // Graceful drain: refuse any further broker work before the snapshot is
    // saved (connection threads have already been joined by serve()).
    broker.begin_shutdown();
    std::fprintf(stderr, "relap_serve: served %zu session(s)\n", sessions);
  } else {
    (void)service::serve_stream(broker, std::cin, std::cout);
  }

  if (autosave.joinable()) {
    {
      std::lock_guard<std::mutex> lock(autosave_mutex);
      autosave_stop = true;
    }
    autosave_cv.notify_all();
    autosave.join();
  }

  if (!snapshot_path.empty()) {
    const auto saved = broker.save_snapshot(snapshot_path);
    if (saved.has_value()) {
      std::fprintf(stderr, "relap_serve: saved %zu entries (%zu bytes) to %s\n", saved->entries,
                   saved->bytes, snapshot_path.c_str());
    } else {
      std::fprintf(stderr, "relap_serve: snapshot save failed: %s\n",
                   saved.error().to_string().c_str());
      return 1;
    }
  } else if (!journal_path.empty()) {
    // No snapshot to compact into: make the journal tail durable instead.
    const auto synced = broker.sync_journal();
    if (!synced.has_value()) {
      std::fprintf(stderr, "relap_serve: journal sync failed: %s\n",
                   synced.error().to_string().c_str());
    }
  }

  std::fprintf(stderr, "%s\n", broker.metrics_json().c_str());
  return 0;
}
