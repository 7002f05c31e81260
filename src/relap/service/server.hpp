#pragma once

/// \file server.hpp
/// The line-protocol serving front: a newline-delimited request/response
/// text protocol over the broker, so shell scripts and non-C++ tenants can
/// submit instances, solve with knobs, read metrics and manage snapshots
/// without linking the library. `examples/relap_serve.cpp` is the binary.
///
/// Protocol (one command per line; '#' starts a comment line, blank lines
/// are ignored; every response line is either `ok ...`, `err <seq> <code>
/// <message>`, or a continuation line of a multi-line response). `<seq>` is
/// the 1-based ordinal of the offending input line within its session
/// (blank and comment lines don't count), so a client pipelining many lines
/// over one connection can correlate each failure with the line that caused
/// it; server-level errors emitted outside any session line (overload
/// refusals, idle timeouts, drain notices) carry seq 0:
///
///     instance <name>           begin an instance block; inside it:
///       input <delta0>            external input data size
///       stage <pos> <work> <out>  one stage record (semantic position)
///       proc <speed> <fp> <in> <out> [b0 .. bM-1]
///                                 one processor record; trailing values are
///                                 its link-bandwidth row (diagonal ignored)
///       links <b>                 uniform link bandwidth for every proc
///                                 without an explicit row
///     end                       -> ok instance <name> stages=N processors=M
///     solve <name> [obj=pareto|minfp|minlat] [threshold=X] [method=auto|
///           exact|heuristic|exhaustive] [budget=N] [sweep=K]
///                               -> ok solve name=... cache=hit|miss
///                                  exact=0|1 algorithm=... points=K
///                                  front=0x... canonical=0x... solve_ms=...
///                                  trace <spans json>
///                                  point <i> latency=... fp=... mapping=...
///                                  done
///     stats                     -> ok stats <metrics json>
///     snapshot save <path>      -> ok snapshot save entries=N bytes=N
///     snapshot load <path>      -> ok snapshot load entries=N bytes=N
///     drop <name>               -> ok drop <name>
///     ping                      -> ok pong
///     quit                      -> ok bye        (ends this session)
///     shutdown                  -> ok shutdown   (ends the whole server)
///
/// Hardening: wire input is parsed into raw `InstanceData` records and fed
/// through the broker's structured-`Expected` admission path — the library
/// types that treat malformed values as programming errors are never
/// constructed from unvalidated bytes, so no wire input can trip an assert.
/// Numeric fields use the strict whole-token parsers from util/strings;
/// anything unparseable answers `err protocol ...` and leaves the session
/// usable. Error messages are flattened to one line so a response can never
/// be mistaken for multiple protocol lines.
///
/// Transports: `serve_stream` runs a session over any istream/ostream pair
/// (relap_serve wires stdin/stdout); `TcpServer` accepts loopback-only TCP
/// connections and serves up to `max_connections` of them concurrently, one
/// thread and one fresh `Session` per connection. Responses within a
/// connection stay strictly ordered; across connections the broker's shared
/// batch queue (`Broker::solve_batched`) is what coalesces, dedupes and
/// priority-orders the actual solving — so concurrent serving returns
/// bit-identical fronts to sequential serving.
///
/// Overload behavior on the TCP front (every limit answers with a
/// structured `err` line, never a hang):
///   - connections past `max_connections`: `err overloaded ...`, closed.
///   - a connection idle past `read_timeout_ms`: `err timeout ...`, reaped.
///   - a peer not draining its responses past `write_timeout_ms`: closed.
///   - an unterminated line past 1 MiB: `err 0 oversized ...`, closed (the
///     read buffer never grows past the cap plus one read).
///   - lines arriving after a stop request: `err shutting-down ...`.
/// A `shutdown` command (or `request_stop()`, e.g. from a SIGTERM handler)
/// stops the accept loop, lets in-flight lines finish, and — for the
/// session-issued `shutdown` — puts the broker into its graceful drain.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "relap/service/broker.hpp"

namespace relap::service {

struct SessionOptions {
  /// Wire-level caps, enforced before any record is buffered, so a
  /// malicious peer cannot balloon memory regardless of broker caps.
  std::size_t max_stage_records = 4096;
  std::size_t max_processor_records = 4096;
  std::size_t max_instances = 1024;
  /// Route `solve` through the broker's shared submit/drain batch queue
  /// (`Broker::solve_batched`) instead of a direct `solve`: concurrent
  /// sessions then coalesce into one deduped, priority-ordered batch. The
  /// concurrent TCP front turns this on by default.
  bool batch_solves = false;
};

/// One protocol session: feeds lines in, accumulates response lines.
/// Stateful: named instances registered by `instance ... end` blocks live
/// for the session, and an in-progress block spans multiple lines. Each
/// upload is prepared once (`Broker::prepare`: caps, then canonicalization)
/// and only that prepared form is kept; every `solve` naming it shares it.
class Session {
 public:
  using Options = SessionOptions;

  explicit Session(Broker& broker, Options options = {});

  /// Handles one input line, appending zero or more '\n'-terminated
  /// response lines to `out`. Returns false when the session is over
  /// (`quit`/`shutdown`); the session must not be fed further lines.
  [[nodiscard]] bool handle_line(std::string_view line, std::string& out);

  /// True once a `shutdown` command was handled: the transport should stop
  /// accepting new sessions, not just close this one.
  [[nodiscard]] bool shutdown_requested() const { return shutdown_; }

 private:
  void handle_command(std::string_view line, std::string& out);
  void handle_block_line(std::string_view line, std::string& out);
  void handle_solve(std::string_view args, std::string& out);
  void handle_snapshot(std::string_view args, std::string& out);
  /// `err <seq> <code> <message>` with this session's current line ordinal.
  void emit_err(std::string& out, std::string_view code, std::string_view message) const;
  void emit_err(std::string& out, const util::Error& error) const;

  Broker& broker_;
  Options options_;
  std::unordered_map<std::string, std::shared_ptr<const PreparedInstance>> instances_;
  std::uint64_t seq_ = 0;  ///< protocol lines handled (the `err <seq>` ordinal)

  // In-progress `instance` block.
  bool in_block_ = false;
  std::string block_name_;
  InstanceData block_instance_;
  bool block_has_uniform_links_ = false;
  double block_uniform_links_ = 0.0;

  bool closed_ = false;    ///< session over (`quit` or `shutdown`)
  bool shutdown_ = false;  ///< whole-server stop requested
};

/// Serves one session over a stream pair, reading lines from `in` until it
/// is exhausted or the session ends; responses are written (and flushed)
/// after every line. Returns true iff the session requested shutdown.
bool serve_stream(Broker& broker, std::istream& in, std::ostream& out,
                  Session::Options options = {});

/// Knobs of the concurrent TCP front.
struct ServerOptions {
  ServerOptions() { session.batch_solves = true; }

  SessionOptions session;
  /// Concurrent connection cap; connections past it are refused with
  /// `err overloaded` and closed.
  std::size_t max_connections = 8;
  /// Reap a connection idle for this long (0 = never). The reaped peer gets
  /// one final `err timeout` line.
  int read_timeout_ms = 0;
  /// Give up on a peer that does not drain its responses for this long
  /// (0 = wait forever).
  int write_timeout_ms = 0;
};

/// A loopback-only TCP front serving up to `max_connections` concurrent
/// sessions, until some session issues `shutdown` or `request_stop()` is
/// called.
class TcpServer {
 public:
  TcpServer() = default;
  TcpServer(TcpServer&& other) noexcept;
  TcpServer& operator=(TcpServer&& other) noexcept;
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;
  ~TcpServer();

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port, readable via
  /// `port()` afterwards). Error code "io" on socket failures.
  [[nodiscard]] static util::Expected<TcpServer> bind_localhost(std::uint16_t port);

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] bool bound() const { return fd_ >= 0; }

  /// Accept loop: serves sessions concurrently until one requests shutdown,
  /// `request_stop()` is called, or the socket errors out. Returns the
  /// number of connections accepted and served (refused-overloaded ones not
  /// counted). All connection threads are joined before returning.
  std::size_t serve(Broker& broker, const ServerOptions& options);

  /// Compatibility overload: per-session options only, direct (non-batched)
  /// solves, default concurrency knobs.
  std::size_t serve(Broker& broker, Session::Options options = {});

  /// Asks a running `serve` to wind down: stop accepting, answer further
  /// lines on live connections with `err shutting-down`, and return once
  /// in-flight lines finish. Safe to call from a signal-triggered thread.
  void request_stop();

 private:
  void serve_connection(Broker& broker, int conn, const ServerOptions& options);
  [[nodiscard]] bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }

  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
};

}  // namespace relap::service
