// The rebalancing service: a long-running daemon that answers wire-protocol
// requests (svc/wire.h) over TCP and/or Unix-domain sockets.
//
// Architecture (1 acceptor + N reactors + M engine workers):
//
//   acceptor thread (run())
//   ─ polls the listeners + its self-pipe
//   ─ accepts connections, applies the max_connections cap, and hands each
//     new fd round-robin to a reactor's inbox (one byte on that reactor's
//     self-pipe wakes it)
//   ─ owns drain: on a signal or Drain request it closes the listeners and
//     then joins the reactors
//
//   reactor threads (ServerOptions::reactors, each owns its connections)
//   ─ per-reactor poll(2) loop, self-pipe wakeup, connection table, an
//     incrementally maintained pollfd set (no per-iteration rebuild), and
//     one solve arena (engine::Scratch, warmed to the engine's bounds)
//   ─ non-blocking reads, incremental frame parsing (partial reads OK);
//     each poll pass reads every ready connection before it answers any
//     frame, and counts the complete Solve frames the pass brought in
//   ─ answers Ping/Stats inline
//   ─ answers a Solve inline, through BatchSolver::solve_item in its own
//     arena, when the Solve is cheap (its backend's descriptor says
//     runs_inline and n <= kWarmJobs, m <= kWarmProcs) and the reactor is
//     idle: none of its Solves is outstanding on the engine, and the Solve
//     is the only one this poll pass read. Every other Solve (a pipelined
//     backlog, a burst from several connections) goes to the shared
//     pending queue, under admission control (queue depth >= max_queue ->
//     Overloaded reply).
//   ─ answers streaming-session frames (wire v2) inline through the one
//     SessionTable (svc/session_table.h), whichever reactor they land on:
//     each session has its own mutex, so its frames run one at a time
//     while different sessions run on different reactors. Replans run on
//     the reactor thread, in its arena, through the shared BatchSolver
//     (cache-aware) — see docs/streaming.md.
//   ─ writes replies, partial writes buffered and driven by POLLOUT
//   ─ per-reactor svc.reactor<i>.* counters next to the svc.* aggregates
//
//   engine workers (ServerOptions::engine_workers, shared BatchSolver)
//   ─ each pulls a coalesced batch (up to 64 Solves) from the shared
//     pending queue into ONE engine::BatchSolver tick over leased Scratch
//     arenas; multiple ticks run concurrently when engine_workers > 1
//   ─ sheds requests whose deadline passed before dispatch
//   ─ posts each result to the owning reactor's result inbox + self-pipe
//
// Backpressure never blocks and never hangs: a request is either answered
// with its solve result or with an explicit Error (Overloaded /
// DeadlineExceeded / Draining / BadRequest). A Solve is decoded before
// admission, so a malformed one is a BadRequest even when the queue is
// full. An inline Solve is never queued, so max_queue does not count it
// and its deadline never sheds it (it is dispatched as it is decoded); a
// reactor that is solving reads nothing, so TCP flow control pushes back
// on its connections. A client must read while it pipelines: a
// connection whose write buffer holds more than 4 MiB of replies is not
// read again until that buffer is flushed (svc.reads_paused counts the
// pauses), so its unread replies cannot grow without bound.
//
// Reply ordering: each connection's replies ride one FIFO write buffer, so
// frames are ordered per connection; with engine_workers > 1, replies to
// *different* requests on the same connection may be queued out of request
// order (concurrent ticks finish independently) — the echoed request id is
// the correlation mechanism, exactly as on reconnect/retry paths. A Solve
// runs inline only while none of its reactor's Solves is on the engine,
// so an inline reply never overtakes an engine reply.
//
// Drain: a Drain request or SIGTERM (wired via notify_signal(), which is
// async-signal-safe) stops accepting new connections and new Solves;
// every request already admitted — on any reactor — is still solved and
// its reply flushed before run() returns. A reactor acks the drain and
// exits only once no reactor has a Solve on the engine (every
// Reactor::engine_outstanding is zero), so the DrainOk ack is ordered
// after every reply on its connection. An inline Solve needs no such
// accounting: its reply is in the write buffer before its reactor polls
// again. Zero dropped in-flight requests, across all reactors.
//
// Determinism: replies are byte-identical to the serial entry points
// (engine::solve_serial_reference) regardless of batching composition or
// concurrency — per-reactor framing, tick coalescing, and concurrent ticks
// cannot change any reply, because BatchSolver guarantees exactly that per
// instance. With the solution cache enabled (engine.cache_bytes > 0) the
// reference is engine::cached_serial_reference instead — still a pure
// function of the request, identical on cold misses and warm hits
// (docs/caching.md).

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/batch_solver.h"
#include "obs/metrics.h"
#include "svc/fault/io_shim.h"
#include "svc/session_table.h"
#include "svc/wire.h"

namespace lrb::svc {

struct ServerOptions {
  /// Unix-domain socket path; empty disables the UDS listener. An existing
  /// socket file at the path is replaced.
  std::string unix_path;
  /// TCP port; -1 disables the TCP listener, 0 binds an ephemeral port
  /// (query the result with tcp_port()).
  int tcp_port = -1;
  std::string tcp_bind = "127.0.0.1";

  /// Pool size, default algo params, metrics, and the byte budget of the
  /// canonicalizing solution cache (engine.cache_bytes, docs/caching.md;
  /// 0 = off). Cache hits skip the solver entirely and replies stay
  /// byte-identical to engine::cached_serial_reference. lrb_serve
  /// --cache-mb sets the cache budget; cache.* counters/gauges appear in
  /// the Stats JSON snapshot.
  engine::BatchOptions engine;

  /// Event-loop shards: each reactor thread owns its own poll loop,
  /// self-pipe, and connection table; the acceptor deals new connections
  /// round-robin. Values < 1 are treated as 1. Exposed by
  /// lrb_serve --reactors.
  std::size_t reactors = 1;
  /// Engine tick workers pulling coalesced batches from the shared pending
  /// queue; > 1 runs multiple BatchSolver ticks concurrently (replies stay
  /// byte-identical — see the determinism note above). Values < 1 are
  /// treated as 1. Exposed by lrb_serve --engine-workers.
  std::size_t engine_workers = 1;

  /// Admission control: engine-bound Solves arriving while this many are
  /// already pending (queued, not yet dispatched) are shed with
  /// Overloaded, decided as each decoded Solve is queued. Inline Solves
  /// never enter the queue.
  std::size_t max_queue = 256;
  std::size_t max_connections = 256;
  /// Admission cap on concurrently open streaming sessions (across all
  /// reactors); SessionOpens beyond it are shed with Overloaded.
  std::size_t max_sessions = 1024;
  /// Testing/chaos knob: an engine worker sleeps this long before each
  /// tick's deadline check, simulating a slow engine. Lets tests exercise
  /// deadline shedding and queue backpressure deterministically. Inline
  /// Solves never wait for it; a PTAS Solve always takes the engine.
  std::uint32_t tick_delay_ms = 0;
  /// Metrics registry for "svc.*" metrics (and, unless options.engine
  /// overrides it separately, also handed to the BatchSolver). Defaults to
  /// the process-wide registry.
  obs::Registry* metrics = &obs::Registry::global();
  /// Socket-IO seam: every connection recv/send and every event-loop poll
  /// (acceptor and reactors alike) go through this. Production uses the
  /// passthrough; the chaos harness substitutes a fault::FaultInjector
  /// (whose per-fd decision streams are mutex-guarded, so concurrent
  /// reactors stay race-free).
  fault::SocketIo* io = &fault::SocketIo::real();
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens the listeners, creates the reactors, and starts the engine
  /// workers. Returns false (and sets *error) on socket setup failure.
  [[nodiscard]] bool start(std::string* error);

  /// Spawns the reactor threads and runs the acceptor loop until drained
  /// (Drain request or notify_signal); joins the reactors before
  /// returning. Call from the thread that owns the server; tests run it
  /// in a std::thread.
  void run();

  /// Async-signal-safe drain trigger: write one byte to the self-pipe.
  /// Safe to call from a SIGTERM handler or any thread, once start()
  /// returned true and until the destructor begins.
  void notify_signal() noexcept;

  /// Actual TCP port after start() (useful with tcp_port = 0).
  [[nodiscard]] int tcp_port() const noexcept { return bound_tcp_port_; }

  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t gen = 0;     ///< live generation (fd reuse detection)
    std::size_t poll_idx = 0;  ///< this connection's slot in Reactor::fds
    std::string read_buf;
    std::string write_buf;
    std::size_t write_pos = 0;  ///< flushed prefix of write_buf
    bool close_after_flush = false;
    bool wants_drain_ack = false;
    bool dirty = false;  ///< queued for flush / poll-event recompute
  };

  struct PendingSolve {
    std::size_t reactor = 0;     ///< reactor owning the connection
    std::uint64_t conn_gen = 0;  ///< generation-checked connection handle
    int fd = -1;
    std::uint64_t request_id = 0;
    SolveRequest request;
    std::chrono::steady_clock::time_point deadline{};  ///< zero = none
    bool has_deadline = false;
    std::chrono::steady_clock::time_point received{};
  };

  struct SolveOutcome {
    std::size_t reactor = 0;
    std::uint64_t conn_gen = 0;
    int fd = -1;
    std::uint64_t request_id = 0;
    MsgType type = MsgType::kSolveOk;
    std::string payload;
    double request_latency_ms = 0.0;
  };

  /// One event-loop shard. `mutex` guards only the two cross-thread
  /// inboxes (`incoming` from the acceptor, `results` from the engine
  /// workers); everything else is owned by the reactor thread alone
  /// (touched by run()/~Server only after the thread is joined).
  struct Reactor {
    std::size_t index = 0;
    int wake_pipe[2] = {-1, -1};  ///< [0] polled; [1] written by others
    std::thread thread;

    std::mutex mutex;
    std::deque<int> incoming;  ///< accepted fds awaiting adoption
    std::deque<SolveOutcome> results;

    std::map<int, Connection> connections;
    std::vector<pollfd> fds;  ///< slot 0 = wake pipe; maintained in place
    std::vector<int> dirty_fds;
    std::string scratch;  ///< reused reply-payload encode buffer
    /// This reactor's solve arena (inline Solves and session replans),
    /// warmed to the engine's bounds; never shared with the engine.
    engine::Scratch arena;
    /// Solves this reactor admitted to the engine whose outcomes it has
    /// not yet queued for writing: raised under queue_mutex_ as a Solve
    /// is queued, lowered by this reactor once the outcome's reply is in a
    /// write buffer (or counted dropped). While nonzero, none of its
    /// Solves runs inline, so every connection's replies stay in request
    /// order; zero on every reactor is the drain barrier (engine_idle).
    std::atomic<std::size_t> engine_outstanding{0};
    /// Complete Solve frames the current poll pass read in.
    std::size_t ready_solves = 0;

    // Per-reactor slices of the svc.* aggregates ("svc.reactor<i>.*").
    obs::Counter* m_accepted = nullptr;
    obs::Counter* m_solve = nullptr;
    obs::Counter* m_solves_inline = nullptr;
    obs::Counter* m_bytes_in = nullptr;
    obs::Counter* m_bytes_out = nullptr;
  };

  // -- acceptor thread --
  /// Accepts until the listener drains. Returns false on fd exhaustion
  /// (EMFILE/ENFILE/...), where the listener stays readable and must be
  /// taken out of the poll set briefly instead of busy-spinning.
  [[nodiscard]] bool accept_ready(int listener_fd);
  void close_listeners();
  void request_drain();
  void wake_reactor(Reactor& reactor);
  void wake_all_reactors();

  // -- reactor threads --
  void reactor_loop(Reactor& reactor);
  void adopt_incoming(Reactor& reactor);
  /// Reads what the socket holds into read_buf and adds its complete
  /// Solve frames to ready_solves; the frames are answered afterwards.
  void handle_readable(Reactor& reactor, Connection& conn);
  void handle_writable(Reactor& reactor, Connection& conn);
  bool process_frames(Reactor& reactor,
                      Connection& conn);  ///< false = close connection
  /// Answers a Solve inline when its reactor is idle (nothing on the
  /// engine, no other Solve read this poll pass) and it is cheap;
  /// otherwise admits it to the engine or sheds it.
  void handle_solve(Reactor& reactor, Connection& conn,
                    const FrameHeader& header, std::string_view payload);

  /// The four session MsgTypes (wire v2; see docs/streaming.md):
  /// answered through sessions_ on this reactor, onto this connection.
  void handle_session_frame(Reactor& reactor, Connection& conn,
                            const FrameHeader& header,
                            std::string_view payload);
  void queue_reply(Reactor& reactor, Connection& conn, MsgType type,
                   std::uint64_t request_id, std::string_view payload);
  void queue_error(Reactor& reactor, Connection& conn,
                   std::uint64_t request_id, ErrorCode code,
                   std::string_view text);
  void mark_dirty(Reactor& reactor, Connection& conn);
  void flush_dirty(Reactor& reactor);  ///< flush + recompute events + close
  void close_connection(Reactor& reactor, int fd);
  void drain_results(Reactor& reactor);
  /// No reactor has a Solve on the engine: queued, in a tick, or posted
  /// and not yet taken.
  [[nodiscard]] bool engine_idle() const;
  void maybe_finish_drain(Reactor& reactor);
  [[nodiscard]] bool reactor_drained(Reactor& reactor);

  // -- engine workers --
  void engine_loop();

  ServerOptions options_;
  engine::BatchSolver solver_;
  SessionTable sessions_;  ///< replans through solver_

  int unix_listener_ = -1;
  int tcp_listener_ = -1;
  int bound_tcp_port_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< acceptor self-pipe: [0] polled by
                                 ///< run(), [1] written by signal handlers
                                 ///< and request_drain()

  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::size_t next_reactor_ = 0;  ///< round-robin dealing cursor (acceptor)

  std::atomic<std::uint64_t> conn_gen_counter_{0};
  std::atomic<std::size_t> conn_count_{0};  ///< across all reactors

  // Engine handoff (shared by reactors and engine workers).
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<PendingSolve> pending_;
  bool stop_engine_ = false;
  std::vector<std::thread> engine_threads_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> aborting_{false};  ///< poll failure: exit, skip drain
  std::atomic<bool> signal_requested_{false};

  // svc.* metrics (see docs/serving.md for the catalog).
  obs::Counter& m_conns_accepted_;
  obs::Counter& m_conns_closed_;
  obs::Counter& m_bytes_in_;
  obs::Counter& m_bytes_out_;
  obs::Counter& m_req_ping_;
  obs::Counter& m_req_solve_;
  obs::Counter& m_req_stats_;
  obs::Counter& m_req_drain_;
  obs::Counter& m_req_session_;
  obs::Counter& m_replies_ok_;
  obs::Counter& m_solves_inline_;
  obs::Counter& m_shed_overloaded_;
  obs::Counter& m_shed_deadline_;
  obs::Counter& m_rejected_draining_;
  obs::Counter& m_bad_requests_;
  obs::Counter& m_ticks_;
  obs::Counter& m_dropped_replies_;
  obs::Counter& m_reads_paused_;
  obs::Histogram& m_request_latency_ms_;
  obs::Histogram& m_tick_batch_;
};

/// Installs a SIGTERM + SIGINT handler that calls server->notify_signal().
/// At most one server can be wired at a time; passing nullptr restores the
/// previous handlers. Used by lrb_serve and the drain tests.
void install_signal_drain(Server* server);

}  // namespace lrb::svc
