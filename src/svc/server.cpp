#include "svc/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <string>
#include <utility>

#include "solver/registry.h"
#include "util/timer.h"

namespace lrb::svc {

namespace {

/// Coalescing cap: at most this many Solves per engine tick.
constexpr std::size_t kMaxTickBatch = 64;

/// A connection whose write buffer holds more than this many bytes of
/// replies is not read again until the buffer is flushed (it is emptied
/// only once fully sent). Well above what a brief stall of a reading
/// client leaves behind, so only a client that pipelines without reading
/// meets it; TCP flow control then stops its sends.
constexpr std::size_t kMaxReplyBacklog = std::size_t{4} << 20;

bool set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

engine::BatchOptions engine_options_for(const ServerOptions& options) {
  engine::BatchOptions engine = options.engine;
  // A custom server registry also captures the engine metrics unless the
  // caller explicitly pointed the engine elsewhere.
  if (engine.metrics == &obs::Registry::global() &&
      options.metrics != &obs::Registry::global()) {
    engine.metrics = options.metrics;
  }
  return engine;
}

void drain_pipe(int fd) {
  char buf[256];
  while (read(fd, buf, sizeof buf) > 0) {
  }
}

/// Complete Solve frames at the front of `buf`, up to the first frame
/// that is incomplete or does not decode.
std::size_t count_solve_frames(std::string_view buf) {
  std::size_t count = 0;
  FrameHeader header;
  while (decode_header(buf, &header) == DecodeStatus::kOk &&
         buf.size() - kHeaderSize >= header.payload_len) {
    if (header.type == MsgType::kSolve) ++count;
    buf.remove_prefix(kHeaderSize + header.payload_len);
  }
  return count;
}

/// A Solve cheap enough to answer on its reactor: a backend the registry
/// marks runs_inline, on an instance within the warmed arena bounds.
bool cheap(const SolveRequest& request) {
  return solver::descriptor(request.spec.backend).runs_inline &&
         request.instance.num_jobs() <= engine::kWarmJobs &&
         request.instance.num_procs <= engine::kWarmProcs;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      solver_(engine_options_for(options_)),
      sessions_(solver_, options_.max_sessions, *options_.metrics),
      m_conns_accepted_(options_.metrics->counter("svc.connections_accepted")),
      m_conns_closed_(options_.metrics->counter("svc.connections_closed")),
      m_bytes_in_(options_.metrics->counter("svc.bytes_in")),
      m_bytes_out_(options_.metrics->counter("svc.bytes_out")),
      m_req_ping_(options_.metrics->counter("svc.requests_ping")),
      m_req_solve_(options_.metrics->counter("svc.requests_solve")),
      m_req_stats_(options_.metrics->counter("svc.requests_stats")),
      m_req_drain_(options_.metrics->counter("svc.requests_drain")),
      m_req_session_(options_.metrics->counter("svc.requests_session")),
      m_replies_ok_(options_.metrics->counter("svc.replies_solve_ok")),
      m_solves_inline_(options_.metrics->counter("svc.solves_inline")),
      m_shed_overloaded_(options_.metrics->counter("svc.shed_overloaded")),
      m_shed_deadline_(options_.metrics->counter("svc.shed_deadline")),
      m_rejected_draining_(options_.metrics->counter("svc.rejected_draining")),
      m_bad_requests_(options_.metrics->counter("svc.bad_requests")),
      m_ticks_(options_.metrics->counter("svc.engine_ticks")),
      m_dropped_replies_(options_.metrics->counter("svc.dropped_replies")),
      m_reads_paused_(options_.metrics->counter("svc.reads_paused")),
      m_request_latency_ms_(
          options_.metrics->histogram("svc.request_latency_ms")),
      m_tick_batch_(options_.metrics->histogram("svc.tick_batch_size")) {}

Server::~Server() {
  {
    std::lock_guard lock(queue_mutex_);
    stop_engine_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : engine_threads_) {
    if (worker.joinable()) worker.join();
  }
  for (auto& reactor : reactors_) {
    // run() joins the reactor threads; this only covers "start() succeeded
    // but run() was never called".
    if (reactor->thread.joinable()) reactor->thread.join();
    for (auto& [fd, conn] : reactor->connections) close(conn.fd);
    for (const int fd : reactor->incoming) close(fd);
    if (reactor->wake_pipe[0] >= 0) close(reactor->wake_pipe[0]);
    if (reactor->wake_pipe[1] >= 0) close(reactor->wake_pipe[1]);
  }
  if (unix_listener_ >= 0) close(unix_listener_);
  if (tcp_listener_ >= 0) close(tcp_listener_);
  if (wake_pipe_[0] >= 0) close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) close(wake_pipe_[1]);
  if (!options_.unix_path.empty() && unix_listener_ >= 0) {
    unlink(options_.unix_path.c_str());
  }
}

bool Server::start(std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    return false;
  };
  if (options_.unix_path.empty() && options_.tcp_port < 0) {
    if (error != nullptr) *error = "no listener configured";
    return false;
  }
  if (pipe(wake_pipe_) != 0) return fail("pipe");
  if (!set_nonblocking(wake_pipe_[0]) || !set_nonblocking(wake_pipe_[1])) {
    return fail("pipe nonblocking");
  }

  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    if (options_.unix_path.size() >= sizeof addr.sun_path) {
      if (error != nullptr) *error = "unix path too long";
      return false;
    }
    unix_listener_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_listener_ < 0) return fail("socket(AF_UNIX)");
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof addr.sun_path - 1);
    unlink(options_.unix_path.c_str());
    if (bind(unix_listener_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
      return fail("bind(" + options_.unix_path + ")");
    }
    if (listen(unix_listener_, 128) != 0) return fail("listen(unix)");
    if (!set_nonblocking(unix_listener_)) return fail("nonblocking(unix)");
  }

  if (options_.tcp_port >= 0) {
    tcp_listener_ = socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_listener_ < 0) return fail("socket(AF_INET)");
    const int one = 1;
    setsockopt(tcp_listener_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (inet_pton(AF_INET, options_.tcp_bind.c_str(), &addr.sin_addr) != 1) {
      if (error != nullptr) *error = "bad bind address " + options_.tcp_bind;
      return false;
    }
    if (bind(tcp_listener_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
      return fail("bind(tcp " + std::to_string(options_.tcp_port) + ")");
    }
    if (listen(tcp_listener_, 128) != 0) return fail("listen(tcp)");
    if (!set_nonblocking(tcp_listener_)) return fail("nonblocking(tcp)");
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (getsockname(tcp_listener_, reinterpret_cast<sockaddr*>(&bound),
                    &len) == 0) {
      bound_tcp_port_ = ntohs(bound.sin_port);
    }
  }

  const std::size_t reactor_count = std::max<std::size_t>(1, options_.reactors);
  reactors_.reserve(reactor_count);
  for (std::size_t i = 0; i < reactor_count; ++i) {
    auto reactor = std::make_unique<Reactor>();
    reactor->index = i;
    if (pipe(reactor->wake_pipe) != 0) return fail("pipe(reactor)");
    if (!set_nonblocking(reactor->wake_pipe[0]) ||
        !set_nonblocking(reactor->wake_pipe[1])) {
      return fail("pipe nonblocking(reactor)");
    }
    reactor->fds.push_back({reactor->wake_pipe[0], POLLIN, 0});
    reactor->arena.warm(engine::kWarmJobs, engine::kWarmProcs);
    const std::string prefix = "svc.reactor" + std::to_string(i);
    reactor->m_accepted =
        &options_.metrics->counter(prefix + ".connections_accepted");
    reactor->m_solve = &options_.metrics->counter(prefix + ".requests_solve");
    reactor->m_solves_inline =
        &options_.metrics->counter(prefix + ".solves_inline");
    reactor->m_bytes_in = &options_.metrics->counter(prefix + ".bytes_in");
    reactor->m_bytes_out = &options_.metrics->counter(prefix + ".bytes_out");
    reactors_.push_back(std::move(reactor));
  }

  const std::size_t workers =
      std::max<std::size_t>(1, options_.engine_workers);
  engine_threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    engine_threads_.emplace_back([this] { engine_loop(); });
  }
  return true;
}

void Server::notify_signal() noexcept {
  signal_requested_.store(true, std::memory_order_relaxed);
  const char byte = 's';
  // The result is deliberately ignored: a full pipe already guarantees a
  // pending wakeup, and failing inside a signal handler has no recourse.
  [[maybe_unused]] const auto n = write(wake_pipe_[1], &byte, 1);
}

void Server::wake_reactor(Reactor& reactor) {
  const char byte = 'w';
  [[maybe_unused]] const auto n = write(reactor.wake_pipe[1], &byte, 1);
}

void Server::wake_all_reactors() {
  for (auto& reactor : reactors_) wake_reactor(*reactor);
}

void Server::request_drain() {
  draining_.store(true, std::memory_order_release);
  // Wake everyone that gates on draining_: the acceptor (closes the
  // listeners), every reactor (stops adopting, starts acking), and the
  // engine workers are woken by reactors/workers as results flow.
  const char byte = 'd';
  [[maybe_unused]] const auto n = write(wake_pipe_[1], &byte, 1);
  wake_all_reactors();
}

void Server::close_listeners() {
  if (unix_listener_ >= 0) {
    close(unix_listener_);
    if (!options_.unix_path.empty()) unlink(options_.unix_path.c_str());
    unix_listener_ = -1;
  }
  if (tcp_listener_ >= 0) {
    close(tcp_listener_);
    tcp_listener_ = -1;
  }
}

bool Server::accept_ready(int listener_fd) {
  for (;;) {
    const int fd = accept(listener_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Out of fds (or kernel memory): the listener stays readable until
      // a slot frees, so polling it again immediately would spin a full
      // core. Tell run() to pause accepting for a beat.
      return errno != EMFILE && errno != ENFILE && errno != ENOBUFS &&
             errno != ENOMEM;  // otherwise EAGAIN/transient: poll again
    }
    if (draining_.load(std::memory_order_relaxed) ||
        conn_count_.load(std::memory_order_relaxed) >=
            options_.max_connections) {
      close(fd);
      continue;
    }
    if (!set_nonblocking(fd)) {
      close(fd);
      continue;
    }
    conn_count_.fetch_add(1, std::memory_order_relaxed);
    Reactor& reactor = *reactors_[next_reactor_];
    next_reactor_ = (next_reactor_ + 1) % reactors_.size();
    // Count before the hand-off: the reactor may answer the connection's
    // first request at once, and a Stats snapshot taken after that reply
    // must include the connection.
    m_conns_accepted_.add(1);
    reactor.m_accepted->add(1);
    {
      std::lock_guard lock(reactor.mutex);
      reactor.incoming.push_back(fd);
    }
    wake_reactor(reactor);
  }
}

void Server::run() {
  for (auto& reactor : reactors_) {
    reactor->thread =
        std::thread([this, r = reactor.get()] { reactor_loop(*r); });
  }

  // The acceptor's pollfd set is fixed for its whole life: self-pipe plus
  // the configured listeners (closed only after this loop exits). On fd
  // exhaustion the listener entries are masked (events = 0) for a beat —
  // a readable listener we cannot accept from would otherwise turn this
  // loop into a poll/accept busy-spin until an fd frees up.
  std::vector<pollfd> fds;
  fds.push_back({wake_pipe_[0], POLLIN, 0});
  if (unix_listener_ >= 0) fds.push_back({unix_listener_, POLLIN, 0});
  if (tcp_listener_ >= 0) fds.push_back({tcp_listener_, POLLIN, 0});
  bool accept_paused = false;
  auto accept_resume_at = std::chrono::steady_clock::time_point{};

  while (!draining_.load(std::memory_order_acquire) &&
         !aborting_.load(std::memory_order_relaxed)) {
    if (signal_requested_.load(std::memory_order_relaxed)) {
      request_drain();
      break;
    }
    if (accept_paused &&
        std::chrono::steady_clock::now() >= accept_resume_at) {
      for (std::size_t i = 1; i < fds.size(); ++i) fds[i].events = POLLIN;
      accept_paused = false;
    }
    // The self-pipe wakes us for signals/drain; the timeout is only a
    // belt-and-braces guard against a lost wakeup (and the tick that ends
    // an accept pause).
    if (options_.io->poll(fds.data(), fds.size(), 100) < 0 &&
        errno != EINTR) {
      aborting_.store(true, std::memory_order_relaxed);
      break;
    }
    if (fds[0].revents != 0) drain_pipe(wake_pipe_[0]);
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      if (!accept_ready(fds[i].fd)) {
        for (std::size_t j = 1; j < fds.size(); ++j) fds[j].events = 0;
        accept_paused = true;
        accept_resume_at = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(100);
        break;
      }
    }
  }
  // Stop the intake first so no reactor can be handed work after it
  // decides it is drained, then wait for every reactor to finish
  // answering. request_drain() also covers the abort path, where the
  // reactors must exit rather than drain.
  close_listeners();
  request_drain();
  for (auto& reactor : reactors_) {
    if (reactor->thread.joinable()) reactor->thread.join();
  }

  // Adoption-window sweep: fds handed off after a reactor exited (only
  // possible on the abort path) and results nobody is left to deliver.
  for (auto& reactor : reactors_) {
    std::lock_guard lock(reactor->mutex);
    for (const int fd : reactor->incoming) {
      options_.io->on_close(fd);
      close(fd);
      m_conns_closed_.add(1);
      conn_count_.fetch_sub(1, std::memory_order_relaxed);
    }
    reactor->incoming.clear();
    m_dropped_replies_.add(reactor->results.size());
    reactor->results.clear();
  }
}

// ---------------------------------------------------------------------------
// Reactor side.

void Server::adopt_incoming(Reactor& reactor) {
  std::deque<int> fresh;
  {
    std::lock_guard lock(reactor.mutex);
    fresh.swap(reactor.incoming);
  }
  for (const int fd : fresh) {
    Connection conn;
    conn.fd = fd;
    conn.gen = conn_gen_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
    conn.poll_idx = reactor.fds.size();
    reactor.fds.push_back({fd, POLLIN, 0});
    reactor.connections.emplace(fd, std::move(conn));
  }
}

void Server::queue_reply(Reactor& reactor, Connection& conn, MsgType type,
                         std::uint64_t request_id, std::string_view payload) {
  encode_frame(conn.write_buf, type, request_id, payload);
  mark_dirty(reactor, conn);
}

void Server::queue_error(Reactor& reactor, Connection& conn,
                         std::uint64_t request_id, ErrorCode code,
                         std::string_view text) {
  reactor.scratch.clear();
  encode_error_payload(code, text, reactor.scratch);
  queue_reply(reactor, conn, MsgType::kError, request_id, reactor.scratch);
}

void Server::mark_dirty(Reactor& reactor, Connection& conn) {
  if (conn.dirty) return;
  conn.dirty = true;
  reactor.dirty_fds.push_back(conn.fd);
}

void Server::handle_solve(Reactor& reactor, Connection& conn,
                          const FrameHeader& header,
                          std::string_view payload) {
  m_req_solve_.add(1);
  reactor.m_solve->add(1);
  if (draining_.load(std::memory_order_acquire)) {
    m_rejected_draining_.add(1);
    queue_error(reactor, conn, header.request_id, ErrorCode::kDraining,
                "server is draining");
    return;
  }
  std::string error;
  auto request = decode_solve_request(payload, &error);
  if (!request) {
    m_bad_requests_.add(1);
    queue_error(reactor, conn, header.request_id, ErrorCode::kBadRequest,
                error);
    return;
  }
  // Only an idle reactor's Solve may run inline. With none of the
  // reactor's Solves on the engine, no inline reply can overtake an engine
  // reply on any of its connections; with no other Solve read in this poll
  // pass, a pipelined backlog or a burst from several connections is left
  // to ticks that spread it over the pool.
  if (reactor.engine_outstanding == 0 && reactor.ready_solves == 1 &&
      cheap(*request)) {
    // Run to completion here, in this reactor's arena: no queue, no tick,
    // no deadline check (it is dispatched as it is decoded), and the reply
    // is in the write buffer before this reactor polls again.
    const Timer received;
    const RebalanceResult result = solver_.solve_item(
        {&request->instance, request->k, request->spec}, &reactor.arena);
    reactor.scratch.clear();
    encode_solve_reply_payload(result, reactor.scratch);
    queue_reply(reactor, conn, MsgType::kSolveOk, header.request_id,
                reactor.scratch);
    m_replies_ok_.add(1);
    m_request_latency_ms_.record(received.millis());
    m_solves_inline_.add(1);
    reactor.m_solves_inline->add(1);
    return;
  }
  PendingSolve pending;
  pending.reactor = reactor.index;
  pending.conn_gen = conn.gen;
  pending.fd = conn.fd;
  pending.request_id = header.request_id;
  pending.received = std::chrono::steady_clock::now();
  if (request->deadline_ms > 0) {
    pending.has_deadline = true;
    pending.deadline =
        pending.received + std::chrono::milliseconds(request->deadline_ms);
  }
  pending.request = std::move(*request);
  bool admitted = false;
  {
    // The one admission decision: check and push atomically, so reactors
    // racing here never overshoot max_queue, and raise the reactor's count
    // before any engine worker can pop the Solve.
    std::lock_guard lock(queue_mutex_);
    if (pending_.size() < options_.max_queue) {
      pending_.push_back(std::move(pending));
      reactor.engine_outstanding.fetch_add(1);
      admitted = true;
    }
  }
  if (!admitted) {
    m_shed_overloaded_.add(1);
    queue_error(reactor, conn, header.request_id, ErrorCode::kOverloaded,
                "solve queue at capacity");
    return;
  }
  queue_cv_.notify_one();
}

void Server::handle_session_frame(Reactor& reactor, Connection& conn,
                                  const FrameHeader& header,
                                  std::string_view payload) {
  m_req_session_.add(1);
  if (draining_.load(std::memory_order_acquire)) {
    m_rejected_draining_.add(1);
    queue_error(reactor, conn, header.request_id, ErrorCode::kDraining,
                "server is draining");
    return;
  }
  const MsgType type =
      sessions_.handle(header.type, payload, reactor.scratch, reactor.arena);
  queue_reply(reactor, conn, type, header.request_id, reactor.scratch);
}

bool Server::process_frames(Reactor& reactor, Connection& conn) {
  for (;;) {
    FrameHeader header;
    switch (decode_header(conn.read_buf, &header)) {
      case DecodeStatus::kNeedMore:
        return true;
      case DecodeStatus::kBadMagic:
        m_bad_requests_.add(1);
        queue_error(reactor, conn, 0, ErrorCode::kBadRequest, "bad magic");
        return false;
      case DecodeStatus::kBadVersion:
        m_bad_requests_.add(1);
        queue_error(reactor, conn, header.request_id, ErrorCode::kBadRequest,
                    "unsupported protocol version");
        return false;
      case DecodeStatus::kTooLarge:
        m_bad_requests_.add(1);
        queue_error(reactor, conn, header.request_id, ErrorCode::kBadRequest,
                    "payload exceeds 64 MiB cap");
        return false;
      case DecodeStatus::kOk:
        break;
    }
    if (conn.read_buf.size() - kHeaderSize < header.payload_len) {
      return true;  // wait for the rest of the payload
    }
    const std::string_view payload(conn.read_buf.data() + kHeaderSize,
                                   header.payload_len);
    switch (header.type) {
      case MsgType::kPing:
        m_req_ping_.add(1);
        queue_reply(reactor, conn, MsgType::kPong, header.request_id,
                    payload);
        break;
      case MsgType::kSolve:
        handle_solve(reactor, conn, header, payload);
        break;
      case MsgType::kStats:
        m_req_stats_.add(1);
        queue_reply(reactor, conn, MsgType::kStatsOk, header.request_id,
                    options_.metrics->to_json());
        break;
      case MsgType::kDrain:
        m_req_drain_.add(1);
        conn.wants_drain_ack = true;
        mark_dirty(reactor, conn);
        request_drain();
        break;
      case MsgType::kSessionOpen:
      case MsgType::kSessionDelta:
      case MsgType::kSessionStats:
      case MsgType::kSessionClose:
        handle_session_frame(reactor, conn, header, payload);
        break;
      default:
        m_bad_requests_.add(1);
        queue_error(reactor, conn, header.request_id, ErrorCode::kBadRequest,
                    "unknown request type");
        return false;
    }
    conn.read_buf.erase(0, kHeaderSize + header.payload_len);
  }
}

void Server::handle_readable(Reactor& reactor, Connection& conn) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = options_.io->recv(conn.fd, chunk, sizeof chunk);
    if (n > 0) {
      m_bytes_in_.add(static_cast<std::uint64_t>(n));
      reactor.m_bytes_in->add(static_cast<std::uint64_t>(n));
      conn.read_buf.append(chunk, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof chunk) break;
      continue;
    }
    if (n < 0) {
      if (errno == EINTR) continue;  // interrupted, not EOF: just retry
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    }
    // EOF or hard error: flush what we owe, then close.
    conn.close_after_flush = true;
    break;
  }
  reactor.ready_solves += count_solve_frames(conn.read_buf);
}

void Server::handle_writable(Reactor& reactor, Connection& conn) {
  while (conn.write_pos < conn.write_buf.size()) {
    const ssize_t n =
        options_.io->send(conn.fd, conn.write_buf.data() + conn.write_pos,
                          conn.write_buf.size() - conn.write_pos);
    if (n > 0) {
      m_bytes_out_.add(static_cast<std::uint64_t>(n));
      reactor.m_bytes_out->add(static_cast<std::uint64_t>(n));
      conn.write_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0) {
      // EINTR must not drop the buffered replies (a signal landing during
      // a flush used to lose the whole write buffer; the fault shim's
      // EINTR schedule pins this as a regression test).
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    }
    // Peer vanished; nothing left to flush to it.
    conn.write_buf.clear();
    conn.write_pos = 0;
    conn.close_after_flush = true;
    return;
  }
  conn.write_buf.clear();
  conn.write_pos = 0;
}

void Server::close_connection(Reactor& reactor, int fd) {
  const auto it = reactor.connections.find(fd);
  if (it == reactor.connections.end()) return;
  options_.io->on_close(fd);
  close(it->second.fd);
  // Swap-remove the pollfd slot; slot 0 is the wake pipe, so a moved
  // entry is always a connection whose poll_idx needs patching.
  const std::size_t idx = it->second.poll_idx;
  const std::size_t last = reactor.fds.size() - 1;
  if (idx != last) {
    reactor.fds[idx] = reactor.fds[last];
    reactor.connections.at(reactor.fds[idx].fd).poll_idx = idx;
  }
  reactor.fds.pop_back();
  reactor.connections.erase(it);
  conn_count_.fetch_sub(1, std::memory_order_relaxed);
  m_conns_closed_.add(1);
}

void Server::drain_results(Reactor& reactor) {
  std::deque<SolveOutcome> ready;
  {
    std::lock_guard lock(reactor.mutex);
    ready.swap(reactor.results);
  }
  if (ready.empty()) return;
  for (SolveOutcome& outcome : ready) {
    const auto it = reactor.connections.find(outcome.fd);
    if (it == reactor.connections.end() ||
        it->second.gen != outcome.conn_gen) {
      m_dropped_replies_.add(1);
    } else {
      Connection& conn = it->second;
      queue_reply(reactor, conn, outcome.type, outcome.request_id,
                  outcome.payload);
      if (outcome.type == MsgType::kSolveOk) {
        m_replies_ok_.add(1);
        m_request_latency_ms_.record(outcome.request_latency_ms);
      }
    }
  }
  // Lowered only now that every reply sits in a write buffer (or is
  // counted dropped). A draining reactor waiting for the engine to go idle
  // needs a wake once this count reaches zero.
  if (reactor.engine_outstanding.fetch_sub(ready.size()) == ready.size() &&
      draining_.load()) {
    wake_all_reactors();
  }
}

bool Server::engine_idle() const {
  return std::all_of(reactors_.begin(), reactors_.end(),
                     [](const std::unique_ptr<Reactor>& reactor) {
                       return reactor->engine_outstanding == 0;
                     });
}

void Server::maybe_finish_drain(Reactor& reactor) {
  if (!draining_.load(std::memory_order_acquire) || !engine_idle()) return;
  // Every admitted request has been answered; acknowledge the drain(s).
  // The ack rides the same FIFO write buffer, so it is ordered after every
  // in-flight reply on that connection.
  for (auto& [fd, conn] : reactor.connections) {
    if (conn.wants_drain_ack) {
      queue_reply(reactor, conn, MsgType::kDrainOk, 0, {});
      conn.wants_drain_ack = false;
    }
  }
}

bool Server::reactor_drained(Reactor& reactor) {
  if (aborting_.load(std::memory_order_relaxed)) return true;
  if (!draining_.load(std::memory_order_acquire) || !engine_idle()) {
    return false;
  }
  {
    std::lock_guard lock(reactor.mutex);
    if (!reactor.incoming.empty()) return false;
  }
  for (const auto& [fd, conn] : reactor.connections) {
    if (conn.wants_drain_ack || conn.write_pos < conn.write_buf.size()) {
      return false;
    }
  }
  return true;
}

void Server::flush_dirty(Reactor& reactor) {
  for (std::size_t i = 0; i < reactor.dirty_fds.size(); ++i) {
    const int fd = reactor.dirty_fds[i];
    const auto it = reactor.connections.find(fd);
    if (it == reactor.connections.end()) continue;  // closed this pass
    Connection& conn = it->second;
    conn.dirty = false;
    // Flush opportunistically: most replies fit the socket buffer, so
    // this usually completes without waiting for a POLLOUT round-trip.
    if (conn.write_pos < conn.write_buf.size()) {
      handle_writable(reactor, conn);
    }
    const bool backlog = conn.write_pos < conn.write_buf.size();
    if (conn.close_after_flush && !backlog) {
      close_connection(reactor, fd);
      continue;
    }
    short& events = reactor.fds[conn.poll_idx].events;
    if (conn.write_buf.size() > kMaxReplyBacklog) {
      // The client is not reading its replies: stop reading its requests
      // until they are flushed.
      if ((events & POLLIN) != 0) m_reads_paused_.add(1);
      events = POLLOUT;
    } else {
      events = static_cast<short>(backlog ? (POLLIN | POLLOUT) : POLLIN);
    }
  }
  reactor.dirty_fds.clear();
}

void Server::reactor_loop(Reactor& reactor) {
  for (;;) {
    adopt_incoming(reactor);
    drain_results(reactor);
    maybe_finish_drain(reactor);
    flush_dirty(reactor);
    if (reactor_drained(reactor)) break;

    // The self-pipe wakes us for handoffs/results/drain; the timeout is
    // only a belt-and-braces guard against a lost wakeup.
    if (options_.io->poll(reactor.fds.data(), reactor.fds.size(), 100) < 0 &&
        errno != EINTR) {
      aborting_.store(true, std::memory_order_relaxed);
      break;
    }

    if (reactor.fds[0].revents != 0) drain_pipe(reactor.wake_pipe[0]);
    // Closes are deferred to flush_dirty (next top-of-loop), so the pollfd
    // vector is stable while we walk it, twice: every ready connection is
    // read before any frame is answered, so a Solve knows whether it came
    // alone (see handle_solve).
    reactor.ready_solves = 0;
    for (std::size_t i = 1; i < reactor.fds.size(); ++i) {
      const pollfd entry = reactor.fds[i];
      if (entry.revents == 0) continue;
      Connection& conn = reactor.connections.at(entry.fd);
      if ((entry.revents & (POLLERR | POLLNVAL)) != 0) {
        // Peer is gone; drop any backlog and close on the next pass.
        conn.write_buf.clear();
        conn.write_pos = 0;
        conn.close_after_flush = true;
        mark_dirty(reactor, conn);
        continue;
      }
      if ((entry.revents & (POLLIN | POLLHUP)) != 0) {
        handle_readable(reactor, conn);
      }
    }
    for (std::size_t i = 1; i < reactor.fds.size(); ++i) {
      const pollfd entry = reactor.fds[i];
      if (entry.revents == 0 || (entry.revents & (POLLERR | POLLNVAL)) != 0) {
        continue;
      }
      Connection& conn = reactor.connections.at(entry.fd);
      if ((entry.revents & (POLLIN | POLLHUP)) != 0 &&
          !process_frames(reactor, conn)) {
        conn.close_after_flush = true;
      }
      if ((entry.revents & POLLOUT) != 0) handle_writable(reactor, conn);
      mark_dirty(reactor, conn);
    }
  }
  // Drained (every reply incl. DrainOk flushed) or aborting: close what
  // remains on this shard.
  while (!reactor.connections.empty()) {
    close_connection(reactor, reactor.connections.begin()->first);
  }
}

// ---------------------------------------------------------------------------
// Engine workers.

void Server::engine_loop() {
  std::vector<PendingSolve> batch;
  std::vector<engine::BatchSolver::TickItem> items;
  std::vector<std::size_t> slots;  // batch index of each solved instance
  std::vector<SolveOutcome> outcomes;
  std::vector<char> touched(reactors_.size(), 0);
  for (;;) {
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return stop_engine_ || !pending_.empty(); });
      if (stop_engine_) return;
    }
    if (options_.tick_delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.tick_delay_ms));
    }
    batch.clear();
    {
      std::lock_guard lock(queue_mutex_);
      while (!pending_.empty() && batch.size() < kMaxTickBatch) {
        batch.push_back(std::move(pending_.front()));
        pending_.pop_front();
      }
    }
    if (batch.empty()) continue;  // another worker got there first
    m_ticks_.add(1);
    m_tick_batch_.record(static_cast<double>(batch.size()));

    const auto now = std::chrono::steady_clock::now();
    outcomes.clear();
    items.clear();
    slots.clear();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].has_deadline && now > batch[i].deadline) {
        m_shed_deadline_.add(1);
        SolveOutcome shed;
        shed.reactor = batch[i].reactor;
        shed.conn_gen = batch[i].conn_gen;
        shed.fd = batch[i].fd;
        shed.request_id = batch[i].request_id;
        shed.type = MsgType::kError;
        encode_error_payload(
            ErrorCode::kDeadlineExceeded,
            "deadline passed before the solve was dispatched", shed.payload);
        outcomes.push_back(std::move(shed));
        continue;
      }
      engine::BatchSolver::TickItem item;
      item.instance = &batch[i].request.instance;
      item.k = batch[i].request.k;
      item.spec = batch[i].request.spec;
      items.push_back(item);
      slots.push_back(i);
    }
    if (!items.empty()) {
      // One tick = one BatchSolver call: everything this worker popped is
      // coalesced here, with per-request algorithm parameters carried by
      // the TickItems. Neither batching composition nor concurrent ticks
      // on other workers can change results — BatchSolver is bit-identical
      // to the serial entry point per instance, for any concurrent caller.
      const auto results = solver_.solve_items(items);
      for (std::size_t i = 0; i < items.size(); ++i) {
        const PendingSolve& solve = batch[slots[i]];
        SolveOutcome outcome;
        outcome.reactor = solve.reactor;
        outcome.conn_gen = solve.conn_gen;
        outcome.fd = solve.fd;
        outcome.request_id = solve.request_id;
        outcome.type = MsgType::kSolveOk;
        encode_solve_reply_payload(results[i], outcome.payload);
        outcome.request_latency_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - solve.received)
                .count();
        outcomes.push_back(std::move(outcome));
      }
    }
    std::fill(touched.begin(), touched.end(), 0);
    for (SolveOutcome& outcome : outcomes) {
      const std::size_t target = outcome.reactor;
      Reactor& reactor = *reactors_[target];
      {
        std::lock_guard lock(reactor.mutex);
        reactor.results.push_back(std::move(outcome));
      }
      touched[target] = 1;
    }
    for (std::size_t i = 0; i < touched.size(); ++i) {
      if (touched[i] != 0) wake_reactor(*reactors_[i]);
    }
  }
}

namespace {

std::atomic<Server*> g_signal_server{nullptr};
struct sigaction g_old_term;
struct sigaction g_old_int;

void forward_signal(int) {
  if (Server* server = g_signal_server.load(std::memory_order_relaxed)) {
    server->notify_signal();
  }
}

}  // namespace

void install_signal_drain(Server* server) {
  if (server != nullptr) {
    g_signal_server.store(server, std::memory_order_relaxed);
    struct sigaction action{};
    action.sa_handler = forward_signal;
    sigemptyset(&action.sa_mask);
    sigaction(SIGTERM, &action, &g_old_term);
    sigaction(SIGINT, &action, &g_old_int);
  } else {
    sigaction(SIGTERM, &g_old_term, nullptr);
    sigaction(SIGINT, &g_old_int, nullptr);
    g_signal_server.store(nullptr, std::memory_order_relaxed);
  }
}

}  // namespace lrb::svc
