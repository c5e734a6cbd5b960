// A small blocking client for the lrb_serve wire protocol: the one
// connection every client layer uses (lrb_load, the loopback tests, and
// ResilientClient in svc/retry_client.h, which adds retries on top). One
// Client = one connection; not thread-safe (use one per thread).
//
// All socket IO goes through a fault::SocketIo (the real syscalls by
// default), so the chaos harness can perturb the client side of the
// stream too. recv_frame_until adds a poll-based deadline, which is what
// ResilientClient builds its reply timeout on.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "core/assignment.h"
#include "svc/fault/io_shim.h"
#include "svc/wire.h"

namespace lrb::svc {

/// Where to connect: a Unix-domain socket when unix_path is set, else TCP
/// to tcp_host:tcp_port.
struct Endpoint {
  std::string unix_path;
  std::string tcp_host = "127.0.0.1";
  int tcp_port = -1;

  [[nodiscard]] static Endpoint unix_socket(std::string path) {
    Endpoint endpoint;
    endpoint.unix_path = std::move(path);
    return endpoint;
  }
  [[nodiscard]] static Endpoint tcp(std::string host, int port) {
    Endpoint endpoint;
    endpoint.tcp_host = std::move(host);
    endpoint.tcp_port = port;
    return endpoint;
  }
};

/// Parses a client's "HOST:PORT" (lrb_load's and lrb_stream's --tcp) into
/// a TCP endpoint. nullopt, with *error set, unless the text after the
/// last colon is a whole number in 1-65535 and nothing else.
[[nodiscard]] std::optional<Endpoint> parse_tcp_endpoint(
    std::string_view text, std::string* error);

class Client {
 public:
  Client() = default;
  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// `connect_timeout_ms` 0 = blocking connect; otherwise the connect is
  /// non-blocking and fails with "connect timeout" once the budget is
  /// spent. A TCP port outside 1-65535 fails before any socket is made.
  /// `io` is the socket-IO seam (real syscalls by default).
  [[nodiscard]] static std::optional<Client> connect(
      const Endpoint& endpoint, std::string* error,
      fault::SocketIo* io = &fault::SocketIo::real(),
      std::uint32_t connect_timeout_ms = 0);

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// Sends one complete frame (blocking until written).
  [[nodiscard]] bool send_frame(MsgType type, std::uint64_t request_id,
                                std::string_view payload, std::string* error);

  /// Sends raw bytes as-is — lets tests split frames at arbitrary
  /// boundaries to exercise the server's partial-read handling.
  [[nodiscard]] bool send_bytes(std::string_view bytes, std::string* error);

  /// Blocks until one complete reply frame arrives (or EOF/error).
  [[nodiscard]] bool recv_frame(FrameHeader* header, std::string* payload,
                                std::string* error);

  /// recv_frame with an absolute deadline: fails (setting *timed_out if
  /// non-null) once `deadline` passes without a complete frame.
  [[nodiscard]] bool recv_frame_until(
      FrameHeader* header, std::string* payload,
      std::chrono::steady_clock::time_point deadline, std::string* error,
      bool* timed_out = nullptr);

  /// send_frame + recv_frame; fails if the reply's request id differs.
  [[nodiscard]] bool call(MsgType type, std::uint64_t request_id,
                          std::string_view payload, FrameHeader* reply_header,
                          std::string* reply_payload, std::string* error);

  /// Outcome of one Solve: either a result or a server error.
  struct SolveOutcome {
    std::optional<RebalanceResult> result;  ///< set iff SolveOk
    std::string raw_payload;  ///< SolveOk payload bytes (for --check)
    std::optional<ErrorReply> server_error;
    std::size_t attempts = 1;  ///< round-trips (ResilientClient retries)
  };
  [[nodiscard]] std::optional<SolveOutcome> solve(
      const SolveRequest& request, std::uint64_t request_id,
      std::string* error);

  /// Decodes the reply to a Solve: a SolveOk or an Error. nullopt (and
  /// *error) for any other type or a payload that does not decode.
  [[nodiscard]] static std::optional<SolveOutcome> decode_solve_outcome(
      MsgType type, std::string payload, std::string* error);

  void close();

 private:
  int fd_ = -1;
  fault::SocketIo* io_ = &fault::SocketIo::real();
  std::string recv_buf_;
};

}  // namespace lrb::svc
