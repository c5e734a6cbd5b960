#include "svc/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <string_view>
#include <utility>

namespace lrb::svc {

namespace {

bool set_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

bool set_errno_error(std::string* error, const std::string& what) {
  return set_error(error, what + ": " + std::strerror(errno));
}

/// Connects `fd` to `addr`, honouring a 0-means-blocking timeout. On
/// timeout-mode success the socket is restored to blocking.
bool connect_with_timeout(int fd, const sockaddr* addr, socklen_t addr_len,
                          std::uint32_t timeout_ms, std::string* error,
                          const std::string& what) {
  if (timeout_ms == 0) {
    if (connect(fd, addr, addr_len) != 0) {
      return set_errno_error(error, what);
    }
    return true;
  }
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return set_errno_error(error, what + " (nonblocking)");
  }
  if (connect(fd, addr, addr_len) != 0) {
    if (errno != EINPROGRESS) return set_errno_error(error, what);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (remaining <= 0) return set_error(error, what + ": connect timeout");
      pollfd entry{fd, POLLOUT, 0};
      const int ready = poll(&entry, 1, static_cast<int>(remaining));
      if (ready < 0) {
        if (errno == EINTR) continue;
        return set_errno_error(error, what + " (poll)");
      }
      if (ready == 0) return set_error(error, what + ": connect timeout");
      int so_error = 0;
      socklen_t len = sizeof so_error;
      if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
        return set_errno_error(error, what + " (getsockopt)");
      }
      if (so_error != 0) {
        errno = so_error;
        return set_errno_error(error, what);
      }
      break;
    }
  }
  if (fcntl(fd, F_SETFL, flags) != 0) {
    return set_errno_error(error, what + " (blocking restore)");
  }
  return true;
}

constexpr int kMaxTcpPort = 65535;

}  // namespace

std::optional<Endpoint> parse_tcp_endpoint(std::string_view text,
                                           std::string* error) {
  const auto colon = text.rfind(':');
  int port = 0;
  if (colon != std::string_view::npos) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data() + colon + 1, end, port);
    if (ec == std::errc{} && ptr == end && port >= 1 && port <= kMaxTcpPort) {
      return Endpoint::tcp(std::string(text.substr(0, colon)), port);
    }
  }
  set_error(error, "want HOST:PORT with PORT a whole number in 1-" +
                       std::to_string(kMaxTcpPort) + ", got '" +
                       std::string(text) + "'");
  return std::nullopt;
}

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      io_(other.io_),
      recv_buf_(std::move(other.recv_buf_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    io_ = other.io_;
    recv_buf_ = std::move(other.recv_buf_);
  }
  return *this;
}

void Client::close() {
  if (fd_ >= 0) {
    io_->on_close(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  recv_buf_.clear();
}

std::optional<Client> Client::connect(const Endpoint& endpoint,
                                      std::string* error, fault::SocketIo* io,
                                      std::uint32_t connect_timeout_ms) {
  sockaddr_un un{};
  sockaddr_in in{};
  const sockaddr* addr = nullptr;
  socklen_t addr_len = 0;
  std::string what;
  if (!endpoint.unix_path.empty()) {
    if (endpoint.unix_path.size() >= sizeof un.sun_path) {
      set_error(error, "unix path too long");
      return std::nullopt;
    }
    un.sun_family = AF_UNIX;
    std::strncpy(un.sun_path, endpoint.unix_path.c_str(),
                 sizeof un.sun_path - 1);
    addr = reinterpret_cast<const sockaddr*>(&un);
    addr_len = sizeof un;
    what = "connect(" + endpoint.unix_path + ")";
  } else {
    if (endpoint.tcp_port < 1 || endpoint.tcp_port > kMaxTcpPort) {
      set_error(error, "tcp port " + std::to_string(endpoint.tcp_port) +
                           " out of range 1-" + std::to_string(kMaxTcpPort));
      return std::nullopt;
    }
    in.sin_family = AF_INET;
    in.sin_port = htons(static_cast<std::uint16_t>(endpoint.tcp_port));
    if (inet_pton(AF_INET, endpoint.tcp_host.c_str(), &in.sin_addr) != 1) {
      set_error(error, "bad address " + endpoint.tcp_host);
      return std::nullopt;
    }
    addr = reinterpret_cast<const sockaddr*>(&in);
    addr_len = sizeof in;
    what = "connect(" + endpoint.tcp_host + ":" +
           std::to_string(endpoint.tcp_port) + ")";
  }
  const int fd = socket(endpoint.unix_path.empty() ? AF_INET : AF_UNIX,
                        SOCK_STREAM, 0);
  if (fd < 0) {
    set_errno_error(error, "socket");
    return std::nullopt;
  }
  if (!connect_with_timeout(fd, addr, addr_len, connect_timeout_ms, error,
                            what)) {
    ::close(fd);
    return std::nullopt;
  }
  Client client;
  client.fd_ = fd;
  client.io_ = io;
  return client;
}

bool Client::send_bytes(std::string_view bytes, std::string* error) {
  if (fd_ < 0) return set_error(error, "not connected");
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        io_->send(fd_, bytes.data() + sent, bytes.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return set_errno_error(error, "send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool Client::send_frame(MsgType type, std::uint64_t request_id,
                        std::string_view payload, std::string* error) {
  std::string frame;
  encode_frame(frame, type, request_id, payload);
  return send_bytes(frame, error);
}

bool Client::recv_frame(FrameHeader* header, std::string* payload,
                        std::string* error) {
  return recv_frame_until(header, payload,
                          std::chrono::steady_clock::time_point::max(),
                          error, nullptr);
}

bool Client::recv_frame_until(FrameHeader* header, std::string* payload,
                              std::chrono::steady_clock::time_point deadline,
                              std::string* error, bool* timed_out) {
  if (timed_out != nullptr) *timed_out = false;
  if (fd_ < 0) return set_error(error, "not connected");
  const bool bounded =
      deadline != std::chrono::steady_clock::time_point::max();
  char chunk[65536];
  for (;;) {
    switch (decode_header(recv_buf_, header)) {
      case DecodeStatus::kNeedMore:
        break;
      case DecodeStatus::kOk:
        if (recv_buf_.size() - kHeaderSize >= header->payload_len) {
          payload->assign(recv_buf_, kHeaderSize, header->payload_len);
          recv_buf_.erase(0, kHeaderSize + header->payload_len);
          return true;
        }
        break;
      case DecodeStatus::kBadMagic:
        return set_error(error, "reply has bad magic");
      case DecodeStatus::kBadVersion:
        return set_error(error, "reply has unsupported version");
      case DecodeStatus::kTooLarge:
        return set_error(error, "reply payload exceeds cap");
    }
    if (bounded) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (remaining <= 0) {
        if (timed_out != nullptr) *timed_out = true;
        return set_error(error, "receive timeout");
      }
      pollfd entry{fd_, POLLIN, 0};
      const int ready = io_->poll(&entry, 1, static_cast<int>(remaining));
      if (ready < 0) {
        if (errno == EINTR) continue;
        return set_errno_error(error, "poll");
      }
      if (ready == 0) {
        if (timed_out != nullptr) *timed_out = true;
        return set_error(error, "receive timeout");
      }
    }
    const ssize_t n = io_->recv(fd_, chunk, sizeof chunk);
    if (n == 0) return set_error(error, "connection closed by server");
    if (n < 0) {
      if (errno == EINTR) continue;
      return set_errno_error(error, "recv");
    }
    recv_buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Client::call(MsgType type, std::uint64_t request_id,
                  std::string_view payload, FrameHeader* reply_header,
                  std::string* reply_payload, std::string* error) {
  if (!send_frame(type, request_id, payload, error)) return false;
  if (!recv_frame(reply_header, reply_payload, error)) return false;
  if (reply_header->request_id != request_id) {
    return set_error(error, "reply request id mismatch");
  }
  return true;
}

std::optional<Client::SolveOutcome> Client::solve(const SolveRequest& request,
                                                  std::uint64_t request_id,
                                                  std::string* error) {
  FrameHeader header;
  std::string payload;
  if (!call(MsgType::kSolve, request_id, encode_solve_request(request),
            &header, &payload, error)) {
    return std::nullopt;
  }
  return decode_solve_outcome(header.type, std::move(payload), error);
}

std::optional<Client::SolveOutcome> Client::decode_solve_outcome(
    MsgType type, std::string payload, std::string* error) {
  SolveOutcome outcome;
  if (type == MsgType::kSolveOk) {
    std::string decode_error;
    outcome.result = decode_solve_reply_payload(payload, &decode_error);
    if (!outcome.result) {
      set_error(error, "bad solve reply: " + decode_error);
      return std::nullopt;
    }
    outcome.raw_payload = std::move(payload);
    return outcome;
  }
  if (type == MsgType::kError) {
    outcome.server_error = decode_error_payload(payload);
    if (!outcome.server_error) {
      set_error(error, "malformed error reply");
      return std::nullopt;
    }
    return outcome;
  }
  set_error(error, "unexpected reply type");
  return std::nullopt;
}

}  // namespace lrb::svc
