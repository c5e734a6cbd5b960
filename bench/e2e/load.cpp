// Transport, process control, /proc readers and the load loops.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <ctime>
#include <thread>

#include "bench.h"
#include "util/rng.h"

namespace lrb::bench {

namespace {

bool fail_errno(std::string* error, const std::string& what) {
  *error = what + ": " + std::strerror(errno);
  return false;
}

int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
                        deadline - Clock::now())
                        .count();
  if (left <= 0) return 0;
  return static_cast<int>(std::min<std::int64_t>((left + 999) / 1000, 60000));
}

/// Runs every role on its own thread while the caller samples the host
/// probe and the host CPU counters about every 10 ms until all of them have
/// finished.
void run_roles(const std::vector<std::function<void()>>& roles,
               PhaseLoad& load) {
  const auto sample_host = [&load] {
    load.host.push_back(
        HostSample{seconds_since(load.start, Clock::now()), host_cpu()});
  };
  sample_host();
  std::atomic<std::size_t> running{roles.size()};
  std::vector<std::thread> threads;
  for (const auto& role : roles) {
    threads.emplace_back([&role, &running] {
      role();
      running.fetch_sub(1);
    });
  }
  while (running.load() > 0) {
    load.probe_us.push_back(probe_unit_us());
    sample_host();
    for (int i = 0; i < 10 && running.load() > 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  for (auto& thread : threads) thread.join();
  sample_host();
}

/// Fills `reply` from one received success or error frame.
void settle(Reply& reply, const svc::FrameHeader& header,
            std::string_view payload, svc::MsgType ok_a, svc::MsgType ok_b) {
  if (header.type == ok_a || header.type == ok_b) {
    reply.status = Status::kOk;
    reply.digest = reply_digest(header.type, payload);
  } else {
    reply.status = Status::kServerError;
  }
}

}  // namespace

double probe_unit_us() {
  thread_local std::vector<std::uint64_t> keys(4096);
  timespec start{}, stop{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &start);
  std::uint64_t state = 0x853c49e6748fea9bULL;
  for (int round = 0; round < 4; ++round) {
    for (auto& key : keys) key = splitmix64(state);
    std::sort(keys.begin(), keys.end());
  }
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &stop);
  if (keys.front() > keys.back()) std::abort();  // keeps the work observable
  return static_cast<double>(stop.tv_sec - start.tv_sec) * 1e6 +
         static_cast<double>(stop.tv_nsec - start.tv_nsec) * 1e-3;
}

// ------------------------------------------------------------------- Conn

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::connect_unix(const std::string& path, Clock::time_point deadline,
                        std::string* error) {
  sockaddr_un addr{};
  if (path.size() >= sizeof addr.sun_path) {
    *error = "socket path too long: " + path;
    return false;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return fail_errno(error, "socket");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
        0) {
      if (::fcntl(fd, F_SETFL, O_NONBLOCK) != 0) {
        ::close(fd);
        return fail_errno(error, "fcntl");
      }
      fd_ = fd;
      return true;
    }
    const int err = errno;
    ::close(fd);
    if ((err != ENOENT && err != ECONNREFUSED) || Clock::now() >= deadline) {
      errno = err;
      return fail_errno(error, "connect " + path);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

bool Conn::send_all(std::string_view bytes, std::string* error) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n > 0) {
      bytes.remove_prefix(static_cast<std::size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd entry{fd_, POLLOUT, 0};
      if (::poll(&entry, 1, 1000) < 0 && errno != EINTR) {
        return fail_errno(error, "poll");
      }
    } else if (n < 0 && errno != EINTR) {
      return fail_errno(error, "send");
    }
  }
  return true;
}

bool Conn::recv_frame(svc::FrameHeader* header, std::string* payload,
                      Clock::time_point deadline, std::string* error,
                      bool* timed_out) {
  *timed_out = false;
  for (;;) {
    const std::string_view buffered = std::string_view(rx_).substr(rx_pos_);
    switch (svc::decode_header(buffered, header)) {
      case svc::DecodeStatus::kOk:
        if (buffered.size() - svc::kHeaderSize >= header->payload_len) {
          payload->assign(buffered.substr(svc::kHeaderSize,
                                          header->payload_len));
          rx_pos_ += svc::kHeaderSize + header->payload_len;
          if (rx_pos_ == rx_.size()) {
            rx_.clear();
            rx_pos_ = 0;
          }
          return true;
        }
        break;
      case svc::DecodeStatus::kNeedMore:
        break;
      default:
        *error = "malformed reply frame";
        return false;
    }
    if (rx_pos_ > 0) {
      rx_.erase(0, rx_pos_);
      rx_pos_ = 0;
    }
    const std::size_t old = rx_.size();
    rx_.resize(old + 65536);
    const ssize_t n = ::recv(fd_, rx_.data() + old, 65536, 0);
    rx_.resize(old + static_cast<std::size_t>(std::max<ssize_t>(n, 0)));
    if (n > 0) continue;
    if (n == 0) {
      *error = "connection closed by server";
      return false;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      return fail_errno(error, "recv");
    }
    const int wait_ms = remaining_ms(deadline);
    if (wait_ms == 0) {
      *timed_out = true;
      *error = "no reply before the deadline";
      return false;
    }
    pollfd entry{fd_, POLLIN, 0};
    if (::poll(&entry, 1, wait_ms) < 0 && errno != EINTR) {
      return fail_errno(error, "poll");
    }
  }
}

// ---------------------------------------------------------- ServerProcess

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

bool ServerProcess::spawn(const std::vector<std::string>& argv,
                          const std::string& log_path, std::string* error) {
  std::vector<char*> args;
  for (const auto& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                               environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    errno = rc;
    return fail_errno(error, "spawn " + argv[0]);
  }
  pid_ = pid;
  return true;
}

int ServerProcess::wait_exit(double timeout_s) {
  if (pid_ <= 0) return -1;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  int status = 0;
  for (;;) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) break;
    if (done < 0 && errno != EINTR) {
      pid_ = -1;
      return -1;
    }
    if (Clock::now() >= deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

double ServerProcess::cpu_seconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 1));
  std::string field;
  double utime = 0, stime = 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index == 14) utime = std::strtod(field.c_str(), nullptr);
    if (index == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::peak_rss_mib() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

HostCpu host_cpu() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu": the all-CPU line
  HostCpu cpu;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    double jiffies = 0;
    in >> jiffies;
    cpu.total += jiffies;
    if (i == 7) cpu.steal = jiffies;
  }
  return cpu;
}

double self_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// ------------------------------------------------------------------ Stats

StatsSnapshot parse_stats(std::string_view json) {
  // obs::Registry::to_json: {"schema", "counters": {name: n}, "gauges":
  // {name: n}, "histograms": {name: {field: x, ..., "buckets": [...]}}}.
  StatsSnapshot out;
  std::vector<std::string> path;
  std::string key;
  const std::string text(json);
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (c == '"') {
      const std::size_t end = text.find('"', i + 1);
      if (end == std::string::npos) break;
      std::string token = text.substr(i + 1, end - i - 1);
      i = text.find_first_not_of(" \n", end + 1);
      if (i != std::string::npos && text[i] == ':') {
        key = std::move(token);
        ++i;
      }
    } else if (c == '{') {
      path.push_back(key);
      ++i;
    } else if (c == '}') {
      if (!path.empty()) path.pop_back();
      ++i;
    } else if (c == '[') {
      i = text.find(']', i);
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      char* end = nullptr;
      const double value = std::strtod(text.c_str() + i, &end);
      out[path.size() >= 3 ? path.back() + "/" + key : key] = value;
      i = static_cast<std::size_t>(end - text.c_str());
    } else {
      ++i;
    }
  }
  return out;
}

double stat(const StatsSnapshot& s, const std::string& name) {
  const auto it = s.find(name);
  return it == s.end() ? 0.0 : it->second;
}

// ------------------------------------------------------------------- load

PhaseLoad run_closed(std::vector<Conn*> conns, PoolCursor& cursor,
                     std::size_t in_flight, double seconds,
                     std::uint64_t id_base, bool traced,
                     std::size_t max_requests) {
  const std::size_t C = conns.size();
  std::vector<std::vector<Reply>> replies(C);
  std::vector<std::vector<ClientStamps>> stamps(C);
  std::atomic<std::size_t> next{0};
  const std::size_t first = cursor.next;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));

  std::vector<std::function<void()>> roles;
  for (std::size_t c = 0; c < C; ++c) {
    roles.emplace_back([&, c] {
      Conn& conn = *conns[c];
      auto& mine = replies[c];
      auto& times = stamps[c];
      std::vector<Clock::time_point> sent_at;
      const std::uint64_t base = id_base + (std::uint64_t{c} << 32);
      std::string tx, payload, error;
      std::size_t outstanding = 0;
      bool broken = false;
      for (;;) {
        while (!broken && outstanding < in_flight && Clock::now() < end) {
          const std::size_t slot = next.fetch_add(1);
          if (slot >= max_requests) break;
          Reply reply;
          reply.key = cursor.key(first + slot);
          tx.assign(cursor.pool->frames[reply.key]);
          patch_u64(tx, 8, base + mine.size());
          ClientStamps stamp;
          stamp.send_start = Clock::now();
          if (!conn.send_all(tx, &error)) {
            reply.status = Status::kTransport;
            broken = true;
          }
          stamp.send_end = Clock::now();
          sent_at.push_back(stamp.send_start);
          mine.push_back(reply);
          if (traced) times.push_back(stamp);
          if (!broken) ++outstanding;
        }
        if (outstanding == 0) break;
        svc::FrameHeader header;
        bool timed_out = false;
        if (!conn.recv_frame(&header, &payload,
                             end + std::chrono::seconds(1), &error,
                             &timed_out)) {
          break;  // the rest stay kPending and count as failed
        }
        const auto now = Clock::now();
        const std::uint64_t seq = header.request_id - base;
        if (header.request_id < base || seq >= mine.size() ||
            mine[seq].status != Status::kPending) {
          continue;  // a straggler from an earlier phase
        }
        Reply& reply = mine[seq];
        settle(reply, header, payload, svc::MsgType::kSolveOk,
               svc::MsgType::kSolveOk);
        reply.latency_ms =
            std::chrono::duration<double, std::milli>(now - sent_at[seq])
                .count();
        reply.done_s = seconds_since(start, now);
        if (traced) {
          times[seq].recv_end = now;
          times[seq].processed = Clock::now();
        }
        --outstanding;
      }
    });
  }
  PhaseLoad load;
  load.seconds = seconds;
  load.start = start;
  run_roles(roles, load);
  cursor.next = first + std::min(next.load(), max_requests);

  for (std::size_t c = 0; c < C; ++c) {
    load.solves.insert(load.solves.end(), replies[c].begin(),
                       replies[c].end());
    load.stamps.insert(load.stamps.end(), stamps[c].begin(), stamps[c].end());
  }
  return load;
}

PhaseLoad run_open(std::vector<Conn*> conns, PoolCursor& cursor, double rate,
                   double seconds, std::uint64_t id_base, bool traced,
                   std::vector<SessionCursor*> sessions) {
  const std::size_t C = conns.size();
  const auto total = static_cast<std::size_t>(std::floor(rate * seconds));
  PhaseLoad load;
  load.seconds = seconds;
  load.solves.resize(total);
  load.lateness_ms.assign(total, 0.0);
  if (traced) load.stamps.resize(total);
  load.sessions.resize(sessions.size());
  for (std::size_t i = 0; i < total; ++i) {
    load.solves[i].key = cursor.key(cursor.next + i);
  }
  cursor.next += total;

  const auto start = Clock::now() + std::chrono::milliseconds(1);
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  load.start = start;
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(i) / rate));
  };

  std::vector<std::function<void()>> roles;
  roles.emplace_back([&] {  // the sender
    // When the server saturates the cores, a woken sender at normal priority
    // waits for one and the schedule slips; a higher priority for this one
    // thread keeps it (best effort: refused without CAP_SYS_NICE).
    (void)::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), -10);
    std::string tx, error;
    std::vector<char> broken(C, 0);
    for (std::size_t i = 0; i < total; ++i) {
      const std::size_t c = i % C;
      const auto due_at = due(i);
      std::this_thread::sleep_until(due_at);
      const auto now = Clock::now();
      load.lateness_ms[i] =
          std::chrono::duration<double, std::milli>(now - due_at).count();
      tx.assign(cursor.pool->frames[load.solves[i].key]);
      patch_u64(tx, 8, id_base + i);
      if (broken[c] != 0 || !conns[c]->send_all(tx, &error)) {
        broken[c] = 1;
        load.solves[i].status = Status::kTransport;
      }
      if (traced) {
        load.stamps[i].send_start = now;
        load.stamps[i].send_end = Clock::now();
      }
    }
  });
  for (std::size_t c = 0; c < C; ++c) {
    roles.emplace_back([&, c] {  // one receiver per connection
      std::size_t expected = total > c ? (total - c + C - 1) / C : 0;
      std::string payload, error;
      while (expected > 0) {
        svc::FrameHeader header;
        bool timed_out = false;
        if (!conns[c]->recv_frame(&header, &payload,
                                  end + std::chrono::seconds(1), &error,
                                  &timed_out)) {
          break;
        }
        const auto now = Clock::now();
        const std::uint64_t i = header.request_id - id_base;
        if (header.request_id < id_base || i >= total || i % C != c ||
            load.solves[i].status != Status::kPending) {
          continue;  // a straggler from an earlier phase
        }
        Reply& reply = load.solves[i];
        settle(reply, header, payload, svc::MsgType::kSolveOk,
               svc::MsgType::kSolveOk);
        reply.latency_ms =
            std::chrono::duration<double, std::milli>(now - due(i)).count();
        reply.done_s = seconds_since(start, now);
        if (traced) {
          load.stamps[i].recv_end = now;
          load.stamps[i].processed = Clock::now();
        }
        --expected;
      }
    });
  }
  if (!sessions.empty()) {
    // One thread streams every session closed loop (one delta in flight
    // each), which keeps a session workload within four threads.
    roles.emplace_back([&] {
      const std::size_t S = sessions.size();
      std::vector<Clock::time_point> sent(S);
      std::vector<char> waiting(S, 0);
      std::string tx, payload, error;
      const auto send_next = [&](std::size_t s) {
        SessionCursor& session = *sessions[s];
        Reply reply;
        reply.key = static_cast<std::uint32_t>(session.next);
        session.input->frame(session.next++, tx);
        sent[s] = Clock::now();
        if (session.conn->send_all(tx, &error)) {
          waiting[s] = 1;
        } else {
          reply.status = Status::kTransport;
        }
        load.sessions[s].push_back(reply);
      };
      for (std::size_t s = 0; s < S; ++s) send_next(s);
      std::vector<pollfd> fds;
      std::vector<std::size_t> polled;
      for (;;) {
        fds.clear();
        polled.clear();
        for (std::size_t s = 0; s < S; ++s) {
          if (waiting[s] != 0) {
            fds.push_back(pollfd{sessions[s]->conn->fd(), POLLIN, 0});
            polled.push_back(s);
          }
        }
        const int wait_ms = remaining_ms(end + std::chrono::seconds(1));
        if (fds.empty() || wait_ms == 0) break;  // the rest stay kPending
        if (::poll(fds.data(), fds.size(), wait_ms) < 0 && errno != EINTR) {
          break;
        }
        for (std::size_t f = 0; f < fds.size(); ++f) {
          if (fds[f].revents == 0) continue;
          const std::size_t s = polled[f];
          svc::FrameHeader header;
          bool timed_out = false;
          if (!sessions[s]->conn->recv_frame(&header, &payload, Clock::now(),
                                             &error, &timed_out)) {
            if (!timed_out) waiting[s] = 0;  // broken: the ack stays kPending
            continue;
          }
          const auto now = Clock::now();
          Reply& reply = load.sessions[s].back();
          waiting[s] = 0;
          if (header.request_id != reply.key + 1u) continue;
          settle(reply, header, payload, svc::MsgType::kSessionDeltaOk,
                 svc::MsgType::kSessionPlan);
          reply.latency_ms =
              std::chrono::duration<double, std::milli>(now - sent[s])
                  .count();
          reply.done_s = seconds_since(start, now);
          if (now < end) send_next(s);
        }
      }
    });
  }
  run_roles(roles, load);
  return load;
}

}  // namespace lrb::bench
