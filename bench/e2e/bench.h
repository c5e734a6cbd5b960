// Shared declarations of lrb_bench, the end-to-end service benchmark
// (README.md in this directory). lrb_bench spawns lrb_serve, drives it
// from pre-encoded inputs over Unix-socket connections, byte-checks every
// reply after the timed windows, and replays the same inputs through each
// module's public functions to attribute time to layers.

#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.h"
#include "stream/session.h"
#include "svc/wire.h"

namespace lrb::bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point from,
                                          Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Overwrites the little-endian u64 at `offset` of an encoded frame (the
/// request id sits at offset 8 of every frame header).
inline void patch_u64(std::string& frame, std::size_t offset,
                      std::uint64_t value) {
  for (std::size_t b = 0; b < 8; ++b) {
    frame[offset + b] = static_cast<char>((value >> (8 * b)) & 0xff);
  }
}

// ------------------------------------------------------------------ inputs

/// Distinct Solve requests, each pre-encoded as a complete frame with
/// request id 0; the sender patches the id into a copy at send time.
struct SolvePool {
  std::vector<std::string> frames;
  /// Send order over `frames` (the same for every seed), cycled by the load
  /// loops.
  std::vector<std::uint32_t> order;
  /// The server runs the solution cache: replies are checked against
  /// engine::cached_serial_reference instead of solve_serial_reference.
  bool cached = false;
};

/// `count` distinct mixed_corpus_instance requests with k = max(1, n/4);
/// every `ptas_every`-th one (0 = none) asks for the PTAS at eps 1.0 on a
/// seed-independent instance, the rest for best-of.
[[nodiscard]] SolvePool mixed_pool(std::uint64_t seed, std::size_t count,
                                   std::size_t ptas_every);

/// `hot` mixed-corpus instances times `relabelings` seeded job/processor
/// relabelings of each; relabeling r == relabelings - 1 asks for the PTAS
/// (of the seed-independent instance with that index), the others for
/// best-of. `warm` receives one payload per (instance,
/// backend) pair, which an untimed pass sends so timed requests all hit.
[[nodiscard]] SolvePool relabeled_pool(std::uint64_t seed, std::size_t hot,
                                       std::size_t relabelings,
                                       std::vector<std::uint32_t>* warm);

/// One streaming session: its open frame and a pre-generated stationary
/// churn, one delta per SessionDelta frame. The churn is a period that
/// returns the live job set to where it started (a random walk followed by
/// its undo), so it repeats for as long as a closed loop keeps up; delta i
/// is period[i % period] sent with sequence number i + 1.
struct SessionInput {
  std::uint64_t session_id = 0;
  Instance initial;
  stream::TriggerConfig trigger;
  std::string open_frame;
  std::vector<stream::Delta> period;
  std::vector<std::string> period_frames;  ///< encoded with seq 0

  /// Delta frame `i`: the pre-encoded frame with its request id and
  /// first_seq set to i + 1.
  void frame(std::size_t i, std::string& out) const;
  /// The first `n` deltas the session streams.
  [[nodiscard]] std::vector<stream::Delta> deltas(std::size_t n) const;
};

[[nodiscard]] SessionInput make_session(std::uint64_t seed,
                                        std::uint64_t session_id,
                                        std::size_t period);

/// 64-bit digest of one reply frame (type + payload bytes).
[[nodiscard]] std::uint64_t reply_digest(svc::MsgType type,
                                         std::string_view payload);

/// Reference digest of pool frame `index`: decodes the exact payload and
/// runs the serial (or cache-path serial) reference on it.
[[nodiscard]] std::uint64_t solve_reference_digest(const SolvePool& pool,
                                                   std::uint32_t index);

/// Runs fn(i) for i in [0, n) on up to `threads` threads (caller included).
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

// -------------------------------------------------------------- transport

/// One client connection. The sending side (send_all) and the receiving
/// side (recv_frame) touch disjoint state, so one sender thread and one
/// receiver thread may share a Conn; neither side may be used by two
/// threads at once.
class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Connects, retrying until `deadline` while the socket is not there yet.
  [[nodiscard]] bool connect_unix(const std::string& path,
                                  Clock::time_point deadline,
                                  std::string* error);
  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool send_all(std::string_view bytes, std::string* error);
  /// Blocks until a whole frame arrives; false on EOF, error, a malformed
  /// frame, or `deadline` (then *timed_out is set).
  [[nodiscard]] bool recv_frame(svc::FrameHeader* header,
                                std::string* payload,
                                Clock::time_point deadline,
                                std::string* error, bool* timed_out);

 private:
  int fd_ = -1;
  std::string rx_;       ///< receiver-side buffer
  std::size_t rx_pos_ = 0;
};

/// A spawned lrb_serve. The destructor kills and reaps it if it is still
/// running, so no error path leaves a process behind.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] bool spawn(const std::vector<std::string>& argv,
                           const std::string& log_path, std::string* error);
  /// Waits up to `timeout_s` for exit; returns the exit code, or -1 on a
  /// signal death or timeout (the process is then killed and reaped).
  int wait_exit(double timeout_s);

  /// utime + stime so far, in seconds (/proc/<pid>/stat).
  [[nodiscard]] double cpu_seconds() const;
  /// Peak resident set (VmHWM), in MiB.
  [[nodiscard]] double peak_rss_mib() const;

 private:
  pid_t pid_ = -1;
};

/// Host-wide jiffies from /proc/stat: total and steal.
struct HostCpu {
  double total = 0;
  double steal = 0;
};
[[nodiscard]] HostCpu host_cpu();
/// CPU seconds this process has used (user + system).
[[nodiscard]] double self_cpu_seconds();

/// The host probe: thread CPU time, in microseconds, of one fixed unit of
/// bench-owned work (seeded fill and sort of 4096 keys, four times). It
/// takes no code from the repository, so a change to lrb cannot move it,
/// while a slower host (shared cores, frequency) slows it in step with the
/// server. The load phases sample it concurrently; end-to-end timings are
/// scaled by it to the reference host speed (README.md).
[[nodiscard]] double probe_unit_us();

/// Numeric fields of a Stats JSON snapshot (obs::Registry::to_json):
/// counters and gauges by name, histogram fields as "name/field".
using StatsSnapshot = std::map<std::string, double>;
[[nodiscard]] StatsSnapshot parse_stats(std::string_view json);
[[nodiscard]] double stat(const StatsSnapshot& s, const std::string& name);

// ------------------------------------------------------------------- load

enum class Status : std::uint8_t {
  kPending,      ///< never answered (counted as a timeout)
  kOk,           ///< answered with a success frame; digest checked later
  kServerError,  ///< any Error frame, sheds included
  kTransport,    ///< send failed or the connection broke
};

/// One request's outcome. `key` names the input the reply is checked
/// against: a pool index for Solves, a delta index for session acks.
struct Reply {
  std::uint32_t key = 0;
  Status status = Status::kPending;
  bool matched = false;      ///< set by the deferred byte check
  std::uint64_t digest = 0;
  double latency_ms = 0.0;   ///< from the due time (open) or send (closed)
  double done_s = 0.0;       ///< completion time since the phase started
};

/// Client-side timestamps of one request, kept only on traced runs.
struct ClientStamps {
  Clock::time_point send_start{};
  Clock::time_point send_end{};
  Clock::time_point recv_end{};
  Clock::time_point processed{};
};

/// Host CPU counters read at `t_s` seconds into a phase.
struct HostSample {
  double t_s = 0.0;
  HostCpu cpu;
};

/// Everything one phase of load produced.
struct PhaseLoad {
  double seconds = 0.0;
  Clock::time_point start{};  ///< time zero of done_s and the due times
  std::vector<Reply> solves;
  std::vector<double> lateness_ms;  ///< open-loop sender lateness
  std::vector<std::vector<Reply>> sessions;
  std::vector<ClientStamps> stamps;  ///< parallel to solves (traced runs)
  std::vector<double> probe_us;      ///< host probe samples over the phase
  /// Host counters at the start, about every 10 ms, and at the end.
  std::vector<HostSample> host;
};

/// Cursor over a send order (the pool's own unless `order` is set), shared
/// by the phases of one run so consecutive phases continue through it.
struct PoolCursor {
  const SolvePool* pool = nullptr;
  const std::vector<std::uint32_t>* order = nullptr;
  std::size_t next = 0;
  [[nodiscard]] std::uint32_t key(std::size_t i) const {
    const auto& keys = order != nullptr ? *order : pool->order;
    return keys[i % keys.size()];
  }
};

struct SessionCursor {
  const SessionInput* input = nullptr;
  Conn* conn = nullptr;
  std::size_t next = 0;  ///< index of the next delta to send
};

/// Closed loop: each connection keeps `in_flight` Solves outstanding for
/// `seconds` (or until `max_requests` were sent), then collects the
/// stragglers for up to one second.
[[nodiscard]] PhaseLoad run_closed(std::vector<Conn*> conns, PoolCursor& cursor,
                                   std::size_t in_flight, double seconds,
                                   std::uint64_t id_base, bool traced,
                                   std::size_t max_requests = SIZE_MAX);

/// Open loop at `rate` Solves/s spread round-robin over `conns` (one sender
/// thread, one receiver thread per connection), with `sessions` streaming
/// closed loop from one more thread when non-empty. Latency counts from
/// each request's due time.
[[nodiscard]] PhaseLoad run_open(std::vector<Conn*> conns, PoolCursor& cursor,
                                 double rate, double seconds,
                                 std::uint64_t id_base, bool traced,
                                 std::vector<SessionCursor*> sessions = {});

// ---------------------------------------------------------------- tracing

struct Span {
  const char* name = "";
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  const char* parent = "";  ///< name of the enclosing span ("" = root)
};

/// In-memory span log, written out once at the end of the run.
class SpanLog {
 public:
  void add(const char* name, std::uint64_t request, Clock::time_point start,
           Clock::time_point end, const char* parent = "");
  /// Mean duration (or self time: duration minus time covered by child
  /// spans of the same request) of spans named `name`, in microseconds.
  [[nodiscard]] double mean_us(const char* name, bool self = false) const;
  [[nodiscard]] bool write_tsv(const std::string& path,
                               const std::string& workload) const;

 private:
  std::vector<Span> spans_;
};

/// Per-layer numbers from the single-threaded layer replay.
using LayerMetrics = std::map<std::string, double>;

/// Replays the Solve payloads in `pool` (first ones in send order, within a
/// time budget) through decode, the cache path, BatchSolver ticks of
/// `tick_size`, the serial solver and the reply encoder.
[[nodiscard]] LayerMetrics replay_solves(const SolvePool& pool,
                                         std::size_t tick_size,
                                         double budget_s, SpanLog& spans);

/// Replays a session's first deltas through decode, ClusterSession::step
/// (its solve hook as a child span) and the ack encoder.
[[nodiscard]] LayerMetrics replay_session(const SessionInput& input,
                                          std::size_t max_deltas,
                                          SpanLog& spans);

// ----------------------------------------------------------------- report

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< 0 = not a sampled statistic
};

/// One workload's result: the outcome ledger plus named metrics.
struct WorkloadReport {
  std::string name;
  bool complete = true;  ///< every pass ran (no spawn/transport/Stats error)
  bool valid = true;     ///< the open-loop sender kept to its schedule
  bool server_exit_ok = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t mismatches = 0;
  std::size_t sheds = 0;
  std::vector<std::string> notes;  ///< why a run is invalid or failed
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> reported;   ///< tails: shown, never gated
  std::map<std::string, Metric> per_layer;

  [[nodiscard]] bool correct() const {
    return complete && valid && server_exit_ok && failed == 0 &&
           mismatches == 0;
  }
};

void print_report(const WorkloadReport& report);
[[nodiscard]] std::string reports_json(const std::vector<WorkloadReport>& all,
                                       std::uint64_t seed, double seconds,
                                       bool traced);

[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double mean(const std::vector<double>& values);

}  // namespace lrb::bench
