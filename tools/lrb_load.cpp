// lrb_load: closed- and open-loop load generator for lrb_serve.
//
// Spawns --connections client threads, each sending --requests Solve
// requests drawn from the shared mixed corpus (core/generators.h). With
// --rate 0 (default) each connection runs closed-loop (next request as
// soon as the reply lands); with --rate R the connections collectively
// pace an open loop at R requests/second against an absolute schedule,
// so a slow server shows up as queueing delay instead of a lower offered
// rate.
//
//   lrb_load --unix /tmp/lrb.sock --connections 4 --requests 64 --check
//   lrb_load --tcp 127.0.0.1:7733 --rate 200 --duration-s 10 --json out.json
//   lrb_load --unix /tmp/lrb.sock --trace /tmp/s.lrbd --check
//
// With --trace FILE the generator drives the SESSION path instead
// (wire v2, docs/streaming.md): each connection opens one streaming
// session and replays FILE's delta log (.lrbd, e.g. recorded with
// lrb_stream --record) through svc::run_session_stream. --check then
// byte-compares every ack — open, each delta frame (including full plan
// contents), stats, close — against stream::replay_serial_reference's
// transcript; pair it with --cache when the server runs --cache-mb.
//
// Flags (defaults in parentheses):
//   --unix PATH            connect over a Unix-domain socket
//   --tcp HOST:PORT        connect over TCP
//   --connections N (4)    concurrent connections, one thread each
//   --requests N (64)      requests per connection (ignored with --duration-s)
//   --duration-s S (0)     run for S seconds instead of a fixed count
//   --rate R (0)           total open-loop request rate; 0 = closed loop
//   --pipeline D (1)       keep up to D requests in flight per connection
//                          (closed loop only): replies are matched by the
//                          echoed request id, so one generator thread can
//                          saturate a multi-reactor server without waiting
//                          a full round-trip per request
//   --algo NAME (best-of)  solver-registry backend (canonical name or
//                          alias, docs/solvers.md): greedy, m-partition,
//                          best-of, ptas, lpt, local-search
//   --k-frac F (0.25)      move budget as a fraction of num_jobs
//   --deadline-ms N (0)    per-request deadline sent to the server; 0 = none
//   --seed N (1)           corpus seed (session mode: session ids come from
//                          it and a per-run nonce, so a rerun against the
//                          same server does not meet the last run's ids)
//   --repeat N (0)         repeated-instance preset: draw every request from a
//                          pool of N unique instances instead of a fresh one
//                          per request (the workload a --cache-mb server turns
//                          into cache hits); 0 = all distinct
//   --trace FILE           session mode: stream FILE's delta log, one
//                          session per connection (ignores the solve-loop
//                          flags: --requests/--rate/--pipeline/...)
//   --frame N (16)         session mode: deltas per SessionDelta frame
//                          (at most 65536, the server's per-frame cap)
//   --reconnect-every N (0) session mode: drop the connection every N
//                          frames; the next frame lands on another reactor,
//                          which answers it from the shared session table
//   --check                verify every SolveOk payload is byte-identical to
//                          engine::solve_serial_reference on the same instance
//   --cache                the server runs with --cache-mb: --check compares
//                          against engine::cached_serial_reference instead
//                          (see docs/caching.md)
//   --smoke                CI preset: 2 connections x 24 requests, implies
//                          closed loop (other flags still override)
//   --min-throughput R (0) exit non-zero unless achieved ok-replies/s >= R
//   --json FILE            write a lrb-svc-bench-v1 report
//   --version              print version/schema info and exit
//
// Exit status is non-zero on transport errors, any --check mismatch, or a
// missed --min-throughput gate. Shed replies (Overloaded/DeadlineExceeded)
// are counted and reported but are not failures: they are the server's
// backpressure working as designed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/generators.h"
#include "engine/batch_solver.h"
#include "solver/registry.h"
#include "stream/delta_log.h"
#include "svc/client.h"
#include "svc/session_client.h"
#include "svc/wire.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/version.h"

namespace {

using Clock = std::chrono::steady_clock;

struct LoadConfig {
  lrb::svc::Endpoint endpoint;
  std::size_t connections = 4;
  std::size_t requests = 64;
  double duration_s = 0.0;
  double rate = 0.0;
  lrb::solver::SolverSpec spec;
  double k_frac = 0.25;
  std::uint32_t deadline_ms = 0;
  std::uint64_t seed = 1;
  std::size_t repeat = 0;
  std::size_t pipeline = 1;
  bool check = false;
  bool cache = false;
};

struct WorkerStats {
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t shed_overloaded = 0;
  std::size_t shed_deadline = 0;
  std::size_t other_errors = 0;
  std::size_t mismatches = 0;
  std::vector<double> latencies_ms;
  std::vector<std::string> messages;  ///< first few failure details
};

int fail(const std::string& message) {
  std::cerr << "lrb_load: " << message << "\n";
  return 1;
}

void note(WorkerStats& stats, std::string message) {
  if (stats.messages.size() < 5) stats.messages.push_back(std::move(message));
}

/// Instance-pool index for request number `i` on connection `conn`. With
/// --repeat the pool wraps: requests across all connections draw from
/// `repeat` distinct instances, so a cache-enabled server sees a hit-heavy
/// steady state. Still deterministic in (conn, i, seed).
std::size_t instance_index(const LoadConfig& config, std::size_t conn,
                           std::size_t i) {
  std::size_t index = conn * 1000003 + i;
  if (config.repeat > 0) index %= config.repeat;
  return index;
}

lrb::svc::SolveRequest make_request(const LoadConfig& config,
                                    std::size_t index) {
  lrb::svc::SolveRequest request;
  request.spec = config.spec;
  request.deadline_ms = config.deadline_ms;
  request.instance = lrb::mixed_corpus_instance(index, config.seed);
  request.k = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             config.k_frac *
             static_cast<double>(request.instance.num_jobs())));
  return request;
}

/// --check reference for the request at pool index `index`: against a
/// --cache-mb server every reply — cold miss or warm hit — must match the
/// canonical-solve reference (docs/caching.md).
bool reply_matches_reference(const LoadConfig& config, std::size_t index,
                             const std::string& raw_payload) {
  const lrb::svc::SolveRequest request = make_request(config, index);
  const auto reference =
      config.cache
          ? lrb::engine::cached_serial_reference(request.spec,
                                                 request.instance, request.k)
          : lrb::engine::solve_serial_reference(request.spec,
                                                request.instance, request.k);
  return raw_payload == lrb::svc::encode_solve_reply_payload(reference);
}

/// One connection's worth of load. Instance indices are globally unique and
/// deterministic in (conn, i, seed) so --check can regenerate them.
void run_worker(const LoadConfig& config, std::size_t conn, Clock::time_point
                start, WorkerStats& stats) {
  std::string error;
  auto client = lrb::svc::Client::connect(config.endpoint, &error);
  if (!client) {
    note(stats, "connect failed: " + error);
    ++stats.other_errors;
    return;
  }
  const double per_conn_rate =
      config.rate > 0.0
          ? config.rate / static_cast<double>(config.connections)
          : 0.0;
  const auto deadline_end =
      config.duration_s > 0.0
          ? start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(config.duration_s))
          : Clock::time_point::max();

  for (std::size_t i = 0;; ++i) {
    if (config.duration_s > 0.0) {
      if (Clock::now() >= deadline_end) break;
    } else if (i >= config.requests) {
      break;
    }
    const std::size_t index = instance_index(config, conn, i);
    const lrb::svc::SolveRequest request = make_request(config, index);

    auto t0 = Clock::now();
    if (per_conn_rate > 0.0) {
      // Open loop: request i is due at its absolute scheduled time and is
      // timed from then, so when earlier replies were slow its lateness
      // becomes measured latency.
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       static_cast<double>(i) / per_conn_rate));
      std::this_thread::sleep_until(due);
      if (config.duration_s > 0.0 && Clock::now() >= deadline_end) break;
      t0 = due;
    }
    ++stats.sent;
    auto outcome = client->solve(request, index, &error);
    const auto t1 = Clock::now();
    if (!outcome) {
      note(stats, "request " + std::to_string(index) + ": " + error);
      ++stats.other_errors;
      return;  // transport broken; stop this connection
    }
    if (outcome->server_error) {
      switch (outcome->server_error->code) {
        case lrb::svc::ErrorCode::kOverloaded:
          ++stats.shed_overloaded;
          break;
        case lrb::svc::ErrorCode::kDeadlineExceeded:
          ++stats.shed_deadline;
          break;
        default:
          ++stats.other_errors;
          note(stats, "request " + std::to_string(index) + ": server error " +
                          lrb::svc::error_code_name(
                              outcome->server_error->code) +
                          ": " + outcome->server_error->text);
          break;
      }
      continue;
    }
    ++stats.ok;
    stats.latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    if (config.check &&
        !reply_matches_reference(config, index, outcome->raw_payload)) {
      ++stats.mismatches;
      note(stats, "request " + std::to_string(index) +
                      ": reply differs from serial reference");
    }
  }
}

/// Windowed variant (--pipeline D > 1): keep up to D Solves in flight on
/// this connection and match replies by the echoed request id. The id is
/// the RAW (pre---repeat) request number, so ids stay unique inside the
/// window while the instance pool still wraps; the instance is regenerated
/// from the id for --check.
void run_worker_pipelined(const LoadConfig& config, std::size_t conn,
                          Clock::time_point start, WorkerStats& stats) {
  std::string error;
  auto client = lrb::svc::Client::connect(config.endpoint, &error);
  if (!client) {
    note(stats, "connect failed: " + error);
    ++stats.other_errors;
    return;
  }
  const auto deadline_end =
      config.duration_s > 0.0
          ? start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(config.duration_s))
          : Clock::time_point::max();
  const auto more_to_send = [&](std::size_t i) {
    return config.duration_s > 0.0 ? Clock::now() < deadline_end
                                   : i < config.requests;
  };

  std::map<std::uint64_t, Clock::time_point> inflight;  // id -> send time
  std::size_t next = 0;
  for (;;) {
    while (inflight.size() < config.pipeline && more_to_send(next)) {
      const std::uint64_t id = conn * 1000003 + next;
      const lrb::svc::SolveRequest request = make_request(
          config, instance_index(config, conn, next));
      ++stats.sent;
      if (!client->send_frame(lrb::svc::MsgType::kSolve, id,
                              lrb::svc::encode_solve_request(request),
                              &error)) {
        note(stats, "request " + std::to_string(id) + ": " + error);
        ++stats.other_errors;
        return;  // transport broken; stop this connection
      }
      inflight.emplace(id, Clock::now());
      ++next;
    }
    if (inflight.empty()) break;

    lrb::svc::FrameHeader header;
    std::string payload;
    if (!client->recv_frame(&header, &payload, &error)) {
      note(stats, "recv: " + error);
      ++stats.other_errors;
      return;
    }
    const auto t1 = Clock::now();
    const auto sent_at = inflight.find(header.request_id);
    if (sent_at == inflight.end()) {
      note(stats, "reply for unknown request id " +
                      std::to_string(header.request_id));
      ++stats.other_errors;
      return;
    }
    const double latency_ms =
        std::chrono::duration<double, std::milli>(t1 - sent_at->second)
            .count();
    inflight.erase(sent_at);

    if (header.type == lrb::svc::MsgType::kError) {
      const auto reply = lrb::svc::decode_error_payload(payload);
      const auto code =
          reply ? reply->code : lrb::svc::ErrorCode::kInternal;
      switch (code) {
        case lrb::svc::ErrorCode::kOverloaded:
          ++stats.shed_overloaded;
          break;
        case lrb::svc::ErrorCode::kDeadlineExceeded:
          ++stats.shed_deadline;
          break;
        default:
          ++stats.other_errors;
          note(stats, "request " + std::to_string(header.request_id) +
                          ": server error " +
                          lrb::svc::error_code_name(code) +
                          (reply ? ": " + reply->text : std::string{}));
          break;
      }
      continue;
    }
    if (header.type != lrb::svc::MsgType::kSolveOk) {
      note(stats, "request " + std::to_string(header.request_id) +
                      ": unexpected reply type");
      ++stats.other_errors;
      return;
    }
    ++stats.ok;
    stats.latencies_ms.push_back(latency_ms);
    if (config.check) {
      std::size_t index = static_cast<std::size_t>(header.request_id);
      if (config.repeat > 0) index %= config.repeat;
      if (!reply_matches_reference(config, index, payload)) {
        ++stats.mismatches;
        note(stats, "request " + std::to_string(header.request_id) +
                        ": reply differs from serial reference");
      }
    }
  }
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lrb;
  const Flags flags(argc, argv);
  if (flags.has("version")) {
    print_version("lrb_load");
    return 0;
  }
  for (const auto& key : flags.keys()) {
    static const char* known[] = {
        "unix", "tcp",        "connections",    "requests", "duration-s",
        "rate", "algo",       "k-frac",         "deadline-ms", "seed",
        "repeat", "pipeline", "check",          "cache",    "smoke",
        "trace", "frame",     "reconnect-every",
        "min-throughput", "json", "version"};
    if (std::find_if(std::begin(known), std::end(known), [&](const char* k) {
          return key == k;
        }) == std::end(known)) {
      return fail("unknown flag '--" + key + "'");
    }
  }

  LoadConfig config;
  const bool smoke = flags.has("smoke");
  if (smoke) {
    config.connections = 2;
    config.requests = 24;
  }
  config.endpoint.unix_path = flags.get_or("unix", "");
  if (const auto tcp = flags.get("tcp")) {
    std::string error;
    const auto endpoint = svc::parse_tcp_endpoint(*tcp, &error);
    if (!endpoint) return fail("--tcp: " + error);
    config.endpoint.tcp_host = endpoint->tcp_host;
    config.endpoint.tcp_port = endpoint->tcp_port;
  }
  if (config.endpoint.unix_path.empty() && config.endpoint.tcp_port < 0) {
    return fail("need one of --unix PATH / --tcp HOST:PORT");
  }
  if (!config.endpoint.unix_path.empty() && config.endpoint.tcp_port >= 0) {
    return fail("--unix and --tcp are mutually exclusive");
  }
  const auto connections = flags.get_count(
      "connections", static_cast<std::int64_t>(config.connections));
  if (!connections) return fail("--connections must be a whole number >= 1");
  config.connections = static_cast<std::size_t>(*connections);
  const auto requests = flags.get_count(
      "requests", static_cast<std::int64_t>(config.requests));
  if (!requests) return fail("--requests must be a whole number >= 0");
  config.requests = static_cast<std::size_t>(*requests);
  config.duration_s = flags.get_double("duration-s", 0.0);
  config.rate = flags.get_double("rate", 0.0);
  config.k_frac = flags.get_double("k-frac", 0.25);
  config.deadline_ms =
      static_cast<std::uint32_t>(flags.get_int("deadline-ms", 0));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::int64_t repeat = flags.get_int("repeat", 0);
  if (repeat < 0) return fail("--repeat must be >= 0");
  config.repeat = static_cast<std::size_t>(repeat);
  const std::int64_t pipeline = flags.get_int("pipeline", 1);
  if (pipeline < 1) return fail("--pipeline must be >= 1");
  config.pipeline = static_cast<std::size_t>(pipeline);
  config.check = flags.has("check");
  config.cache = flags.has("cache");
  const double min_throughput = flags.get_double("min-throughput", 0.0);
  const std::string algo_text = flags.get_or("algo", "best-of");
  if (!solver::parse_backend(algo_text, &config.spec.backend)) {
    return fail("unknown --algo '" + algo_text + "' (want " +
                solver::backend_list() + ")");
  }
  if (config.connections < 1) return fail("--connections must be >= 1");
  if (config.rate < 0.0) return fail("--rate must be >= 0");
  if (config.pipeline > 1 && config.rate > 0.0) {
    return fail("--pipeline needs the closed loop (--rate 0)");
  }

  // Session mode: replay a recorded delta log through the wire-v2 session
  // path, one concurrent session per connection (distinct session ids over
  // the same transcript, so the determinism check covers concurrency too).
  if (const auto trace_path = flags.get("trace")) {
    const auto frame = flags.get_count("frame", 16);
    if (!frame || *frame < 1 || *frame > svc::kMaxDeltasPerFrame) {
      return fail("--frame must be a whole number in [1, " +
                  std::to_string(svc::kMaxDeltasPerFrame) + "]");
    }
    const auto reconnect_every = flags.get_count("reconnect-every", 0);
    if (!reconnect_every) {
      return fail("--reconnect-every must be a whole number >= 0");
    }
    std::ifstream in(*trace_path);
    if (!in) return fail("cannot read '" + *trace_path + "'");
    std::string log_error;
    const auto log = stream::read_delta_log(in, &log_error);
    if (!log) {
      return fail("bad delta log '" + *trace_path + "': " + log_error);
    }
    std::vector<svc::StreamRunResult> sessions(config.connections);
    std::vector<std::thread> session_threads;
    session_threads.reserve(config.connections);
    for (std::size_t c = 0; c < config.connections; ++c) {
      session_threads.emplace_back([&, c] {
        svc::StreamRunOptions run;
        run.endpoint = config.endpoint;
        run.session_id = svc::run_session_id(config.seed, c);
        run.frame_size = static_cast<std::size_t>(*frame);
        run.reconnect_every = static_cast<std::size_t>(*reconnect_every);
        run.check = config.check;
        run.cached = config.cache;
        run.retry.jitter_seed = config.seed + c;
        sessions[c] = svc::run_session_stream(*log, run);
      });
    }
    for (auto& t : session_threads) t.join();

    std::size_t ok = 0, frames = 0, mismatches = 0;
    std::uint64_t applied = 0, rejected = 0, plans = 0;
    for (std::size_t c = 0; c < sessions.size(); ++c) {
      const auto& r = sessions[c];
      if (r.ok) {
        ++ok;
      } else {
        std::cerr << "lrb_load: session " << c << " failed: " << r.error
                  << "\n";
      }
      frames += r.frames_sent;
      mismatches += r.mismatches;
      applied += r.deltas_applied;
      rejected += r.deltas_rejected;
      plans += r.plans_emitted;
    }
    std::cout << "lrb_load: " << ok << "/" << sessions.size()
              << " sessions ok, " << frames << " frames, " << applied
              << " deltas applied, " << rejected << " rejected, " << plans
              << " plans\n";
    if (config.check) {
      std::cout << "lrb_load: check "
                << (mismatches == 0 && ok == sessions.size() ? "OK" : "FAIL")
                << " (" << mismatches
                << " reply mismatches vs serial replay)\n";
    }
    return ok == sessions.size() && mismatches == 0 ? 0 : 1;
  }

  std::vector<WorkerStats> per_worker(config.connections);
  std::vector<std::thread> threads;
  threads.reserve(config.connections);
  const auto start = Clock::now();
  for (std::size_t c = 0; c < config.connections; ++c) {
    threads.emplace_back(config.pipeline > 1 ? run_worker_pipelined
                                             : run_worker,
                         std::cref(config), c, start,
                         std::ref(per_worker[c]));
  }
  for (auto& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  WorkerStats total;
  for (const auto& w : per_worker) {
    total.sent += w.sent;
    total.ok += w.ok;
    total.shed_overloaded += w.shed_overloaded;
    total.shed_deadline += w.shed_deadline;
    total.other_errors += w.other_errors;
    total.mismatches += w.mismatches;
    total.latencies_ms.insert(total.latencies_ms.end(),
                              w.latencies_ms.begin(), w.latencies_ms.end());
    for (const auto& m : w.messages) {
      if (total.messages.size() < 10) total.messages.push_back(m);
    }
  }
  std::sort(total.latencies_ms.begin(), total.latencies_ms.end());
  const auto pct = [&](double q) {
    return percentile_sorted(total.latencies_ms, q);
  };
  const double throughput =
      elapsed_s > 0.0 ? static_cast<double>(total.ok) / elapsed_s : 0.0;

  std::cout << "lrb_load: " << total.sent << " sent, " << total.ok
            << " ok, " << total.shed_overloaded << " overloaded, "
            << total.shed_deadline << " deadline, " << total.other_errors
            << " errors in " << elapsed_s << " s (" << throughput
            << " ok/s)\n";
  if (!total.latencies_ms.empty()) {
    std::cout << "lrb_load: latency ms p50=" << pct(0.5)
              << " p90=" << pct(0.9) << " p99=" << pct(0.99)
              << " max=" << total.latencies_ms.back() << "\n";
  }
  if (config.check) {
    std::cout << "lrb_load: check " << (total.mismatches == 0 ? "OK" : "FAIL")
              << " (" << total.ok << " replies compared, " << total.mismatches
              << " mismatches)\n";
  }
  for (const auto& m : total.messages) std::cerr << "lrb_load: " << m << "\n";

  if (const auto path = flags.get("json")) {
    std::ostringstream out;
    out << "{\n"
        << "  \"schema\": \"" << kSvcBenchSchema << "\",\n"
        << "  \"tool\": \"lrb_load\",\n"
        << "  \"config\": {\n"
        << "    \"transport\": \""
        << (config.endpoint.unix_path.empty() ? "tcp" : "unix") << "\",\n"
        << "    \"connections\": " << config.connections << ",\n"
        << "    \"requests_per_connection\": " << config.requests << ",\n"
        << "    \"duration_s\": " << config.duration_s << ",\n"
        << "    \"rate\": " << config.rate << ",\n"
        << "    \"algo\": \"" << solver::backend_name(config.spec.backend)
        << "\",\n"
        << "    \"k_frac\": " << config.k_frac << ",\n"
        << "    \"deadline_ms\": " << config.deadline_ms << ",\n"
        << "    \"seed\": " << config.seed << ",\n"
        << "    \"repeat\": " << config.repeat << ",\n"
        << "    \"pipeline\": " << config.pipeline << ",\n"
        << "    \"cache\": " << (config.cache ? "true" : "false") << ",\n"
        << "    \"check\": " << (config.check ? "true" : "false") << "\n"
        << "  },\n"
        << "  \"results\": {\n"
        << "    \"sent\": " << total.sent << ",\n"
        << "    \"ok\": " << total.ok << ",\n"
        << "    \"shed_overloaded\": " << total.shed_overloaded << ",\n"
        << "    \"shed_deadline\": " << total.shed_deadline << ",\n"
        << "    \"errors\": " << total.other_errors << ",\n"
        << "    \"mismatches\": " << total.mismatches << ",\n"
        << "    \"elapsed_s\": " << elapsed_s << ",\n"
        << "    \"throughput_ok_per_s\": " << throughput << ",\n"
        << "    \"latency_ms\": {\n"
        << "      \"p50\": " << pct(0.5) << ",\n"
        << "      \"p90\": " << pct(0.9) << ",\n"
        << "      \"p99\": " << pct(0.99) << ",\n"
        << "      \"max\": "
        << (total.latencies_ms.empty() ? 0.0 : total.latencies_ms.back())
        << "\n"
        << "    }\n"
        << "  }\n"
        << "}\n";
    std::ofstream file(*path);
    if (!file) return fail("cannot write '" + json_escape(*path) + "'");
    file << out.str();
  }

  if (total.other_errors > 0) return 1;
  if (total.mismatches > 0) return 1;
  if (total.ok == 0) return fail("no successful replies");
  if (min_throughput > 0.0 && throughput < min_throughput) {
    return fail("throughput " + std::to_string(throughput) +
                " ok/s below gate " + std::to_string(min_throughput));
  }
  return 0;
}
