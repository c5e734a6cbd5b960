// lrb_stream: driver and determinism checker for streaming rebalance
// sessions (wire v2, docs/streaming.md).
//
// By default it spins up an IN-PROCESS multi-reactor server, converts
// seeded online traces (src/stream/trace) into delta logs, streams them as
// concurrent sessions, and — with --check — byte-compares every server ack
// (open, each delta frame, stats, close) against the serial replay
// reference (stream::replay_serial_reference's solver on a mirrored
// session). --reconnect-every forces mid-session reconnects, so frames
// land on reactors other than the one that opened the session and are
// answered there, under the same byte-compare.
//
//   lrb_stream --smoke --check --reactors 4
//   lrb_stream --sessions 8 --deltas 500 --frame 16 --check --cache-mb 8
//   lrb_stream --record /tmp/s.lrbd --deltas 200 --seed 7
//   lrb_stream --replay /tmp/s.lrbd --check
//   lrb_stream --unix /tmp/lrb.sock --sessions 4 --check   # external server
//
// Flags (defaults in parentheses):
//   --sessions N (4)       concurrent sessions, one client thread each
//   --deltas N (200)       deltas per session (trace events)
//   --frame N (16)         deltas per SessionDelta frame (at most 65536,
//                          the server's per-frame cap)
//   --algo NAME (best-of)  replan backend (solver registry, canonical name
//                          or alias, docs/solvers.md): greedy, m-partition,
//                          best-of, ptas, lpt, local-search
//   --move-frac F (0.25)   replan move budget as a fraction of live jobs
//   --imbalance R (1.5)    imbalance trigger ratio (0 disables)
//   --every N (32)         delta-count trigger (0 disables)
//   --depart-frac F (0.4)  departure fraction of the generated traces
//   --reconnect-every N (0) drop the connection every N frames (the next
//                          frame lands on another reactor)
//   --seed N (1)           trace/corpus seed (session ids come from it and
//                          a per-run nonce, so a rerun against the same
//                          server does not meet the last run's ids)
//   --check                byte-compare every ack vs the serial reference
//   --record FILE          write session 0's delta log (.lrbd) and exit
//   --replay FILE          stream FILE's delta log as a single session
//   --unix PATH | --tcp HOST:PORT   target an external server (default:
//                          in-process); with an external --cache-mb server
//                          pass --cache so --check uses the cached reference
//   --reactors N (2)       in-process server: event-loop shards
//   --engine-workers N (2) in-process server: engine tick workers
//   --workers N (0)        in-process server: solver pool (0 = hw)
//   --cache-mb N (0)       in-process server: solution cache budget
//   --smoke                CI preset: 2 sessions x 60 deltas, frame 7,
//                          reconnect every 3 frames (flags still override)
//   --version              print version/schema info and exit
//
// Exit status is non-zero on transport give-up, any rejected lifecycle
// call, or any --check mismatch.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/generators.h"
#include "solver/registry.h"
#include "stream/delta_log.h"
#include "stream/replay.h"
#include "stream/trace.h"
#include "svc/server.h"
#include "svc/session_client.h"
#include "svc/wire.h"
#include "util/flags.h"
#include "util/version.h"

namespace {

int fail(const std::string& message) {
  std::cerr << "lrb_stream: " << message << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lrb;
  const Flags flags(argc, argv);
  if (flags.has("version")) {
    print_version("lrb_stream");
    return 0;
  }
  for (const auto& key : flags.keys()) {
    static const char* known[] = {
        "sessions", "deltas",   "frame",     "algo",   "move-frac",
        "imbalance", "every",   "depart-frac", "reconnect-every", "seed",
        "check",    "record",   "replay",    "unix",   "tcp",
        "cache",    "reactors", "engine-workers", "workers", "cache-mb",
        "smoke",    "version"};
    if (std::find_if(std::begin(known), std::end(known), [&](const char* k) {
          return key == k;
        }) == std::end(known)) {
      return fail("unknown flag '--" + key + "'");
    }
  }

  const bool smoke = flags.has("smoke");
  const auto sessions_flag = flags.get_count("sessions", smoke ? 2 : 4);
  const auto deltas_flag = flags.get_count("deltas", smoke ? 60 : 200);
  const auto frame_flag = flags.get_count("frame", smoke ? 7 : 16);
  const auto reconnect_flag =
      flags.get_count("reconnect-every", smoke ? 3 : 0);
  if (!sessions_flag) return fail("--sessions must be a whole number >= 1");
  if (!deltas_flag) return fail("--deltas must be a whole number >= 0");
  if (!frame_flag || *frame_flag > svc::kMaxDeltasPerFrame) {
    return fail("--frame must be a whole number in [1, " +
                std::to_string(svc::kMaxDeltasPerFrame) + "]");
  }
  if (!reconnect_flag) {
    return fail("--reconnect-every must be a whole number >= 0");
  }
  std::size_t sessions = static_cast<std::size_t>(*sessions_flag);
  const std::size_t deltas = static_cast<std::size_t>(*deltas_flag);
  const std::size_t frame = static_cast<std::size_t>(*frame_flag);
  const std::size_t reconnect_every = static_cast<std::size_t>(*reconnect_flag);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const bool check = flags.has("check");
  if (sessions < 1) return fail("--sessions must be >= 1");
  if (frame < 1) return fail("--frame must be >= 1");

  stream::TriggerConfig trigger;
  const std::string algo_text = flags.get_or("algo", "best-of");
  if (!solver::parse_backend(algo_text, &trigger.spec.backend)) {
    return fail("unknown --algo '" + algo_text + "' (want " +
                solver::backend_list() + ")");
  }
  trigger.move_frac = flags.get_double("move-frac", 0.25);
  trigger.imbalance_ratio = flags.get_double("imbalance", 1.5);
  trigger.delta_count =
      static_cast<std::uint32_t>(flags.get_int("every", 32));
  if (const auto invalid = stream::validate_trigger(trigger)) {
    return fail("invalid trigger: " + *invalid);
  }
  const double depart_frac = flags.get_double("depart-frac", 0.4);

  // One deterministic delta log per session index.
  const auto make_log = [&](std::size_t index) {
    stream::TraceOptions trace_options;
    trace_options.num_events = deltas;
    trace_options.departure_fraction = depart_frac;
    const auto events = stream::random_trace(trace_options, seed + index);
    return stream::delta_log_from_trace(
        mixed_corpus_instance(index, seed), events, trigger);
  };

  if (const auto path = flags.get("record")) {
    std::ofstream out(*path);
    if (!out) return fail("cannot write '" + *path + "'");
    stream::write_delta_log(out, make_log(0));
    std::cout << "lrb_stream: recorded " << deltas << " deltas to " << *path
              << "\n";
    return 0;
  }

  std::vector<stream::DeltaLog> logs;
  if (const auto path = flags.get("replay")) {
    std::ifstream in(*path);
    if (!in) return fail("cannot read '" + *path + "'");
    std::string error;
    auto log = stream::read_delta_log(in, &error);
    if (!log) return fail("bad delta log '" + *path + "': " + error);
    logs.push_back(std::move(*log));
    sessions = 1;
  } else {
    logs.reserve(sessions);
    for (std::size_t s = 0; s < sessions; ++s) logs.push_back(make_log(s));
  }

  // Target server: external when --unix/--tcp is given, else in-process.
  svc::Endpoint endpoint;
  bool cached = flags.has("cache");
  std::unique_ptr<svc::Server> server;
  std::thread server_thread;
  const std::string external_unix = flags.get_or("unix", "");
  const auto external_tcp = flags.get("tcp");
  if (!external_unix.empty() && external_tcp) {
    return fail("--unix and --tcp are mutually exclusive");
  }
  if (!external_unix.empty()) {
    endpoint = svc::Endpoint::unix_socket(external_unix);
  } else if (external_tcp) {
    std::string error;
    const auto tcp = svc::parse_tcp_endpoint(*external_tcp, &error);
    if (!tcp) return fail("--tcp: " + error);
    endpoint = *tcp;
  } else {
    svc::ServerOptions options;
    std::ostringstream path;
    path << "/tmp/lrb_stream." << getpid() << ".sock";
    options.unix_path = path.str();
    const auto reactors = flags.get_count("reactors", 2);
    const auto engine_workers = flags.get_count("engine-workers", 2);
    const auto workers = flags.get_count("workers", 0);
    if (!reactors) return fail("--reactors must be a whole number >= 0");
    if (!engine_workers) {
      return fail("--engine-workers must be a whole number >= 0");
    }
    if (!workers) return fail("--workers must be a whole number >= 0");
    options.reactors = static_cast<std::size_t>(*reactors);
    options.engine_workers = static_cast<std::size_t>(*engine_workers);
    options.engine.workers = static_cast<std::size_t>(*workers);
    // The largest budget whose byte count fits in size_t.
    constexpr auto kMaxCacheMb = static_cast<std::int64_t>(
        std::numeric_limits<std::size_t>::max() >> 20);
    const auto cache_mb = flags.get_count("cache-mb", 0);
    if (!cache_mb || *cache_mb > kMaxCacheMb) {
      return fail("--cache-mb must be a whole number in [0, " +
                  std::to_string(kMaxCacheMb) + "]");
    }
    options.engine.cache_bytes = static_cast<std::size_t>(*cache_mb) << 20;
    cached = options.engine.cache_bytes > 0;
    server = std::make_unique<svc::Server>(std::move(options));
    std::string error;
    if (!server->start(&error)) return fail("server start: " + error);
    endpoint = svc::Endpoint::unix_socket(server->options().unix_path);
    server_thread = std::thread([&server] { server->run(); });
  }

  std::vector<svc::StreamRunResult> results(logs.size());
  std::vector<std::thread> threads;
  threads.reserve(logs.size());
  for (std::size_t s = 0; s < logs.size(); ++s) {
    threads.emplace_back([&, s] {
      svc::StreamRunOptions run;
      run.endpoint = endpoint;
      run.session_id = svc::run_session_id(seed, s);
      run.frame_size = frame;
      run.reconnect_every = reconnect_every;
      run.check = check;
      run.cached = cached;
      run.retry.jitter_seed = seed + s;
      results[s] = svc::run_session_stream(logs[s], run);
    });
  }
  for (auto& t : threads) t.join();

  if (server) {
    server->notify_signal();
    server_thread.join();
  }

  std::size_t ok = 0, frames = 0, mismatches = 0;
  std::uint64_t applied = 0, rejected = 0, plans = 0, moves = 0;
  for (std::size_t s = 0; s < results.size(); ++s) {
    const auto& r = results[s];
    if (r.ok) {
      ++ok;
    } else {
      std::cerr << "lrb_stream: session " << s << " failed: " << r.error
                << "\n";
    }
    frames += r.frames_sent;
    mismatches += r.mismatches;
    applied += r.deltas_applied;
    rejected += r.deltas_rejected;
    plans += r.plans_emitted;
    moves += r.moves_total;
  }
  std::cout << "lrb_stream: " << ok << "/" << results.size()
            << " sessions ok, " << frames << " frames, " << applied
            << " deltas applied, " << rejected << " rejected, " << plans
            << " plans, " << moves << " moves\n";
  if (check) {
    std::cout << "lrb_stream: check "
              << (mismatches == 0 && ok == results.size() ? "OK" : "FAIL")
              << " (" << mismatches << " reply mismatches vs serial replay)"
              << "\n";
  }
  return ok == results.size() && mismatches == 0 ? 0 : 1;
}
