// lrb_serve: the long-running rebalancing service. Accepts the binary wire
// protocol (docs/serving.md) over TCP and/or Unix-domain sockets. A cheap
// Solve that reaches an otherwise idle reactor is answered by that
// reactor; every other Solve is batched into engine::BatchSolver ticks
// under per-request deadlines and queue-depth backpressure. A client must
// read its replies while it pipelines: a connection holding more than
// 4 MiB of unsent replies is not read until they are flushed. It drains
// gracefully on SIGTERM/SIGINT or a Drain request (zero dropped in-flight
// requests).
//
//   lrb_serve --unix /tmp/lrb.sock --workers 0
//   lrb_serve --tcp 7733 --bind 0.0.0.0 --metrics-json metrics.json
//
// Flags (defaults in parentheses):
//   --unix PATH          listen on a Unix-domain socket
//   --tcp PORT           listen on TCP (0 = ephemeral; port is printed)
//   --bind ADDR (127.0.0.1)  TCP bind address
//   --reactors N (1)     event-loop shards, each with its own poll loop
//                        and connection table (docs/serving.md)
//   --engine-workers N (1)  engine tick workers; > 1 runs concurrent
//                        BatchSolver ticks (replies stay byte-identical)
//   --workers N (0)      solver pool size; 0 = hardware concurrency
//   --max-queue N (256)  admission control: shed engine Solves beyond this
//                        depth (inline Solves never queue)
//   --max-conns N (256)  connection cap
//   --tick-delay-ms N (0)  chaos/testing knob: delay each engine tick
//                        (inline Solves never wait for it)
//   --cache-mb N (0)     canonicalizing solution cache budget in MiB
//                        (docs/caching.md); 0 disables the cache
//   --metrics-json FILE  dump the final metrics snapshot on clean exit
//   --help               print usage, including the Stats JSON schema
//   --version            print version/schema info and exit
//
// At least one of --unix / --tcp is required.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "solver/registry.h"
#include "svc/server.h"
#include "util/flags.h"
#include "util/version.h"

namespace {

int fail(const std::string& message) {
  std::cerr << "lrb_serve: " << message << "\n";
  return 1;
}

/// --help: usage plus the observable surface a dashboard scrapes — the
/// Stats reply / --metrics-json schema and its metric families. Kept in
/// one place so operators do not have to read wire.h to find the schema.
void print_help() {
  std::cout <<
      "usage: lrb_serve (--unix PATH | --tcp PORT) [options]\n"
      "\n"
      "The long-running rebalancing service (docs/serving.md): wire v1\n"
      "one-shot Solves plus wire-v2 streaming sessions (docs/streaming.md)\n"
      "over TCP and/or Unix-domain sockets. A Solve for a backend marked\n"
      "[inline] below, on at most "
      << lrb::engine::kWarmJobs << " jobs and "
      << lrb::engine::kWarmProcs << " processors, is answered by\n"
      "the reactor that decoded it when it is the only Solve that reactor\n"
      "read in one poll pass and none of the reactor's Solves is on the\n"
      "engine; every other Solve goes through the engine's ticks. A client\n"
      "must read its replies while it pipelines: a connection holding more\n"
      "than 4 MiB of unsent replies is not read until they are flushed.\n"
      "\n"
      "options:\n"
      "  --unix PATH           listen on a Unix-domain socket\n"
      "  --tcp PORT            listen on TCP (0 = ephemeral; port printed)\n"
      "  --bind ADDR           TCP bind address (127.0.0.1)\n"
      "  --reactors N          event-loop shards (1)\n"
      "  --engine-workers N    concurrent engine tick workers (1)\n"
      "  --workers N           solver pool size; 0 = hardware (0)\n"
      "  --max-queue N         shed engine Solves beyond this depth (256)\n"
      "  --max-conns N         connection cap (256)\n"
      "  --tick-delay-ms N     chaos knob: delay each engine tick (0)\n"
      "  --cache-mb N          solution cache budget in MiB; 0 = off (0)\n"
      "  --metrics-json FILE   dump the final metrics snapshot on exit\n"
      "  --help | --version    this text / version and schema info\n"
      "\n"
      "solvers (docs/solvers.md):\n"
      "  Each Solve / SessionOpen frame names its backend by the solver\n"
      "  registry's stable wire id; unknown ids get a BadRequest reply.\n"
      "  Registered backends (wire id: name, accepted aliases):\n";
  for (const auto& backend : lrb::solver::all_backends()) {
    std::cout << "    " << static_cast<int>(backend.wire_id) << ": "
              << backend.name;
    if (!backend.aliases.empty()) {
      std::cout << " (";
      for (std::size_t i = 0; i < backend.aliases.size(); ++i) {
        if (i > 0) std::cout << ", ";
        std::cout << backend.aliases[i];
      }
      std::cout << ")";
    }
    if (backend.runs_inline) std::cout << " [inline]";
    std::cout << "\n";
  }
  std::cout <<
      "\n"
      "stats:\n"
      "  The Stats reply and --metrics-json both carry schema \""
      << lrb::kStatsSchema << "\":\n"
      "  {\"schema\": \"" << lrb::kStatsSchema
      << "\", \"counters\": {...}, \"gauges\": {...},\n"
      "   \"histograms\": {...}} with these families:\n"
      "    svc.*     request/reply/connection counters of the v1 path\n"
      "              (svc.requests_solve, svc.replies_solve_ok, ...) plus\n"
      "              svc.requests_session for the v2 frames;\n"
      "              svc.solves_inline counts Solves answered on their\n"
      "              reactor, svc.engine_ticks and svc.tick_batch_size\n"
      "              the engine's ticks only, svc.reads_paused the times\n"
      "              a connection was not read for its unsent replies\n"
      "    engine.*  batch-engine tick and latency metrics\n"
      "    cache.*   solution cache hits/misses/evictions (--cache-mb)\n"
      "    stream.*  streaming sessions (docs/streaming.md#metrics):\n"
      "              sessions_open (gauge), sessions_opened,\n"
      "              sessions_closed, deltas_applied, deltas_rejected,\n"
      "              plans_emitted, dup_frames_resent (counters),\n"
      "              moves_per_plan, replan_latency_ms (histograms)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lrb;
  const Flags flags(argc, argv);
  if (flags.has("version")) {
    print_version("lrb_serve");
    return 0;
  }
  if (flags.has("help")) {
    print_help();
    return 0;
  }
  for (const auto& key : flags.keys()) {
    static const char* known[] = {"unix",          "tcp",       "bind",
                                  "reactors",      "engine-workers",
                                  "workers",       "max-queue", "max-conns",
                                  "tick-delay-ms", "cache-mb",  "metrics-json",
                                  "help",          "version"};
    if (std::find_if(std::begin(known), std::end(known), [&](const char* k) {
          return key == k;
        }) == std::end(known)) {
      return fail("unknown flag '--" + key + "'");
    }
  }

  svc::ServerOptions options;
  options.unix_path = flags.get_or("unix", "");
  options.tcp_port = static_cast<int>(flags.get_int("tcp", -1));
  options.tcp_bind = flags.get_or("bind", "127.0.0.1");
  const auto workers = flags.get_count("workers", 0);
  if (!workers) return fail("--workers must be a whole number >= 0");
  options.engine.workers = static_cast<std::size_t>(*workers);
  const std::int64_t reactors = flags.get_int("reactors", 1);
  const std::int64_t engine_workers = flags.get_int("engine-workers", 1);
  const std::int64_t max_queue = flags.get_int("max-queue", 256);
  const std::int64_t max_conns = flags.get_int("max-conns", 256);
  const std::int64_t tick_delay = flags.get_int("tick-delay-ms", 0);
  // The largest budget whose byte count fits in size_t.
  constexpr auto kMaxCacheMb = static_cast<std::int64_t>(
      std::numeric_limits<std::size_t>::max() >> 20);
  const auto cache_mb = flags.get_count("cache-mb", 0);
  if (reactors < 1) return fail("--reactors must be >= 1");
  if (engine_workers < 1) return fail("--engine-workers must be >= 1");
  if (max_queue < 1) return fail("--max-queue must be >= 1");
  if (max_conns < 1) return fail("--max-conns must be >= 1");
  if (tick_delay < 0) return fail("--tick-delay-ms must be >= 0");
  if (!cache_mb || *cache_mb > kMaxCacheMb) {
    return fail("--cache-mb must be a whole number in [0, " +
                std::to_string(kMaxCacheMb) + "]");
  }
  options.reactors = static_cast<std::size_t>(reactors);
  options.engine_workers = static_cast<std::size_t>(engine_workers);
  options.max_queue = static_cast<std::size_t>(max_queue);
  options.max_connections = static_cast<std::size_t>(max_conns);
  options.tick_delay_ms = static_cast<std::uint32_t>(tick_delay);
  options.engine.cache_bytes = static_cast<std::size_t>(*cache_mb) << 20;
  if (options.unix_path.empty() && options.tcp_port < 0) {
    return fail("need at least one of --unix PATH / --tcp PORT");
  }
  if (options.tcp_port > 65535) return fail("--tcp port out of range");

  svc::Server server(std::move(options));
  std::string error;
  if (!server.start(&error)) return fail(error);

  if (!server.options().unix_path.empty()) {
    std::cout << "lrb_serve: listening on unix:" << server.options().unix_path
              << "\n";
  }
  if (server.tcp_port() >= 0) {
    std::cout << "lrb_serve: listening on tcp:" << server.options().tcp_bind
              << ":" << server.tcp_port() << "\n";
  }
  std::cout.flush();

  svc::install_signal_drain(&server);
  server.run();
  svc::install_signal_drain(nullptr);
  std::cout << "lrb_serve: drained cleanly\n";

  if (const auto path = flags.get("metrics-json")) {
    std::ofstream out(*path);
    if (!out) return fail("cannot write '" + *path + "'");
    out << server.options().metrics->to_json();
  }
  return 0;
}
