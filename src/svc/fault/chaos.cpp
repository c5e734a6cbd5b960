#include "svc/fault/chaos.h"

#include <unistd.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/generators.h"
#include "engine/batch_solver.h"
#include "stream/delta_log.h"
#include "stream/trace.h"
#include "svc/server.h"
#include "svc/session_client.h"
#include "svc/wire.h"

namespace lrb::svc::fault {

namespace {

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/lrb_chaos_" + std::to_string(getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// One in-process lrb server behind a fault injector, run() on its own
/// thread. drain() is the graceful kill (what SIGTERM does to lrb_serve).
class ServerRunner {
 public:
  ServerRunner(const std::string& path, const FaultPlan& plan,
               const CampaignOptions& options, obs::Registry* registry)
      : injector_(plan, registry) {
    ServerOptions server_options;
    server_options.unix_path = path;
    server_options.metrics = registry;
    server_options.io = &injector_;
    server_options.engine.workers = options.engine_workers;
    server_options.reactors = options.reactors;
    server_options.engine_workers = options.tick_workers;
    server_options.engine.cache_bytes = options.cache_bytes;
    server_ = std::make_unique<Server>(std::move(server_options));
    std::string error;
    started_ = server_->start(&error);
    error_ = error;
    if (started_) runner_ = std::thread([this] { server_->run(); });
  }

  ~ServerRunner() { drain(); }

  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] FaultStats faults() const { return injector_.stats(); }

  void drain() {
    if (runner_.joinable()) {
      server_->notify_signal();
      runner_.join();
    }
  }

 private:
  FaultInjector injector_;
  std::unique_ptr<Server> server_;
  std::thread runner_;
  bool started_ = false;
  std::string error_;
};

struct RequestSpec {
  std::uint64_t id = 0;
  SolveRequest request;
};

RequestSpec make_request(const CampaignOptions& options, std::size_t client,
                         std::size_t index) {
  RequestSpec spec;
  spec.id = static_cast<std::uint64_t>(client) * 1'000'000 + index + 1;
  spec.request.spec = options.solver;
  spec.request.instance = mixed_corpus_instance(
      client * 1000003 + index, options.seed);
  spec.request.k = std::max<std::int64_t>(
      1,
      static_cast<std::int64_t>(spec.request.instance.num_jobs()) / 4);
  return spec;
}

/// Shared, mutex-guarded campaign ledger: one entry per request id, so
/// lost (missing) and duplicated (double-recorded) outcomes are caught no
/// matter how the client threads interleave.
class Ledger {
 public:
  void record(std::uint64_t id, std::string what) {
    std::lock_guard lock(mutex_);
    const auto [it, inserted] = outcomes_.emplace(id, std::move(what));
    if (!inserted) {
      errors_.push_back("request " + std::to_string(id) +
                        ": duplicate outcome (" + it->second + ")");
    }
  }

  void error(std::string what) {
    std::lock_guard lock(mutex_);
    errors_.push_back(std::move(what));
  }

  [[nodiscard]] std::size_t outcomes() const {
    std::lock_guard lock(mutex_);
    return outcomes_.size();
  }

  [[nodiscard]] std::vector<std::string> take_errors() {
    std::lock_guard lock(mutex_);
    return std::move(errors_);
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::string> outcomes_;
  std::vector<std::string> errors_;
};

void run_client_phase(const CampaignOptions& options, std::size_t client,
                      std::size_t begin, std::size_t end,
                      ResilientClient& resilient, Ledger& ledger,
                      std::atomic<std::size_t>& completed) {
  for (std::size_t i = begin; i < end; ++i) {
    const RequestSpec spec = make_request(options, client, i);
    std::string error;
    const auto outcome = resilient.solve(spec.request, spec.id, &error);
    if (!outcome) {
      ledger.record(spec.id, "gave up");
      ledger.error("request " + std::to_string(spec.id) + ": " + error);
      continue;
    }
    if (outcome->server_error) {
      // The campaign never sends deadlines or malformed payloads, so any
      // definitive server error is a resilience bug, not backpressure.
      ledger.record(spec.id, "server error");
      ledger.error("request " + std::to_string(spec.id) +
                   ": unexpected definitive error " +
                   error_code_name(outcome->server_error->code) + ": " +
                   outcome->server_error->text);
      continue;
    }
    ledger.record(spec.id, "ok");
    completed.fetch_add(1, std::memory_order_relaxed);
    if (options.check) {
      // With the cache on, every reply — cold solve or warm hit, before or
      // after a restart — must match the canonical-solve reference.
      const auto reference =
          options.cache_bytes > 0
              ? engine::cached_serial_reference(
                    spec.request.spec, spec.request.instance, spec.request.k)
              : engine::solve_serial_reference(
                    spec.request.spec, spec.request.instance, spec.request.k);
      if (outcome->raw_payload != encode_solve_reply_payload(reference)) {
        ledger.error("request " + std::to_string(spec.id) +
                     ": reply differs from serial reference");
      }
    }
  }
}

/// One seeded session workload: a mixed-corpus initial cluster plus a
/// random arrival/departure trace folded into a delta log
/// (stream::delta_log_from_trace), with triggers tight enough that most
/// campaigns fire several replans while faults are flying.
stream::DeltaLog make_session_log(const CampaignOptions& options,
                                  std::size_t session) {
  stream::TriggerConfig trigger;
  trigger.spec = options.solver;
  trigger.move_frac = 0.25;
  trigger.imbalance_ratio = 1.5;
  trigger.delta_count = 16;
  stream::TraceOptions trace_options;
  trace_options.num_events = options.deltas_per_session;
  trace_options.departure_fraction = 0.4;
  const auto events = stream::random_trace(
      trace_options, campaign_seed(options.seed, 0x200 + session));
  return stream::delta_log_from_trace(
      mixed_corpus_instance(session, options.seed), events, trigger);
}

/// Streaming-session campaign: N concurrent sessions, each a
/// run_session_stream thread behind its own fault injector, every ack
/// byte-compared against the serial replay mirror. The stats byte-compare at
/// the end of each session is the per-session delta ledger; on top of that
/// the server-side stream.deltas_* totals must equal the sum of the
/// mirrors' — if an injected reset ever made the server re-apply a resent
/// frame (instead of dedup-resending the stored ack), the totals diverge.
CampaignResult run_stream_campaign(const CampaignOptions& options) {
  CampaignResult result;
  result.requests = options.stream_sessions;
  std::uint64_t sx = options.seed ^ 0x5e12e20b5ebULL;  // server-side stream
  std::uint64_t cx = options.seed ^ 0xc11e7a05eedULL;  // client-side stream
  result.server_plan = FaultPlan::from_seed(splitmix64(sx));
  result.client_plan = FaultPlan::from_seed(splitmix64(cx));

  const std::string path = unique_socket_path();
  obs::Registry server_registry;
  obs::Registry client_registry;

  // restart_server is deliberately not honored here: sessions are server
  // state, so a cold restart is session loss by design, not a fault to
  // ride across.
  ServerRunner server(path, result.server_plan, options, &server_registry);
  if (!server.started()) {
    result.errors.push_back("server start failed: " + server.error());
    return result;
  }

  std::vector<std::unique_ptr<FaultInjector>> injectors;
  for (std::size_t s = 0; s < options.stream_sessions; ++s) {
    FaultPlan plan = result.client_plan;
    plan.seed = campaign_seed(result.client_plan.seed, s + 1);
    injectors.push_back(
        std::make_unique<FaultInjector>(plan, &client_registry));
  }

  std::vector<StreamRunResult> runs(options.stream_sessions);
  std::vector<std::thread> threads;
  threads.reserve(options.stream_sessions);
  for (std::size_t s = 0; s < options.stream_sessions; ++s) {
    threads.emplace_back([&, s] {
      const stream::DeltaLog log = make_session_log(options, s);
      StreamRunOptions run;
      run.endpoint = Endpoint::unix_socket(path);
      run.retry = options.retry;
      run.retry.jitter_seed = campaign_seed(options.seed, 0x100 + s);
      run.session_id = s + 1;
      run.frame_size = 6;
      run.check = options.check;
      run.cached = options.cache_bytes > 0;
      run.metrics = &client_registry;
      run.io = injectors[s].get();
      runs[s] = run_session_stream(log, run);
    });
  }
  for (auto& t : threads) t.join();

  server.drain();
  result.server_faults = server.faults();
  unlink(path.c_str());

  std::uint64_t mirror_deltas = 0;
  for (std::size_t s = 0; s < runs.size(); ++s) {
    const auto& run = runs[s];
    if (run.ok) {
      ++result.completed;
    } else {
      result.errors.push_back("session " + std::to_string(s + 1) + ": " +
                              run.error);
    }
    mirror_deltas += run.deltas_applied + run.deltas_rejected;
  }
  const std::uint64_t server_deltas =
      server_registry.counter("stream.deltas_applied").value() +
      server_registry.counter("stream.deltas_rejected").value();
  if (result.completed == result.requests && server_deltas != mirror_deltas) {
    result.errors.push_back(
        "delta ledger mismatch: server processed " +
        std::to_string(server_deltas) + " deltas, mirrors saw " +
        std::to_string(mirror_deltas) +
        " (a retried frame was lost or re-applied)");
  }

  result.retries = client_registry.counter("client.retries").value();
  result.reconnects = client_registry.counter("client.reconnects").value();
  result.server_solves =
      server_registry.counter("stream.plans_emitted").value();
  result.client_faults.total =
      client_registry.counter("svc.faults_injected").value();
  result.client_faults.short_reads =
      client_registry.counter("fault.short_read").value();
  result.client_faults.eintrs =
      client_registry.counter("fault.eintr").value();
  result.client_faults.partial_writes =
      client_registry.counter("fault.partial_write").value();
  result.client_faults.conn_resets =
      client_registry.counter("fault.conn_reset").value();
  result.client_faults.abrupt_closes =
      client_registry.counter("fault.abrupt_close").value();
  result.client_faults.corruptions =
      client_registry.counter("fault.corrupt").value();
  result.ok = result.errors.empty();
  return result;
}

}  // namespace

std::uint64_t campaign_seed(std::uint64_t base_seed, std::uint64_t index) {
  std::uint64_t x = base_seed + 0x9e3779b97f4a7c15ULL * index;
  return splitmix64(x);
}

std::string CampaignResult::summary() const {
  std::ostringstream out;
  out << "seed=0x" << std::hex << server_plan.seed << std::dec
      << (ok ? " ok" : " FAIL") << ": " << completed << '/' << requests
      << " completed, " << retries << " retries, " << reconnects
      << " reconnects, " << server_faults.total << '+'
      << client_faults.total << " faults";
  if (!errors.empty()) out << ", " << errors.size() << " errors";
  return out.str();
}

CampaignResult run_campaign(const CampaignOptions& options) {
  if (options.stream_sessions > 0) return run_stream_campaign(options);
  CampaignResult result;
  result.requests = options.clients * options.requests_per_client;
  // Independent plans for the two sides of the wire, both derived from
  // the campaign seed alone.
  std::uint64_t sx = options.seed ^ 0x5e12e20b5ebULL;  // server-side stream
  std::uint64_t cx = options.seed ^ 0xc11e7a05eedULL;  // client-side stream
  result.server_plan = FaultPlan::from_seed(splitmix64(sx));
  result.client_plan = FaultPlan::from_seed(splitmix64(cx));

  const std::string path = unique_socket_path();
  obs::Registry server_registry;
  obs::Registry client_registry;
  Ledger ledger;
  std::atomic<std::size_t> completed{0};

  auto server = std::make_unique<ServerRunner>(path, result.server_plan,
                                               options, &server_registry);
  if (!server->started()) {
    result.errors.push_back("server start failed: " + server->error());
    return result;
  }

  // Each client gets its own injector (independent per-connection decision
  // streams) but they all share the client registry, so fault counters
  // aggregate across the campaign.
  std::vector<std::unique_ptr<FaultInjector>> client_injectors;
  std::vector<std::unique_ptr<ResilientClient>> clients;
  for (std::size_t c = 0; c < options.clients; ++c) {
    FaultPlan plan = result.client_plan;
    plan.seed = campaign_seed(result.client_plan.seed, c + 1);
    client_injectors.push_back(
        std::make_unique<FaultInjector>(plan, &client_registry));
    RetryPolicy policy = options.retry;
    policy.jitter_seed = campaign_seed(options.seed, 0x100 + c);
    clients.push_back(std::make_unique<ResilientClient>(
        Endpoint::unix_socket(path), policy, &client_registry,
        client_injectors.back().get()));
  }

  const auto run_phase = [&](std::size_t begin, std::size_t end) {
    std::vector<std::thread> threads;
    threads.reserve(options.clients);
    for (std::size_t c = 0; c < options.clients; ++c) {
      threads.emplace_back([&, c] {
        run_client_phase(options, c, begin, end, *clients[c], ledger,
                         completed);
      });
    }
    for (auto& t : threads) t.join();
  };

  if (options.restart_server && options.requests_per_client >= 2) {
    const std::size_t half = options.requests_per_client / 2;
    run_phase(0, half);
    // Graceful kill + cold restart on the same socket: the clients'
    // cached connections are now dead and must reconnect.
    server = nullptr;
    server = std::make_unique<ServerRunner>(path, result.server_plan,
                                            options, &server_registry);
    if (!server->started()) {
      result.errors.push_back("server restart failed: " + server->error());
      return result;
    }
    run_phase(half, options.requests_per_client);
  } else {
    run_phase(0, options.requests_per_client);
  }

  server->drain();
  // Injector counters live in the shared server registry, so this is
  // cumulative across a mid-campaign restart.
  result.server_faults = server->faults();
  server = nullptr;
  unlink(path.c_str());

  result.completed = completed.load();
  result.retries = client_registry.counter("client.retries").value();
  result.reconnects = client_registry.counter("client.reconnects").value();
  result.server_solves =
      server_registry.counter("svc.replies_solve_ok").value();
  result.client_faults.total =
      client_registry.counter("svc.faults_injected").value();
  result.client_faults.short_reads =
      client_registry.counter("fault.short_read").value();
  result.client_faults.eintrs =
      client_registry.counter("fault.eintr").value();
  result.client_faults.partial_writes =
      client_registry.counter("fault.partial_write").value();
  result.client_faults.conn_resets =
      client_registry.counter("fault.conn_reset").value();
  result.client_faults.abrupt_closes =
      client_registry.counter("fault.abrupt_close").value();
  result.client_faults.corruptions =
      client_registry.counter("fault.corrupt").value();

  result.errors = ledger.take_errors();
  if (ledger.outcomes() != result.requests) {
    result.errors.push_back(
        "lost requests: " + std::to_string(ledger.outcomes()) + " of " +
        std::to_string(result.requests) + " outcomes recorded");
  }
  if (result.completed != result.requests && result.errors.empty()) {
    result.errors.push_back("only " + std::to_string(result.completed) +
                            " of " + std::to_string(result.requests) +
                            " requests completed");
  }
  // The server may legitimately have solved MORE than the clients saw
  // (a reply can be lost to an injected reset and the retry re-solved),
  // but never fewer.
  if (result.server_solves < result.completed) {
    result.errors.push_back(
        "server answered fewer solves (" +
        std::to_string(result.server_solves) + ") than clients completed (" +
        std::to_string(result.completed) + ")");
  }
  result.ok = result.errors.empty();
  return result;
}

}  // namespace lrb::svc::fault
