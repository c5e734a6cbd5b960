// The traced layer replay: the workload's own payloads sent, single
// threaded, through each module's public functions in the order the server
// calls them, with a span around every call.

#include <cstring>
#include <fstream>
#include <unordered_map>

#include "bench.h"
#include "cache/canonical.h"
#include "cache/solution_cache.h"
#include "engine/batch_solver.h"
#include "obs/metrics.h"
#include "solver/registry.h"

namespace lrb::bench {

namespace {

std::int64_t ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// Worker count of the server's solver pool (lrb_serve --workers 2).
constexpr std::size_t kEngineWorkers = 2;

/// "solver.<backend>": span names must outlive the log, so they are kept
/// here once per backend.
const char* solver_span(solver::BackendId backend) {
  static std::map<solver::BackendId, std::string> names;
  auto [it, fresh] = names.try_emplace(backend);
  if (fresh) it->second = std::string("solver.") + solver::backend_name(backend);
  return it->second.c_str();
}

}  // namespace

// ---------------------------------------------------------------- SpanLog

void SpanLog::add(const char* name, std::uint64_t request,
                  Clock::time_point start, Clock::time_point end,
                  const char* parent) {
  spans_.push_back(Span{name, request, ns(start), ns(end), parent});
}

double SpanLog::mean_us(const char* name, bool self) const {
  std::unordered_map<std::uint64_t, std::int64_t> children_ns;
  if (self) {
    for (const Span& span : spans_) {
      if (std::strcmp(span.parent, name) == 0) {
        children_ns[span.request] += span.end_ns - span.start_ns;
      }
    }
  }
  double total = 0.0;
  std::size_t count = 0;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) != 0) continue;
    std::int64_t duration = span.end_ns - span.start_ns;
    if (self) {
      const auto it = children_ns.find(span.request);
      if (it != children_ns.end()) duration -= it->second;
    }
    total += static_cast<double>(duration);
    ++count;
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count) * 1e-3;
}

bool SpanLog::write_tsv(const std::string& path,
                        const std::string& workload) const {
  std::ofstream out(path, std::ios::app);
  if (!out) return false;
  for (const Span& span : spans_) {
    out << workload << '\t' << span.name << '\t' << span.request << '\t'
        << span.start_ns << '\t' << span.end_ns << '\t'
        << (*span.parent != '\0' ? span.parent : "-") << '\n';
  }
  return static_cast<bool>(out);
}

// ----------------------------------------------------------------- Solves

LayerMetrics replay_solves(const SolvePool& pool, std::size_t tick_size,
                           double budget_s, SpanLog& spans) {
  obs::Registry registry;  // keeps the replay out of any shared metrics
  engine::BatchOptions options;
  options.workers = kEngineWorkers;
  options.metrics = &registry;
  engine::BatchSolver engine(options);
  cache::CacheOptions cache_options;
  cache_options.metrics = &registry;
  cache::SolutionCache cache(cache_options);
  tick_size = std::max<std::size_t>(tick_size, 1);

  std::vector<double> item_ms, hol_ms;
  double tick_ms_total = 0.0;
  std::map<solver::BackendId, std::vector<double>> solver_us;
  std::string payload, frame;
  const auto started = Clock::now();
  std::size_t done = 0;
  while (done < pool.order.size() &&
         seconds_since(started, Clock::now()) < budget_s) {
    const std::size_t count = std::min(tick_size, pool.order.size() - done);
    std::vector<svc::SolveRequest> requests;
    for (std::size_t i = 0; i < count; ++i) {
      const std::string_view bytes = pool.frames[pool.order[done + i]];
      const auto t0 = Clock::now();
      svc::FrameHeader header;
      std::string error;
      const bool framed =
          svc::decode_header(bytes, &header) == svc::DecodeStatus::kOk;
      auto request =
          svc::decode_solve_request(bytes.substr(svc::kHeaderSize), &error);
      spans.add("wire.decode_solve", done + i, t0, Clock::now());
      if (!framed || !request) return {};
      requests.push_back(std::move(*request));
    }

    std::vector<engine::BatchSolver::TickItem> items;
    for (const auto& request : requests) {
      items.push_back({&request.instance, request.k, request.spec});
    }
    std::vector<double> latencies;
    const auto tick_start = Clock::now();
    const auto results = engine.solve_items(items, &latencies);
    const auto tick_end = Clock::now();
    spans.add("engine.solve_items", done, tick_start, tick_end);
    const double tick_ms =
        std::chrono::duration<double, std::milli>(tick_end - tick_start)
            .count();
    tick_ms_total += tick_ms;
    for (const double latency : latencies) {
      item_ms.push_back(latency);
      hol_ms.push_back(tick_ms - latency);
    }

    for (std::size_t i = 0; i < count; ++i) {
      const auto& request = requests[i];
      const auto t0 = Clock::now();
      const auto serial = solver::solve_serial(request.spec, request.instance,
                                               request.k);
      const auto t1 = Clock::now();
      spans.add(solver_span(request.spec.backend), done + i, t0, t1);
      solver_us[request.spec.backend].push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
      (void)serial;
    }

    for (std::size_t i = 0; i < count; ++i) {
      const auto& request = requests[i];
      const std::uint64_t id = done + i;
      const auto t0 = Clock::now();
      const cache::CanonicalInstance canon =
          cache::canonicalize(request.instance);
      const auto t1 = Clock::now();
      const std::string key =
          cache::encode_cache_key(canon.instance, request.spec, request.k);
      const cache::Fingerprint fp = cache::fingerprint(key);
      const auto t2 = Clock::now();
      spans.add("cache.canonicalize", id, t0, t1);
      spans.add("cache.key", id, t1, t2);
      // Seed the entry so the timed probe is a hit, as on solve_cached.
      RebalanceResult canonical = results[i];
      canonical.assignment =
          cache::map_assignment_to_canonical(canon, results[i].assignment);
      cache.insert(fp, key, canonical);
      const auto t3 = Clock::now();
      auto probe = cache.lookup_or_begin(
          fp, key, cache::SolutionCache::WaitMode::kNoBlock);
      const auto t4 = Clock::now();
      spans.add("cache.lookup", id, t3, t4);
      if (!probe.hit) {
        if (probe.leader) cache.cancel(fp, key);
        continue;
      }
      const RebalanceResult mapped = cache::map_to_original(canon, probe.result);
      spans.add("cache.map_back", id, t4, Clock::now());
      (void)mapped;
    }

    for (std::size_t i = 0; i < count; ++i) {
      const auto t0 = Clock::now();
      payload.clear();
      svc::encode_solve_reply_payload(results[i], payload);
      frame.clear();
      svc::encode_frame(frame, svc::MsgType::kSolveOk, done + i, payload);
      spans.add("wire.encode_reply", done + i, t0, Clock::now());
    }
    done += count;
  }

  LayerMetrics m;
  m["replay.solves"] = static_cast<double>(done);
  m["wire.decode_solve_us"] = spans.mean_us("wire.decode_solve");
  m["wire.encode_reply_us"] = spans.mean_us("wire.encode_reply");
  m["cache.canonicalize_us"] = spans.mean_us("cache.canonicalize");
  m["cache.key_us"] = spans.mean_us("cache.key");
  m["cache.lookup_us"] = spans.mean_us("cache.lookup");
  m["cache.map_back_us"] = spans.mean_us("cache.map_back");
  m["engine.tick_ms"] = spans.mean_us("engine.solve_items") * 1e-3;
  m["engine.item_us"] = mean(item_ms) * 1e3;
  m["engine.item_p99_us"] = percentile(item_ms, 0.99) * 1e3;
  double item_total = 0.0;
  for (const double v : item_ms) item_total += v;
  m["engine.parallel_eff"] =
      tick_ms_total > 0.0
          ? item_total / (tick_ms_total * static_cast<double>(kEngineWorkers))
          : 0.0;
  m["engine.hol_wait_ms"] = mean(hol_ms);
  for (const auto& [backend, samples] : solver_us) {
    const std::string name =
        std::string("solver.") + solver::backend_name(backend);
    if (backend == solver::BackendId::kPtas) {
      m[name + ".p50_ms"] = percentile(samples, 0.5) * 1e-3;
      m[name + ".p99_ms"] = percentile(samples, 0.99) * 1e-3;
    } else {
      m[name + ".p50_us"] = percentile(samples, 0.5);
      m[name + ".p99_us"] = percentile(samples, 0.99);
    }
  }
  return m;
}

// --------------------------------------------------------------- Sessions

LayerMetrics replay_session(const SessionInput& input, std::size_t max_deltas,
                            SpanLog& spans) {
  obs::Registry registry;
  engine::BatchOptions options;
  options.workers = kEngineWorkers;
  options.metrics = &registry;
  engine::BatchSolver engine(options);
  std::string error;
  auto session = stream::ClusterSession::open(input.initial, input.trigger,
                                              &error);
  if (!session) return {};

  std::uint64_t seq = 0;
  const stream::SolveFn hook = [&](const Instance& instance, std::int64_t k,
                                   const solver::SolverSpec& spec) {
    const auto t0 = Clock::now();
    auto result = engine.solve_item({&instance, k, spec});
    spans.add("stream.replan", seq, t0, Clock::now(), "stream.step");
    return result;
  };

  const std::size_t n = max_deltas;
  std::string bytes, frame;
  for (std::size_t i = 0; i < n; ++i) {
    input.frame(i, bytes);
    const auto t0 = Clock::now();
    svc::FrameHeader header;
    const bool framed =
        svc::decode_header(bytes, &header) == svc::DecodeStatus::kOk;
    auto request = svc::decode_session_delta_request(
        std::string_view(bytes).substr(svc::kHeaderSize), &error);
    const auto t1 = Clock::now();
    if (!framed || !request || request->deltas.size() != 1) return {};
    seq = request->first_seq;
    spans.add("wire.decode_delta", seq, t0, t1);

    stream::StepResult step = session->step(request->deltas[0], seq, hook);
    const auto t2 = Clock::now();
    spans.add("stream.step", seq, t1, t2);

    svc::SessionDeltaReply reply;
    reply.session_id = request->session_id;
    reply.last_seq = seq;
    reply.applied = step.applied ? 1 : 0;
    reply.rejected = step.applied ? 0 : 1;
    reply.first_error = std::move(step.error);
    reply.plans = std::move(step.plans);
    reply.makespan = session->makespan();
    reply.lower_bound = session->lower_bound();
    reply.state_digest = session->digest();
    const auto t3 = Clock::now();
    spans.add("stream.ack_state", seq, t2, t3);
    frame.clear();
    svc::encode_frame(frame, svc::session_reply_type(reply), seq,
                      svc::encode_session_delta_reply(reply));
    spans.add("wire.encode_session_reply", seq, t3, Clock::now());
  }

  LayerMetrics m;
  m["replay.deltas"] = static_cast<double>(n);
  m["wire.decode_delta_us"] = spans.mean_us("wire.decode_delta");
  m["wire.encode_session_reply_us"] =
      spans.mean_us("wire.encode_session_reply");
  m["stream.step_us"] = spans.mean_us("stream.step", /*self=*/true);
  m["stream.ack_state_us"] = spans.mean_us("stream.ack_state");
  m["stream.replan_ms"] = spans.mean_us("stream.replan") * 1e-3;
  return m;
}

}  // namespace lrb::bench
