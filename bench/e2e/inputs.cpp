// Workload inputs (generated and encoded before any timing starts) and the
// deferred reference check run after the timed windows.

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>

#include "bench.h"
#include "cache/canonical.h"
#include "core/generators.h"
#include "engine/batch_solver.h"
#include "util/rng.h"

namespace lrb::bench {

namespace {

/// PTAS cost is heavy-tailed per instance (a few bimodal 512-job ones take
/// 100-500 ms, most take under 1 ms), so a seeded PTAS subset would swing a
/// workload's total cost and peak memory by +-30% from seed to seed. PTAS
/// requests therefore use the same instances for every seed. The send order
/// is the same for every seed too: which family, size tier and backend comes
/// when, and so which cheap Solves share a tick with a PTAS, otherwise moved
/// solve_heavy_tail goodput by 8% between seeds. The seed picks the best-of
/// instances and the relabelings.
constexpr std::uint64_t kShapeSeed = 1;

std::int64_t quarter_k(const Instance& instance) {
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(instance.num_jobs() / 4));
}

std::string solve_frame(const Instance& instance, solver::BackendId backend) {
  svc::SolveRequest request;
  request.spec = solver::SolverSpec(backend);  // PTAS: eps 1.0, no budget
  request.k = quarter_k(instance);
  request.instance = instance;
  std::string frame;
  svc::encode_frame(frame, svc::MsgType::kSolve, 0,
                    svc::encode_solve_request(request));
  return frame;
}

template <typename T>
void shuffle(std::vector<T>& values, Rng& rng) {
  for (std::size_t i = values.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(values[i - 1], values[j]);
  }
}

std::vector<std::uint32_t> shuffled_order(std::size_t n) {
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  Rng rng(kShapeSeed ^ 0x6f726465722d3031ULL);
  shuffle(order, rng);
  return order;
}

/// The same problem under a seeded relabeling of its jobs and processors.
Instance relabel(const Instance& in, Rng& rng) {
  std::vector<std::size_t> jobs(in.num_jobs());
  std::iota(jobs.begin(), jobs.end(), std::size_t{0});
  shuffle(jobs, rng);
  std::vector<ProcId> procs(in.num_procs);
  std::iota(procs.begin(), procs.end(), ProcId{0});
  shuffle(procs, rng);
  Instance out;
  out.num_procs = in.num_procs;
  for (const std::size_t j : jobs) {
    out.sizes.push_back(in.sizes[j]);
    out.move_costs.push_back(in.move_costs[j]);
    out.initial.push_back(procs[in.initial[j]]);
  }
  return out;
}

}  // namespace

SolvePool mixed_pool(std::uint64_t seed, std::size_t count,
                     std::size_t ptas_every) {
  SolvePool pool;
  pool.frames.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const bool ptas = ptas_every > 0 && i % ptas_every == 0;
    pool.frames.push_back(
        ptas ? solve_frame(mixed_corpus_instance(i, kShapeSeed),
                           solver::BackendId::kPtas)
             : solve_frame(mixed_corpus_instance(i, seed),
                           solver::BackendId::kBestOf));
  }
  pool.order = shuffled_order(count);
  return pool;
}

SolvePool relabeled_pool(std::uint64_t seed, std::size_t hot,
                         std::size_t relabelings,
                         std::vector<std::uint32_t>* warm) {
  SolvePool pool;
  pool.cached = true;
  Rng rng(seed ^ 0x72656c6162656c73ULL);
  for (std::size_t h = 0; h < hot; ++h) {
    const Instance base = mixed_corpus_instance(h, seed);
    const Instance ptas_base = mixed_corpus_instance(h, kShapeSeed);
    for (std::size_t r = 0; r < relabelings; ++r) {
      const bool ptas = r + 1 == relabelings;
      const auto index = static_cast<std::uint32_t>(pool.frames.size());
      if (r == 0 || ptas) warm->push_back(index);
      pool.frames.push_back(
          ptas ? solve_frame(relabel(ptas_base, rng), solver::BackendId::kPtas)
               : solve_frame(relabel(base, rng), solver::BackendId::kBestOf));
    }
  }
  pool.order = shuffled_order(pool.frames.size());
  return pool;
}

void SessionInput::frame(std::size_t i, std::string& out) const {
  out.assign(period_frames[i % period.size()]);
  patch_u64(out, 8, i + 1);                    // request id
  patch_u64(out, svc::kHeaderSize + 8, i + 1);  // first_seq
}

std::vector<stream::Delta> SessionInput::deltas(std::size_t n) const {
  std::vector<stream::Delta> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(period[i % period.size()]);
  return out;
}

SessionInput make_session(std::uint64_t seed, std::uint64_t session_id,
                          std::size_t period) {
  SessionInput input;
  input.session_id = session_id;
  GeneratorOptions options;
  options.num_jobs = 512;
  options.num_procs = 16;
  input.initial = random_instance(options, seed * 1000003 + session_id);
  input.trigger.spec = solver::SolverSpec(solver::BackendId::kBestOf);
  input.trigger.move_frac = 0.1;
  input.trigger.imbalance_ratio = 1.25;
  input.trigger.delta_count = 64;

  svc::SessionOpenRequest open;
  open.session_id = session_id;
  open.trigger = input.trigger;
  open.instance = input.initial;
  svc::encode_frame(input.open_frame, svc::MsgType::kSessionOpen, 0,
                    svc::encode_session_open_request(open));

  // Stationary churn over live jobs only, so no delta is ever rejected:
  // 40% auto-placed arrivals, 40% departures, 20% size updates. The walk's
  // undo (replayed backwards) restores the live set and every size, and
  // keeps the same mix, so the period can repeat.
  Rng rng(seed ^ (session_id * 0x9e3779b97f4a7c15ULL));
  std::vector<Size> size_of(input.initial.sizes);  // indexed by job id
  std::vector<std::uint64_t> live(input.initial.num_jobs());
  std::iota(live.begin(), live.end(), std::uint64_t{0});
  std::vector<stream::Delta> undo;
  const std::size_t half = std::max<std::size_t>(period / 2, 1);
  for (std::size_t i = 0; i < half; ++i) {
    stream::Delta delta, inverse;
    // Arrivals and departures share 80% of the draws; which one it is leans
    // toward the initial job count, so the cluster stays near its size
    // instead of random-walking (and every seed costs about the same).
    const double draw = rng.uniform01();
    const double lean =
        (static_cast<double>(input.initial.num_jobs()) -
         static_cast<double>(live.size())) / 64.0;
    const double arrive = 0.4 * std::clamp(1.0 + lean, 0.1, 1.9);
    if (draw < arrive || live.size() < 2) {
      delta.kind = stream::DeltaKind::kJobArrive;
      delta.id = size_of.size();
      delta.size = rng.uniform_int(options.min_size, options.max_size);
      delta.proc = stream::kAutoPlace;
      live.push_back(delta.id);
      size_of.push_back(delta.size);
      inverse.kind = stream::DeltaKind::kJobDepart;
    } else {
      const auto slot = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      delta.id = live[slot];
      if (draw < 0.8) {
        delta.kind = stream::DeltaKind::kJobDepart;
        live[slot] = live.back();
        live.pop_back();
        inverse.kind = stream::DeltaKind::kJobArrive;
        inverse.size = size_of[delta.id];
        inverse.proc = stream::kAutoPlace;
      } else {
        delta.kind = stream::DeltaKind::kJobUpdate;
        delta.size = rng.uniform_int(options.min_size, options.max_size);
        inverse.kind = stream::DeltaKind::kJobUpdate;
        inverse.size = size_of[delta.id];
        size_of[delta.id] = delta.size;
      }
    }
    inverse.id = delta.id;
    input.period.push_back(delta);
    undo.push_back(inverse);
  }
  input.period.insert(input.period.end(), undo.rbegin(), undo.rend());

  svc::SessionDeltaRequest request;
  request.session_id = session_id;
  for (const stream::Delta& delta : input.period) {
    request.deltas.assign(1, delta);
    std::string frame;
    svc::encode_frame(frame, svc::MsgType::kSessionDelta, 0,
                      svc::encode_session_delta_request(request));
    input.period_frames.push_back(std::move(frame));
  }
  return input;
}

std::uint64_t reply_digest(svc::MsgType type, std::string_view payload) {
  const cache::Fingerprint fp = cache::fingerprint(payload);
  return fp.hi ^ fp.lo ^
         (static_cast<std::uint64_t>(type) * 0x9e3779b97f4a7c15ULL);
}

std::uint64_t solve_reference_digest(const SolvePool& pool,
                                     std::uint32_t index) {
  const std::string_view frame = pool.frames[index];
  std::string error;
  const auto request =
      svc::decode_solve_request(frame.substr(svc::kHeaderSize), &error);
  if (!request) return 0;  // cannot happen: the frame was encoded above
  const RebalanceResult result =
      pool.cached ? engine::cached_serial_reference(request->spec,
                                                    request->instance,
                                                    request->k)
                  : engine::solve_serial_reference(request->spec,
                                                   request->instance,
                                                   request->k);
  return reply_digest(svc::MsgType::kSolveOk,
                      svc::encode_solve_reply_payload(result));
}

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (auto& thread : pool) thread.join();
}

}  // namespace lrb::bench
