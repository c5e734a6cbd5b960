#include "algo/ptas.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "core/lower_bounds.h"

namespace lrb {
namespace {

/// Layer indices are uint32 (FlatIndexTable payloads), so the effective
/// state cap leaves headroom below the kEmpty sentinel.
constexpr std::size_t kMaxStates = FlatIndexTable::kEmpty - 2;

/// The discretization of one guess. `class_size` lives in the scratch so
/// repeat guesses reuse its storage.
struct Disc {
  Size guess = 0;
  double delta = 0.0;
  Size u = 1;  ///< small-load rounding unit
  Size w = 0;  ///< per-processor DP load cap, floor((1+2delta)*A)
  const std::vector<Size>* class_size = nullptr;

  /// Class of a job size, or -1 when small (size <= delta * guess), or -2
  /// when larger than the guess itself. The class ceilings are sorted
  /// ascending, so the first class that fits is found by binary search.
  [[nodiscard]] int class_of(Size size) const {
    if (static_cast<double>(size) <= delta * static_cast<double>(guess)) {
      return -1;
    }
    const auto it =
        std::lower_bound(class_size->begin(), class_size->end(), size);
    if (it == class_size->end()) return -2;
    return static_cast<int>(it - class_size->begin());
  }
};

Disc make_disc(Size guess, double delta, std::vector<Size>& class_size) {
  Disc d;
  d.guess = guess;
  d.delta = delta;
  d.u = std::max<Size>(1, static_cast<Size>(std::floor(
                              delta * static_cast<double>(guess))));
  d.w = static_cast<Size>(
      std::floor((1.0 + 2.0 * delta) * static_cast<double>(guess)));
  class_size.clear();
  double boundary = delta * static_cast<double>(guess);
  while (boundary < static_cast<double>(guess)) {
    boundary *= (1.0 + delta);
    class_size.push_back(
        std::min<Size>(guess, static_cast<Size>(std::ceil(boundary))));
  }
  d.class_size = &class_size;
  return d;
}

/// Cost of evicting processor p's small jobs (ascending cost/size ratio)
/// until the remaining small load is <= cap; also reports how many jobs go.
std::pair<Cost, std::size_t> small_trim(const PtasScratch& s, ProcId p,
                                        Size cap) {
  const Size need = s.small_total[p] - cap;
  if (need <= 0) return {0, 0};
  const auto begin = s.small_size_prefix.begin() +
                     static_cast<std::ptrdiff_t>(s.small_off[p]);
  const auto end = s.small_size_prefix.begin() +
                   static_cast<std::ptrdiff_t>(s.small_off[p + 1]);
  const auto it = std::lower_bound(begin, end, need);
  assert(it != end);
  const auto r = static_cast<std::size_t>(it - begin) + 1;
  return {s.small_cost_prefix[s.small_off[p] + r - 1], r};
}

/// Evaluates the configuration DP at one guess. All working memory lives in
/// `scratch`; with `want_assignment` false nothing is heap-allocated within
/// warmed bounds. Iteration over a layer is in state insertion order and
/// ties relax by strict cost improvement - the determinism contract shared
/// with check/ptas_reference (see ptas.h).
PtasGuessOutcome run_guess(const Instance& instance, Size guess, double delta,
                           Cost budget, std::size_t state_limit,
                           PtasScratch& sc, bool want_assignment) {
  PtasGuessOutcome out;
  const Disc d = make_disc(guess, delta, sc.class_size);
  const ProcId m = instance.num_procs;
  const std::size_t n = instance.num_jobs();
  const std::size_t s = sc.class_size.size();
  const std::size_t eff_limit = std::min(state_limit, kMaxStates);

  // ---- Classify jobs; bail out if any job exceeds the guess entirely. ----
  sc.job_class.resize(n);
  sc.totals.assign(s, 0);
  sc.small_total.assign(m, 0);
  sc.proc_count.assign(static_cast<std::size_t>(m) * s, 0);
  sc.small_off.assign(m + 1, 0);
  Size small_total_all = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const int t = d.class_of(instance.sizes[j]);
    if (t == -2) return out;  // guess < max job: certainly below OPT
    sc.job_class[j] = t;
    const auto p = instance.initial[j];
    if (t >= 0) {
      ++sc.totals[static_cast<std::size_t>(t)];
      ++sc.proc_count[static_cast<std::size_t>(p) * s +
                      static_cast<std::size_t>(t)];
    } else {
      sc.small_total[p] += instance.sizes[j];
      small_total_all += instance.sizes[j];
      ++sc.small_off[p + 1];
    }
  }
  const std::int64_t v_need = (small_total_all + d.u - 1) / d.u;

  // ---- Per-processor flattened removal bookkeeping. ----
  const std::size_t segs = static_cast<std::size_t>(m) * s;
  sc.class_off.resize(segs + 1);
  sc.class_off[0] = 0;
  for (std::size_t i = 0; i < segs; ++i) {
    sc.class_off[i + 1] =
        sc.class_off[i] + static_cast<std::size_t>(sc.proc_count[i]);
  }
  for (ProcId p = 0; p < m; ++p) sc.small_off[p + 1] += sc.small_off[p];
  const std::size_t num_large = sc.class_off[segs];
  const std::size_t num_small = sc.small_off[m];
  sc.class_jobs.resize(num_large);
  sc.smalls.resize(num_small);
  sc.cursor.assign(sc.class_off.begin(), sc.class_off.end() - 1);
  {
    // Second pass places ids in (proc, class) segments; small segments are
    // filled through small_off copies kept in the tail of `cursor`.
    sc.cursor.insert(sc.cursor.end(), sc.small_off.begin(),
                     sc.small_off.end() - 1);
    std::size_t* class_cursor = sc.cursor.data();
    std::size_t* small_cursor = sc.cursor.data() + segs;
    for (std::size_t j = 0; j < n; ++j) {
      const int t = sc.job_class[j];
      const auto p = static_cast<std::size_t>(instance.initial[j]);
      if (t >= 0) {
        sc.class_jobs[class_cursor[p * s + static_cast<std::size_t>(t)]++] =
            static_cast<JobId>(j);
      } else {
        sc.smalls[small_cursor[p]++] = static_cast<JobId>(j);
      }
    }
  }
  // Per class: this processor's class-t job ids sorted by ascending cost,
  // plus cost prefix sums (prefix[r] = cost of evicting the r cheapest).
  sc.prefix_off.resize(segs + 1);
  sc.class_prefix.resize(num_large + segs + 1);
  for (std::size_t seg = 0; seg < segs; ++seg) {
    const auto begin = sc.class_jobs.begin() +
                       static_cast<std::ptrdiff_t>(sc.class_off[seg]);
    const auto end = sc.class_jobs.begin() +
                     static_cast<std::ptrdiff_t>(sc.class_off[seg + 1]);
    std::sort(begin, end, [&](JobId a, JobId b) {
      if (instance.move_costs[a] != instance.move_costs[b]) {
        return instance.move_costs[a] < instance.move_costs[b];
      }
      return a < b;
    });
    sc.prefix_off[seg] = sc.class_off[seg] + seg;
    Cost acc = 0;
    sc.class_prefix[sc.prefix_off[seg]] = 0;
    std::size_t r = 1;
    for (auto it = begin; it != end; ++it, ++r) {
      acc += instance.move_costs[*it];
      sc.class_prefix[sc.prefix_off[seg] + r] = acc;
    }
  }
  sc.prefix_off[segs] = num_large + segs;
  // Small jobs sorted by ascending cost/size ratio with size/cost prefixes.
  sc.small_size_prefix.resize(num_small);
  sc.small_cost_prefix.resize(num_small);
  for (ProcId p = 0; p < m; ++p) {
    const auto begin =
        sc.smalls.begin() + static_cast<std::ptrdiff_t>(sc.small_off[p]);
    const auto end =
        sc.smalls.begin() + static_cast<std::ptrdiff_t>(sc.small_off[p + 1]);
    std::sort(begin, end, [&](JobId a, JobId b) {
      // ascending cost/size; zero-size jobs last (never worth evicting).
      const Size sa = instance.sizes[a], sb = instance.sizes[b];
      const Cost ca = instance.move_costs[a], cb = instance.move_costs[b];
      if ((sa == 0) != (sb == 0)) return sb == 0;
      const double ra = sa == 0 ? 0.0
                                : static_cast<double>(ca) /
                                      static_cast<double>(sa);
      const double rb = sb == 0 ? 0.0
                                : static_cast<double>(cb) /
                                      static_cast<double>(sb);
      if (ra != rb) return ra < rb;
      return a < b;
    });
    Size acc_size = 0;
    Cost acc_cost = 0;
    for (std::size_t i = sc.small_off[p]; i < sc.small_off[p + 1]; ++i) {
      acc_size += instance.sizes[sc.smalls[i]];
      acc_cost += instance.move_costs[sc.smalls[i]];
      sc.small_size_prefix[i] = acc_size;
      sc.small_cost_prefix[i] = acc_cost;
    }
  }

  // ---- Forward sparse DP over processors. ----
  // State key = (remaining class counts, remaining small cover need) packed
  // into codec.words() words; nodes are (cost, parent index) in per-layer
  // arenas; a flat table indexes each layer by key.
  sc.maxima.assign(sc.totals.begin(), sc.totals.end());
  sc.maxima.push_back(v_need);
  sc.codec.plan(sc.maxima);
  const std::size_t kw = sc.codec.words();
  sc.key_words.resize(kw);
  sc.rem.resize(s + 1);
  sc.next_vals.resize(s + 1);
  sc.tail_min.resize(s + 1);
  if (sc.layers.size() < static_cast<std::size_t>(m) + 1) {
    sc.layers.resize(static_cast<std::size_t>(m) + 1);
  }
  {
    auto& root = sc.layers[0];
    root.keys.resize(kw);
    sc.codec.encode(sc.maxima, root.keys.data());  // totals + v_need
    root.cost.assign(1, 0);
    root.parent.assign(1, FlatIndexTable::kEmpty);
  }
  std::size_t total_states = 1;

  for (ProcId p = 0; p < m; ++p) {
    auto& src = sc.layers[p];
    auto& dst = sc.layers[p + 1];
    dst.keys.clear();
    dst.cost.clear();
    dst.parent.clear();
    dst.table.reset(src.cost.size());
    const std::int64_t* have =
        sc.proc_count.data() + static_cast<std::size_t>(p) * s;
    const Cost* prefix = sc.class_prefix.data();
    const std::size_t* poff = sc.prefix_off.data() +
                              static_cast<std::size_t>(p) * s;
    const Size* L = sc.class_size.data();
    // Optimistic lower bound on this processor's small-trim cost: the trim
    // at the maximal possible capacity (load 0). Constant per processor.
    const Cost small_lb = small_trim(sc, p, (d.w / d.u) * d.u + d.u).first;

    const auto key_equals = [&](std::uint32_t i) {
      return std::memcmp(dst.keys.data() + static_cast<std::size_t>(i) * kw,
                         sc.key_words.data(), kw * sizeof(std::uint64_t)) == 0;
    };
    const auto key_hash = [&](std::uint32_t i) {
      return hash_words(dst.keys.data() + static_cast<std::size_t>(i) * kw,
                        kw);
    };

    for (std::uint32_t si = 0; si < src.cost.size(); ++si) {
      // Decode the state: rem[0..s) class counts, rem[s] = small need.
      sc.codec.decode(src.keys.data() + static_cast<std::size_t>(si) * kw,
                      sc.rem);
      const std::int64_t need = sc.rem[s];
      const Cost node_cost = src.cost[si];

      // Branch-and-bound suffix bound: cheapest possible eviction cost for
      // classes t.. assuming each alone gets the full cap W. Any completion
      // of a partial vector costs at least partial + tail_min[t] + small_lb,
      // so branches over budget prune exactly the transitions the unpruned
      // DP would reject at emit - state counts cannot change.
      sc.tail_min[s] = 0;
      for (std::size_t t = s; t-- > 0;) {
        const std::int64_t cap_cnt =
            std::min<std::int64_t>(sc.rem[t], d.w / L[t]);
        const Cost lb =
            have[t] > cap_cnt
                ? prefix[poff[t] + static_cast<std::size_t>(have[t] - cap_cnt)]
                : 0;
        sc.tail_min[t] = sc.tail_min[t + 1] + lb;
      }

      const auto emit = [&](Size load_used, Cost partial) {
        const Size vmax = (d.w - load_used) / d.u;
        const Cost cost = partial + small_trim(sc, p, vmax * d.u + d.u).first;
        if (cost >= kInfCost || cost > budget) return;
        sc.next_vals[s] = std::max<std::int64_t>(0, need - vmax);
        sc.codec.encode(sc.next_vals, sc.key_words.data());
        const std::uint64_t h = hash_words(sc.key_words.data(), kw);
        const auto fresh = static_cast<std::uint32_t>(dst.cost.size());
        const auto [idx, inserted] =
            dst.table.find_or_insert(h, fresh, key_equals, key_hash);
        if (inserted) {
          dst.keys.insert(dst.keys.end(), sc.key_words.begin(),
                          sc.key_words.end());
          dst.cost.push_back(cost);
          dst.parent.push_back(si);
          ++total_states;
        } else if (cost < dst.cost[idx]) {
          dst.cost[idx] = cost;
          dst.parent[idx] = si;
        }
      };
      // Enumerate x' vectors with x'_t <= rem_t and sum x'_t L_t <= W,
      // depth-first in ascending count order (the shared enumeration order).
      const auto enumerate = [&](auto&& self, std::size_t t, Size load_used,
                                 Cost partial) -> void {
        if (total_states > eff_limit) return;
        if (t == s) {
          emit(load_used, partial);
          return;
        }
        if (partial + sc.tail_min[t] + small_lb > budget) return;  // B&B cut
        for (std::int64_t cnt = 0;; ++cnt) {
          if (cnt > sc.rem[t]) break;
          const Size load = load_used + static_cast<Size>(cnt) * L[t];
          if (load > d.w) break;
          sc.next_vals[t] = sc.rem[t] - cnt;
          const Cost evict =
              have[t] > cnt
                  ? prefix[poff[t] + static_cast<std::size_t>(have[t] - cnt)]
                  : 0;
          self(self, t + 1, load, partial + evict);
        }
      };
      enumerate(enumerate, 0, 0, node_cost);
      if (total_states > eff_limit) {
        out.within_limit = false;
        out.states = total_states;
        return out;
      }
    }
  }
  out.states = total_states;

  // ---- Accept iff the all-consumed state was reached within budget. ----
  std::uint32_t final_idx;
  {
    std::fill(sc.next_vals.begin(), sc.next_vals.end(), 0);
    sc.codec.encode(sc.next_vals, sc.key_words.data());
    const auto& last = sc.layers[m];
    final_idx = last.table.find(
        hash_words(sc.key_words.data(), kw), [&](std::uint32_t i) {
          return std::memcmp(
                     last.keys.data() + static_cast<std::size_t>(i) * kw,
                     sc.key_words.data(), kw * sizeof(std::uint64_t)) == 0;
        });
  }
  if (final_idx == FlatIndexTable::kEmpty) return out;
  out.representable = true;
  out.cost = sc.layers[m].cost[final_idx];
  if (out.cost > budget) return out;
  if (!want_assignment) {
    out.constructed = true;  // the caller asked only for the decision
    return out;
  }

  // ---- Reconstruct the assignment. ----
  // Walk parent indices backward; each processor's choice vector is the
  // difference of adjacent state keys, and its granted small capacity
  // follows from the choice's load.
  std::vector<std::uint32_t> chain(static_cast<std::size_t>(m) + 1);
  chain[m] = final_idx;
  for (ProcId p = m; p-- > 0;) {
    chain[p] = sc.layers[p + 1].parent[chain[p + 1]];
  }
  std::vector<std::int64_t> state_a(s + 1);
  std::vector<std::int64_t> state_b(s + 1);
  std::vector<std::vector<std::int64_t>> choice(m);
  std::vector<Size> vmax(m, 0);
  for (ProcId p = 0; p < m; ++p) {
    sc.codec.decode(
        sc.layers[p].keys.data() + static_cast<std::size_t>(chain[p]) * kw,
        state_a);
    sc.codec.decode(sc.layers[p + 1].keys.data() +
                        static_cast<std::size_t>(chain[p + 1]) * kw,
                    state_b);
    choice[p].resize(s);
    Size load_used = 0;
    for (std::size_t t = 0; t < s; ++t) {
      choice[p][t] = state_a[t] - state_b[t];
      assert(choice[p][t] >= 0);
      load_used += static_cast<Size>(choice[p][t]) * sc.class_size[t];
    }
    vmax[p] = (d.w - load_used) / d.u;
  }

  Assignment assignment = instance.initial;
  std::vector<std::vector<JobId>> evicted_by_class(s);
  std::vector<JobId> evicted_smalls;
  std::vector<Size> small_load(m, 0);
  // Phase 1: evictions per the DP plan.
  for (ProcId p = 0; p < m; ++p) {
    for (std::size_t t = 0; t < s; ++t) {
      const std::size_t seg = static_cast<std::size_t>(p) * s + t;
      const auto surplus = sc.proc_count[seg] - choice[p][t];
      for (std::int64_t i = 0; i < surplus; ++i) {
        evicted_by_class[t].push_back(
            sc.class_jobs[sc.class_off[seg] + static_cast<std::size_t>(i)]);
      }
    }
    const auto [trim_cost, trim_count] =
        small_trim(sc, p, vmax[p] * d.u + d.u);
    (void)trim_cost;
    for (std::size_t i = 0; i < trim_count; ++i) {
      evicted_smalls.push_back(sc.smalls[sc.small_off[p] + i]);
    }
    small_load[p] =
        sc.small_total[p] -
        (trim_count == 0
             ? 0
             : sc.small_size_prefix[sc.small_off[p] + trim_count - 1]);
  }
  // Phase 2: fill large-class deficits from the per-class pools.
  std::vector<std::size_t> pool_next(s, 0);
  for (ProcId p = 0; p < m; ++p) {
    for (std::size_t t = 0; t < s; ++t) {
      const std::size_t seg = static_cast<std::size_t>(p) * s + t;
      const auto deficit = choice[p][t] - sc.proc_count[seg];
      for (std::int64_t i = 0; i < deficit; ++i) {
        assert(pool_next[t] < evicted_by_class[t].size());
        assignment[evicted_by_class[t][pool_next[t]++]] = p;
      }
    }
  }
  for (std::size_t t = 0; t < s; ++t) {
    assert(pool_next[t] == evicted_by_class[t].size());
  }
  // Phase 3: evicted smalls go to any processor below its granted small
  // capacity vmax*u (one always exists; see header).
  std::sort(evicted_smalls.begin(), evicted_smalls.end(),
            [&](JobId a, JobId b) {
              if (instance.sizes[a] != instance.sizes[b]) {
                return instance.sizes[a] > instance.sizes[b];
              }
              return a < b;
            });
  for (JobId j : evicted_smalls) {
    if (instance.sizes[j] == 0) {
      assignment[j] = instance.initial[j];  // zero-size: place back, free
      continue;
    }
    bool placed = false;
    for (ProcId p = 0; p < m; ++p) {
      if (small_load[p] < vmax[p] * d.u) {
        small_load[p] += instance.sizes[j];
        assignment[j] = p;
        placed = true;
        break;
      }
    }
    assert(placed);
    if (!placed) return out;  // defensive; cannot happen per the invariant
  }
  out.assignment = std::move(assignment);
  out.constructed = true;
  return out;
}

}  // namespace

double ptas_delta(double eps) {
  // delta chosen so that (1 + 3*delta) * (1 + delta) <= 1 + eps, i.e. the
  // construction slack times the guess granularity stays within the target.
  const double delta = (std::sqrt(16.0 + 12.0 * eps) - 4.0) / 6.0;
  return std::min(delta, 1.0);
}

Size ptas_scan_start(const Instance& instance, Cost budget) {
  return std::max({max_job_bound(instance), average_load_bound(instance),
                   budget_removal_bound(instance, budget), Size{1}});
}

Size ptas_next_guess(Size guess, double delta) {
  const auto stepped = static_cast<Size>(
      std::ceil(static_cast<double>(guess) * (1.0 + delta)));
  return std::max(guess + 1, stepped);
}

Size ptas_scan_stop(const Instance& instance) {
  return 2 * std::max<Size>(instance.initial_makespan(), Size{1}) + 2;
}

void PtasScratch::warm(std::size_t max_jobs, ProcId max_procs,
                       std::size_t max_classes) {
  const std::size_t segs = static_cast<std::size_t>(max_procs) * max_classes;
  job_class.reserve(max_jobs);
  totals.reserve(max_classes);
  class_size.reserve(max_classes);
  proc_count.reserve(segs);
  class_jobs.reserve(max_jobs);
  class_off.reserve(segs + 1);
  class_prefix.reserve(max_jobs + segs + 1);
  prefix_off.reserve(segs + 1);
  smalls.reserve(max_jobs);
  small_off.reserve(static_cast<std::size_t>(max_procs) + 1);
  small_size_prefix.reserve(max_jobs);
  small_cost_prefix.reserve(max_jobs);
  small_total.reserve(max_procs);
  cursor.reserve(segs + max_procs);
  if (layers.size() < static_cast<std::size_t>(max_procs) + 1) {
    layers.resize(static_cast<std::size_t>(max_procs) + 1);
  }
  rem.reserve(max_classes + 1);
  next_vals.reserve(max_classes + 1);
  tail_min.reserve(max_classes + 1);
  key_words.reserve(8);
  maxima.reserve(max_classes + 1);
}

PtasGuessOutcome ptas_probe_guess(const Instance& instance, Size guess,
                                  double eps, Cost budget,
                                  std::size_t state_limit, PtasScratch& scratch,
                                  bool reconstruct) {
  return run_guess(instance, guess, ptas_delta(eps), budget, state_limit,
                   scratch, reconstruct);
}

PtasResult ptas_rebalance(const Instance& instance,
                          const PtasOptions& options) {
  PtasScratch scratch;
  return ptas_rebalance(instance, options, scratch);
}

PtasResult ptas_rebalance(const Instance& instance, const PtasOptions& options,
                          PtasScratch& scratch) {
  assert(options.eps > 0);
  assert(options.budget >= 0);
  const double delta = ptas_delta(options.eps);

  PtasResult result;
  result.result = no_move_result(instance);
  if (instance.num_jobs() == 0) {
    result.success = true;
    return result;
  }

  Size guess = ptas_scan_start(instance, options.budget);
  const Size hard_stop = ptas_scan_stop(instance);
  while (guess <= hard_stop) {
    ++result.guesses_evaluated;
    auto outcome = run_guess(instance, guess, delta, options.budget,
                             options.state_limit, scratch,
                             /*want_assignment=*/true);
    result.states = outcome.states;
    if (!outcome.within_limit) {
      result.success = false;
      return result;
    }
    if (outcome.constructed && outcome.cost <= options.budget) {
      result.success = true;
      result.accepted_guess = guess;
      result.result =
          finalize_result(instance, std::move(outcome.assignment), guess);
      assert(result.result.cost <= options.budget);
      return result;
    }
    guess = ptas_next_guess(guess, delta);
  }
  // The identity plan is representable at guess >= the initial makespan, so
  // reaching here indicates a logic error for sane inputs.
  assert(false && "PTAS guess scan exhausted");
  return result;
}

}  // namespace lrb
