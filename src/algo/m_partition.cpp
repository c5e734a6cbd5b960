#include "algo/m_partition.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "algo/thresholds.h"
#include "core/lower_bounds.h"

namespace lrb {

void MPartitionScratch::warm(std::size_t max_jobs, ProcId max_procs) {
  order.reserve(max_jobs, max_procs);
  events.reserve(3 * max_jobs);
  num_large.reserve(max_procs);
  a.reserve(max_procs);
  b.reserve(max_procs);
  // CSelector over c in [-(n+1), n+1] uses 2*(n+1)+2 Fenwick slots plus the
  // unused index 0.
  sel_cnt.reserve(2 * (max_jobs + 1) + 3);
  sel_sum.reserve(2 * (max_jobs + 1) + 3);
}

namespace {

/// Fenwick tree over c-values (c = a_i - b_i, in [-max_abs, max_abs]),
/// answering "sum of the t smallest stored values" in O(log n). Storage is
/// borrowed from the caller so arenas (MPartitionScratch) can reuse it
/// across instances without reallocating.
class CSelector {
 public:
  CSelector(std::vector<std::int64_t>& cnt, std::vector<std::int64_t>& sum,
            std::int64_t max_abs)
      : offset_(max_abs),
        size_(static_cast<std::size_t>(2 * max_abs + 2)),
        cnt_(cnt),
        sum_(sum) {
    cnt_.assign(size_ + 1, 0);
    sum_.assign(size_ + 1, 0);
    log_ = 0;
    while ((std::size_t{1} << (log_ + 1)) <= size_) ++log_;
  }

  void add(std::int64_t c, std::int64_t delta) {
    for (std::size_t i = index(c); i <= size_; i += i & (~i + 1)) {
      cnt_[i] += delta;
      sum_[i] += delta * c;
    }
  }

  /// Sum of the t smallest values currently stored; t must not exceed the
  /// stored count.
  [[nodiscard]] std::int64_t smallest_sum(std::int64_t t) const {
    if (t <= 0) return 0;
    std::size_t pos = 0;
    std::int64_t cnt = 0;
    std::int64_t sum = 0;
    for (int b = static_cast<int>(log_); b >= 0; --b) {
      const std::size_t next = pos + (std::size_t{1} << b);
      if (next <= size_ && cnt + cnt_[next] < t) {
        pos = next;
        cnt += cnt_[next];
        sum += sum_[next];
      }
    }
    // pos = largest index whose prefix holds < t values; the t-th smallest
    // value is the one stored at index pos + 1.
    const std::int64_t boundary_value =
        static_cast<std::int64_t>(pos + 1) - offset_ - 1;
    return sum + (t - cnt) * boundary_value;
  }

 private:
  [[nodiscard]] std::size_t index(std::int64_t c) const {
    const std::int64_t i = c + offset_ + 1;
    assert(i >= 1 && static_cast<std::size_t>(i) <= size_);
    return static_cast<std::size_t>(i);
  }

  std::int64_t offset_;
  std::size_t size_;
  std::size_t log_;
  std::vector<std::int64_t>& cnt_;
  std::vector<std::int64_t>& sum_;
};

/// Fills `events` with the value-sorted thresholds above `start` of every
/// processor's ascending group.
void build_events(const ProcOrder& order, Size start,
                  std::vector<ThresholdEvent>& events) {
  events.clear();
  events.reserve(3 * order.num_jobs());
  for (ProcId p = 0; p < order.num_procs(); ++p) {
    append_threshold_events(order.sizes(p), order.prefix(p), p, start, events);
  }
  std::sort(events.begin(), events.end(),
            [](const ThresholdEvent& x, const ThresholdEvent& y) {
              return x.value < y.value;
            });
}

/// Aggregate scan state at the current guess, kept in the scratch arena's
/// per-processor vectors and Fenwick storage.
struct ScanState {
  ScanState(MPartitionScratch& s, std::int64_t max_abs)
      : num_large(s.num_large),
        a(s.a),
        b(s.b),
        selector(s.sel_cnt, s.sel_sum, max_abs) {}

  /// Initializes every processor at guess T.
  void init(const ProcOrder& order, Size T) {
    const ProcId procs = order.num_procs();
    num_large.assign(procs, 0);
    a.assign(procs, 0);
    b.assign(procs, 0);
    large_total = 0;
    procs_with_large = 0;
    sum_b = 0;
    for (ProcId p = 0; p < procs; ++p) insert(p, partition_counts(order, p, T));
  }

  /// Advances processor p to guess T (one threshold event).
  void apply(const ProcOrder& order, ProcId p, Size T) {
    large_total -= num_large[p];
    if (num_large[p] > 0) --procs_with_large;
    sum_b -= b[p];
    selector.add(a[p] - b[p], -1);
    insert(p, partition_counts(order, p, T));
  }

  [[nodiscard]] std::int64_t k_hat(std::int64_t m) const {
    if (large_total > m) return kInfSize;  // guess certainly below OPT
    return (large_total - procs_with_large) + sum_b +
           selector.smallest_sum(large_total);
  }

  std::vector<std::int64_t>& num_large;
  std::vector<std::int64_t>& a;
  std::vector<std::int64_t>& b;
  CSelector selector;
  std::int64_t large_total = 0;
  std::int64_t procs_with_large = 0;
  std::int64_t sum_b = 0;

 private:
  void insert(ProcId p, const PartitionCounts& counts) {
    num_large[p] = counts.num_large;
    a[p] = counts.a;
    b[p] = counts.b;
    large_total += counts.num_large;
    if (counts.num_large > 0) ++procs_with_large;
    sum_b += counts.b;
    selector.add(counts.a - counts.b, +1);
  }
};

/// Runs the one full PARTITION at the accepted guess, the scan's
/// `guesses`-th evaluation, whose k-hat was `removals`.
RebalanceResult commit(const Instance& instance, const ProcOrder& order,
                       Size threshold, std::int64_t removals,
                       std::size_t guesses, Size start, MPartitionStats* stats) {
  auto outcome = partition_rebalance_at(instance, order, threshold);
  assert(outcome.feasible);
  assert(outcome.removals == removals);
  if (stats != nullptr) {
    stats->accepted_threshold = threshold;
    stats->start_threshold = start;
    stats->removals = outcome.removals;
    stats->guesses_evaluated = guesses;
  }
  return std::move(outcome.result);
}

}  // namespace

RebalanceResult m_partition_rebalance(const Instance& instance, std::int64_t k,
                                      MPartitionStats* stats) {
  MPartitionScratch scratch;
  return m_partition_rebalance(instance, k, scratch, stats);
}

RebalanceResult m_partition_rebalance(const Instance& instance, std::int64_t k,
                                      MPartitionScratch& scratch,
                                      MPartitionStats* stats) {
  scratch.order.build(instance);
  return m_partition_rebalance(instance, scratch.order, k, scratch, stats);
}

RebalanceResult m_partition_rebalance(const Instance& instance,
                                      const ProcOrder& order, std::int64_t k,
                                      MPartitionScratch& scratch,
                                      MPartitionStats* stats) {
  assert(k >= 0);
  const auto n = static_cast<std::int64_t>(instance.num_jobs());
  const auto m = static_cast<std::int64_t>(instance.num_procs);
  const Size start = combined_lower_bound(order, k);
  build_events(order, start, scratch.events);
  const std::vector<ThresholdEvent>& events = scratch.events;

  // The incremental sweep, starting from (and first evaluating) the
  // certified lower bound.
  ScanState state(scratch, n + 1);
  state.init(order, start);
  std::size_t guesses = 1;
  if (const std::int64_t kh = state.k_hat(m); kh <= k) {
    return commit(instance, order, start, kh, guesses, start, stats);
  }
  std::size_t i = 0;
  while (i < events.size()) {
    const Size value = events[i].value;
    // Apply every event at this threshold, touching each processor once.
    while (i < events.size() && events[i].value == value) {
      state.apply(order, events[i].proc, value);
      ++i;
    }
    ++guesses;
    if (const std::int64_t kh = state.k_hat(m); kh <= k) {
      return commit(instance, order, value, kh, guesses, start, stats);
    }
  }
  // Unreachable: at the largest candidate every processor fits within T and
  // no job is large, so k_hat = 0 <= k.
  assert(false && "M-PARTITION scan failed to terminate");
  return no_move_result(instance);
}

RebalanceResult m_partition_rebalance_reference(const Instance& instance,
                                                std::int64_t k,
                                                MPartitionStats* stats) {
  assert(k >= 0);
  const Size start = combined_lower_bound(instance, k);
  std::vector<Size> candidates = candidate_thresholds(instance);
  // Evaluate at the lower bound first, then at every candidate above it.
  std::vector<Size> guesses;
  guesses.push_back(start);
  for (Size c : candidates) {
    if (c > start) guesses.push_back(c);
  }
  std::size_t evaluated = 0;
  for (Size guess : guesses) {
    ++evaluated;
    auto outcome = partition_rebalance_at(instance, guess);
    if (!outcome.feasible) continue;
    if (outcome.removals <= k) {
      if (stats != nullptr) {
        stats->accepted_threshold = guess;
        stats->start_threshold = start;
        stats->removals = outcome.removals;
        stats->guesses_evaluated = evaluated;
      }
      return std::move(outcome.result);
    }
  }
  assert(false && "reference M-PARTITION scan failed to terminate");
  return no_move_result(instance);
}

}  // namespace lrb
