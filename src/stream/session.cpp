#include "stream/session.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>

#include "core/lower_bounds.h"
#include "solver/registry.h"
#include "util/packed_key.h"

namespace lrb::stream {

namespace {

/// First word of the state digest ("lrb-sess" in ASCII).
constexpr std::uint64_t kDigestTag = 0x6c72622d73657373ULL;

std::uint64_t proc_hash(std::uint64_t id) { return hash_words(&id, 1); }

/// The message of a rejected delta that would take the live total size to
/// kInfSize or more (lrb::validate's cap on a whole instance).
std::string total_cap_error() {
  return "total job size would reach " + std::to_string(kInfSize);
}

}  // namespace

const char* delta_kind_name(DeltaKind kind) {
  switch (kind) {
    case DeltaKind::kJobArrive:
      return "arrive";
    case DeltaKind::kJobDepart:
      return "depart";
    case DeltaKind::kJobUpdate:
      return "update";
    case DeltaKind::kProcAdd:
      return "proc-add";
    case DeltaKind::kProcRemove:
      return "proc-remove";
    case DeltaKind::kProcDrain:
      return "proc-drain";
    case DeltaKind::kReplan:
      return "replan";
  }
  return "?";
}

const char* plan_reason_name(PlanReason reason) {
  switch (reason) {
    case PlanReason::kImbalance:
      return "imbalance";
    case PlanReason::kDeltaCount:
      return "delta-count";
    case PlanReason::kExplicit:
      return "explicit";
    case PlanReason::kDrain:
      return "drain";
  }
  return "?";
}

std::optional<std::string> validate_trigger(const TriggerConfig& config) {
  if (config.move_budget == 0 &&
      !(config.move_frac > 0.0 && config.move_frac <= 1.0)) {
    return "move_frac must be in (0, 1] when move_budget is 0";
  }
  if (!(config.imbalance_ratio >= 0.0) ||
      !std::isfinite(config.imbalance_ratio)) {
    return "imbalance_ratio must be finite and >= 0";
  }
  if (const auto problem = solver::validate_spec(config.spec)) {
    return problem;
  }
  return std::nullopt;
}

std::optional<ClusterSession> ClusterSession::open(const Instance& initial,
                                                  const TriggerConfig& config,
                                                  std::string* error) {
  auto fail = [&](std::string what) -> std::optional<ClusterSession> {
    if (error != nullptr) *error = std::move(what);
    return std::nullopt;
  };
  if (const auto problem = validate(initial)) return fail(*problem);
  if (const auto problem = validate_trigger(config)) return fail(*problem);
  ClusterSession session;
  session.config_ = config;
  session.procs_.reserve(initial.num_procs);
  for (ProcId p = 0; p < initial.num_procs; ++p) {
    session.procs_.push_back({p, 0});
    session.proc_slots_.emplace(p, p);
    session.proc_hash_sum_ += proc_hash(p);
  }
  const std::size_t n = initial.num_jobs();
  session.jobs_.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    JobRec job;
    job.id = j;
    job.size = initial.sizes[j];
    job.move_cost = initial.move_costs[j];
    job.proc_slot = initial.initial[j];
    session.procs_[job.proc_slot].load += job.size;
    session.track(job);
    session.job_slots_.emplace(job.id, session.jobs_.size());
    session.jobs_.push_back(job);
  }
  return session;
}

Size ClusterSession::makespan() const {
  Size makespan = 0;
  for (const ProcRec& proc : procs_) makespan = std::max(makespan, proc.load);
  return makespan;
}

Size ClusterSession::lower_bound() const {
  const auto m = static_cast<Size>(procs_.size());
  return std::max((total_size_ + m - 1) / m, max_size_);
}

std::uint64_t ClusterSession::digest() const {
  return digest_of(proc_hash_sum_, job_hash_sum_, makespan());
}

Size ClusterSession::recomputed_makespan() const {
  std::vector<Size> loads(procs_.size(), 0);
  for (const JobRec& job : jobs_) loads[job.proc_slot] += job.size;
  Size makespan = 0;
  for (const Size load : loads) makespan = std::max(makespan, load);
  return makespan;
}

Size ClusterSession::recomputed_lower_bound() const {
  const Instance live = snapshot();
  return std::max(average_load_bound(live), max_job_bound(live));
}

std::uint64_t ClusterSession::recomputed_digest() const {
  std::uint64_t proc_sum = 0;
  for (const ProcRec& proc : procs_) proc_sum += proc_hash(proc.id);
  std::uint64_t job_sum = 0;
  for (const JobRec& job : jobs_) job_sum += job_hash(job);
  return digest_of(proc_sum, job_sum, recomputed_makespan());
}

SessionStats ClusterSession::recomputed_stats() const {
  SessionStats stats = this->stats();
  stats.makespan = recomputed_makespan();
  stats.lower_bound = recomputed_lower_bound();
  stats.digest = recomputed_digest();
  return stats;
}

std::uint64_t ClusterSession::job_hash(const JobRec& job) const {
  const std::uint64_t words[] = {job.id, static_cast<std::uint64_t>(job.size),
                                 static_cast<std::uint64_t>(job.move_cost),
                                 procs_[job.proc_slot].id};
  return hash_words(words, std::size(words));
}

std::uint64_t ClusterSession::digest_of(std::uint64_t proc_hash_sum,
                                        std::uint64_t job_hash_sum,
                                        Size makespan) const {
  const std::uint64_t words[] = {kDigestTag,
                                 procs_.size(),
                                 jobs_.size(),
                                 proc_hash_sum,
                                 job_hash_sum,
                                 static_cast<std::uint64_t>(makespan)};
  return hash_words(words, std::size(words));
}

void ClusterSession::track(const JobRec& job) {
  total_size_ += job.size;
  count_size(job.size);
  job_hash_sum_ += job_hash(job);
}

void ClusterSession::untrack(const JobRec& job) {
  total_size_ -= job.size;
  job_hash_sum_ -= job_hash(job);
  if (job.size != max_size_ || --max_count_ > 0) return;
  max_size_ = 0;
  for (const JobRec& live : jobs_) count_size(live.size);
}

void ClusterSession::count_size(Size size) {
  if (size > max_size_) {
    max_size_ = size;
    max_count_ = 0;
  }
  if (size == max_size_) ++max_count_;
}

void ClusterSession::move_job(JobRec& job, std::size_t target) {
  job_hash_sum_ -= job_hash(job);
  procs_[job.proc_slot].load -= job.size;
  procs_[target].load += job.size;
  job.proc_slot = target;
  job_hash_sum_ += job_hash(job);
}

Instance ClusterSession::snapshot() const {
  Instance live;
  live.num_procs = static_cast<ProcId>(procs_.size());
  const std::size_t n = jobs_.size();
  live.sizes.reserve(n);
  live.move_costs.reserve(n);
  live.initial.reserve(n);
  for (const JobRec& job : jobs_) {
    live.sizes.push_back(job.size);
    live.move_costs.push_back(job.move_cost);
    live.initial.push_back(static_cast<ProcId>(job.proc_slot));
  }
  return live;
}

SessionStats ClusterSession::stats() const {
  SessionStats stats;
  stats.num_procs = procs_.size();
  stats.num_jobs = jobs_.size();
  stats.deltas_applied = deltas_applied_;
  stats.deltas_rejected = deltas_rejected_;
  stats.plans_emitted = plans_emitted_;
  stats.moves_total = moves_total_;
  stats.last_seq = last_seq_;
  stats.makespan = makespan();
  stats.lower_bound = lower_bound();
  stats.digest = digest();
  return stats;
}

std::size_t ClusterSession::least_loaded_slot(std::size_t exclude_slot) const {
  std::size_t best = procs_.size();
  for (std::size_t slot = 0; slot < procs_.size(); ++slot) {
    if (slot == exclude_slot) continue;
    if (best == procs_.size() || procs_[slot].load < procs_[best].load ||
        (procs_[slot].load == procs_[best].load &&
         procs_[slot].id < procs_[best].id)) {
      best = slot;
    }
  }
  return best;
}

void ClusterSession::remove_job_slot(std::size_t slot) {
  job_slots_.erase(jobs_[slot].id);
  const std::size_t last = jobs_.size() - 1;
  if (slot != last) {
    jobs_[slot] = jobs_[last];
    job_slots_[jobs_[slot].id] = slot;
  }
  jobs_.pop_back();
}

void ClusterSession::remove_proc_slot(std::size_t slot) {
  assert(procs_[slot].load == 0);
  proc_hash_sum_ -= proc_hash(procs_[slot].id);
  proc_slots_.erase(procs_[slot].id);
  const std::size_t last = procs_.size() - 1;
  if (slot != last) {
    procs_[slot] = procs_[last];
    proc_slots_[procs_[slot].id] = slot;
    // Jobs referencing the moved processor follow it to its new slot.
    for (JobRec& job : jobs_) {
      if (job.proc_slot == last) job.proc_slot = slot;
    }
  }
  procs_.pop_back();
}

std::string ClusterSession::apply(const Delta& delta, StepResult* result,
                                  std::uint64_t seq) {
  switch (delta.kind) {
    case DeltaKind::kJobArrive: {
      if (delta.size < 0) return "negative job size";
      if (delta.move_cost < 0) return "negative move cost";
      if (job_slots_.count(delta.id) != 0) {
        return "job id already exists: " + std::to_string(delta.id);
      }
      std::size_t target;
      if (delta.proc == kAutoPlace) {
        target = least_loaded_slot(procs_.size());
      } else {
        const auto it = proc_slots_.find(delta.proc);
        if (it == proc_slots_.end()) {
          return "unknown processor: " + std::to_string(delta.proc);
        }
        target = it->second;
      }
      if (delta.size >= kInfSize - total_size_) return total_cap_error();
      JobRec job;
      job.id = delta.id;
      job.size = delta.size;
      job.move_cost = delta.move_cost;
      job.proc_slot = target;
      procs_[target].load += job.size;
      track(job);
      job_slots_.emplace(job.id, jobs_.size());
      jobs_.push_back(job);
      return {};
    }
    case DeltaKind::kJobDepart: {
      const auto it = job_slots_.find(delta.id);
      if (it == job_slots_.end()) {
        return "unknown job: " + std::to_string(delta.id);
      }
      const std::size_t slot = it->second;
      const JobRec job = jobs_[slot];
      procs_[job.proc_slot].load -= job.size;
      remove_job_slot(slot);
      untrack(job);
      return {};
    }
    case DeltaKind::kJobUpdate: {
      if (delta.size < 0) return "negative job size";
      const auto it = job_slots_.find(delta.id);
      if (it == job_slots_.end()) {
        return "unknown job: " + std::to_string(delta.id);
      }
      JobRec& job = jobs_[it->second];
      if (delta.size - job.size >= kInfSize - total_size_) {
        return total_cap_error();
      }
      const JobRec old = job;
      procs_[job.proc_slot].load += delta.size - old.size;
      job.size = delta.size;
      track(job);
      untrack(old);
      return {};
    }
    case DeltaKind::kProcAdd: {
      if (delta.id == kAutoPlace) return "reserved processor id";
      if (proc_slots_.count(delta.id) != 0) {
        return "processor id already exists: " + std::to_string(delta.id);
      }
      proc_slots_.emplace(delta.id, procs_.size());
      procs_.push_back({delta.id, 0});
      proc_hash_sum_ += proc_hash(delta.id);
      return {};
    }
    case DeltaKind::kProcRemove: {
      const auto it = proc_slots_.find(delta.id);
      if (it == proc_slots_.end()) {
        return "unknown processor: " + std::to_string(delta.id);
      }
      // Any job counts, zero-size ones too: a load of 0 is not empty.
      const std::size_t slot = it->second;
      if (std::any_of(jobs_.begin(), jobs_.end(), [slot](const JobRec& job) {
            return job.proc_slot == slot;
          })) {
        return "processor not empty (use proc-drain): " +
               std::to_string(delta.id);
      }
      if (procs_.size() == 1) return "cannot remove the last processor";
      remove_proc_slot(slot);
      return {};
    }
    case DeltaKind::kProcDrain: {
      const auto it = proc_slots_.find(delta.id);
      if (it == proc_slots_.end()) {
        return "unknown processor: " + std::to_string(delta.id);
      }
      if (procs_.size() == 1) return "cannot drain the last processor";
      const std::size_t victim = it->second;
      SessionPlan plan;
      plan.reason = PlanReason::kDrain;
      plan.triggered_by_seq = seq;
      plan.makespan_before = makespan();
      // Evacuation order: largest job first (ties: lowest id), each to the
      // least-loaded surviving processor (ties: lowest id). Deterministic,
      // and ignores the move budget: a drain is an operational necessity,
      // not an optimization (docs/streaming.md).
      std::vector<std::size_t> evict;
      for (std::size_t slot = 0; slot < jobs_.size(); ++slot) {
        if (jobs_[slot].proc_slot == victim) evict.push_back(slot);
      }
      std::sort(evict.begin(), evict.end(), [&](std::size_t a, std::size_t b) {
        if (jobs_[a].size != jobs_[b].size) {
          return jobs_[a].size > jobs_[b].size;
        }
        return jobs_[a].id < jobs_[b].id;
      });
      for (const std::size_t slot : evict) {
        const std::size_t target = least_loaded_slot(victim);
        JobRec& job = jobs_[slot];
        plan.moves.push_back(
            {job.id, procs_[victim].id, procs_[target].id});
        move_job(job, target);
      }
      plan.makespan_after = makespan();
      remove_proc_slot(victim);
      if (!plan.moves.empty()) {
        plan.plan_seq = ++plans_emitted_;
        moves_total_ += plan.moves.size();
        deltas_since_plan_ = 0;
        result->plans.push_back(std::move(plan));
      }
      return {};
    }
    case DeltaKind::kReplan:
      return {};  // handled by step()
  }
  return "unknown delta kind";
}

SessionPlan ClusterSession::replan(PlanReason reason, std::uint64_t seq,
                                   const SolveFn& solve) {
  SessionPlan plan;
  plan.reason = reason;
  plan.triggered_by_seq = seq;
  plan.makespan_before = makespan();
  const Instance live = snapshot();
  std::int64_t k;
  if (config_.move_budget > 0) {
    k = config_.move_budget;
  } else {
    k = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               config_.move_frac * static_cast<double>(jobs_.size())));
  }
  const RebalanceResult result = solve(live, k, config_.spec);
  assert(result.assignment.size() == jobs_.size());
  for (std::size_t slot = 0; slot < jobs_.size(); ++slot) {
    const std::size_t target = result.assignment[slot];
    JobRec& job = jobs_[slot];
    if (target == job.proc_slot) continue;
    plan.moves.push_back(
        {job.id, procs_[job.proc_slot].id, procs_[target].id});
    move_job(job, target);
  }
  plan.makespan_after = makespan();
  plan.plan_seq = ++plans_emitted_;
  moves_total_ += plan.moves.size();
  deltas_since_plan_ = 0;
  return plan;
}

void ClusterSession::evaluate_triggers(std::uint64_t seq, const SolveFn& solve,
                                       StepResult* result) {
  if (config_.delta_count > 0 && deltas_since_plan_ >= config_.delta_count) {
    result->plans.push_back(replan(PlanReason::kDeltaCount, seq, solve));
    return;
  }
  if (config_.imbalance_ratio > 0.0) {
    const Size bound = std::max<Size>(lower_bound(), 1);
    if (static_cast<double>(makespan()) >
        config_.imbalance_ratio * static_cast<double>(bound)) {
      result->plans.push_back(replan(PlanReason::kImbalance, seq, solve));
    }
  }
}

StepResult ClusterSession::step(const Delta& delta, std::uint64_t seq,
                                const SolveFn& solve) {
  StepResult result;
  last_seq_ = seq;
  if (delta.kind == DeltaKind::kReplan) {
    ++deltas_applied_;
    ++deltas_since_plan_;
    result.applied = true;
    result.plans.push_back(replan(PlanReason::kExplicit, seq, solve));
    return result;
  }
  std::string error = apply(delta, &result, seq);
  if (!error.empty()) {
    ++deltas_rejected_;
    result.error = std::move(error);
    return result;
  }
  ++deltas_applied_;
  ++deltas_since_plan_;
  result.applied = true;
  evaluate_triggers(seq, solve, &result);
  return result;
}

}  // namespace lrb::stream
