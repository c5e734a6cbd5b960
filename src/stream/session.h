// Streaming rebalance sessions: the stateful heart of the wire-v2 session
// protocol (docs/streaming.md).
//
// A ClusterSession tracks a live cluster: jobs and processors carry stable
// client-chosen 64-bit ids, the session maintains the current assignment
// and per-processor loads, and every applied delta (arrival, departure,
// load change, processor add/remove/drain) updates that state in O(1)
// amortized. The ack state is kept current the same way: the total size,
// the largest job size (with how many jobs have it) and two sums of
// per-record hashes, so lower_bound() and digest() cost O(1) on top of
// makespan()'s O(m) scan. Drift is tracked as "current makespan vs. the
// lower bounds of core/lower_bounds"; when the configured RebalanceTrigger
// fires (imbalance ratio, delta count, or an explicit Replan delta), the
// session plans a bounded-move repair through a caller-supplied solve
// function (the server wires engine::BatchSolver here; the replay
// reference wires engine::solve_serial_reference / cached_serial_reference)
// and applies only the resulting *move diff*.
//
// Determinism contract: ClusterSession is a pure function of
// (initial instance, trigger config, delta sequence, solve function).
// The server and stream::replay_serial_reference run this exact code over
// the same inputs, so every emitted SessionPlan and every post-apply state
// digest is byte-comparable between them — the same contract the
// svc/cache/chaos layers already enforce for one-shot Solves. The reference
// reports the recomputed_*() values, so the comparison also checks the
// maintained ack state against a from-scratch computation.
//
// Rejected deltas are first-class: a delta referencing an unknown job or
// processor (or any other invalid transition, e.g. one that would take the
// total size to kInfSize) is rejected WITHOUT mutating state, consumes its
// sequence slot, and the session continues. Both sides of the replay
// comparison reject identically, so rejection is part of the deterministic
// transcript, not an out-of-band failure.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/assignment.h"
#include "core/instance.h"
#include "core/types.h"
#include "solver/spec.h"

namespace lrb::stream {

/// Sentinel processor id for job arrivals: "place on the least-loaded
/// processor" (ties broken by lowest processor id).
inline constexpr std::uint64_t kAutoPlace = ~std::uint64_t{0};

enum class DeltaKind : std::uint8_t {
  kJobArrive = 1,   ///< new job `id` of `size`/`move_cost` on `proc`
  kJobDepart = 2,   ///< job `id` leaves the cluster
  kJobUpdate = 3,   ///< job `id`'s size becomes `size` (absolute, not delta)
  kProcAdd = 4,     ///< new empty processor `id`
  kProcRemove = 5,  ///< processor `id` leaves; must be empty (else rejected)
  kProcDrain = 6,   ///< force-move every job off `id`, then remove it
  kReplan = 7,      ///< explicit client-requested rebalance
};

[[nodiscard]] const char* delta_kind_name(DeltaKind kind);

/// One streamed state change. `id` names a job for the kJob* kinds and a
/// processor for the kProc* kinds; unused fields are ignored (and must be
/// encoded as zero / kAutoPlace on the wire so frames stay byte-stable).
struct Delta {
  DeltaKind kind = DeltaKind::kReplan;
  std::uint64_t id = 0;
  Size size = 0;       ///< kJobArrive / kJobUpdate
  Cost move_cost = 1;  ///< kJobArrive
  std::uint64_t proc = kAutoPlace;  ///< kJobArrive target
};

/// When the session replans. Checked after every applied delta, in this
/// order: delta_count first, then imbalance (at most one fires per delta;
/// kProcDrain and kReplan plan unconditionally).
struct TriggerConfig {
  /// Replan backend + parameters (solver registry, docs/solvers.md).
  solver::SolverSpec spec;
  /// Absolute move budget per replan; 0 = derive from move_frac.
  std::uint32_t move_budget = 0;
  /// Budget as a fraction of live jobs: k = max(1, floor(frac * n)).
  double move_frac = 0.25;
  /// Fire when makespan > ratio * max(lower_bound, 1); 0 disables.
  double imbalance_ratio = 0.0;
  /// Fire every N applied deltas; 0 disables.
  std::uint32_t delta_count = 0;
};

/// Validates a trigger config (finite fractions in range, plus the solver
/// registry's own parameter validation for the spec).
/// Returns an error description or nullopt when valid.
[[nodiscard]] std::optional<std::string> validate_trigger(
    const TriggerConfig& config);

enum class PlanReason : std::uint8_t {
  kImbalance = 1,   ///< makespan drifted past imbalance_ratio * lower bound
  kDeltaCount = 2,  ///< delta_count applied deltas since the last plan
  kExplicit = 3,    ///< client sent DeltaKind::kReplan
  kDrain = 4,       ///< forced moves evacuating a drained processor
};

[[nodiscard]] const char* plan_reason_name(PlanReason reason);

/// One relocation in a plan, in stable ids.
struct PlanMove {
  std::uint64_t job = 0;
  std::uint64_t from = 0;
  std::uint64_t to = 0;
};

/// The move diff streamed back to the client (wire type kSessionPlan).
/// Already applied to the session state when emitted.
struct SessionPlan {
  std::uint64_t plan_seq = 0;          ///< 1-based, per session
  std::uint64_t triggered_by_seq = 0;  ///< delta seq that fired the trigger
  PlanReason reason = PlanReason::kExplicit;
  Size makespan_before = 0;
  Size makespan_after = 0;
  std::vector<PlanMove> moves;
};

/// Solve hook: (instance, k, spec) -> result. The instance is the
/// session's live state in dense slot labels; the returned assignment
/// must be in the same labels (engine entry points qualify).
using SolveFn = std::function<RebalanceResult(
    const Instance&, std::int64_t, const solver::SolverSpec&)>;

/// Outcome of applying one delta.
struct StepResult {
  bool applied = false;
  std::string error;  ///< non-empty iff the delta was rejected
  /// Plans fired by this delta (a drain plus a trigger can emit two).
  std::vector<SessionPlan> plans;
};

/// Point-in-time session summary (wire type kSessionStatsOk).
struct SessionStats {
  std::uint64_t num_procs = 0;
  std::uint64_t num_jobs = 0;
  std::uint64_t deltas_applied = 0;
  std::uint64_t deltas_rejected = 0;
  std::uint64_t plans_emitted = 0;
  std::uint64_t moves_total = 0;
  std::uint64_t last_seq = 0;
  Size makespan = 0;
  Size lower_bound = 0;
  std::uint64_t digest = 0;
};

class ClusterSession {
 public:
  /// An empty session (no jobs, no processors). open() is the real entry
  /// point; the default exists so owners can hold a session as a movable
  /// slot (e.g. the server's per-reactor session tables).
  ClusterSession() = default;

  /// Opens a session from an initial instance (must pass lrb::validate)
  /// and a trigger config (must pass validate_trigger). Jobs get stable
  /// ids 0..n-1 and processors 0..m-1, matching their instance indices.
  [[nodiscard]] static std::optional<ClusterSession> open(
      const Instance& initial, const TriggerConfig& config,
      std::string* error);

  /// Applies delta `seq` (sequence numbers are assigned by the caller,
  /// start at 1, and must only move forward). Evaluates triggers and runs
  /// any resulting replan through `solve`. Deterministic given identical
  /// call sequences and solve functions.
  [[nodiscard]] StepResult step(const Delta& delta, std::uint64_t seq,
                                const SolveFn& solve);

  /// Makespan of the current assignment. O(m).
  [[nodiscard]] Size makespan() const;

  /// max(ceil(total size / m), largest job) of the live state — exactly
  /// core/lower_bounds' max(average_load_bound, max_job_bound) — from the
  /// maintained total and largest size. O(1). The drift denominator of
  /// the imbalance trigger and the bound reported in every ack.
  [[nodiscard]] Size lower_bound() const;

  /// 64-bit state fingerprint: hash_words (util/packed_key.h) over a tag,
  /// the processor and job counts, the maintained sums (mod 2^64) of
  /// per-processor hashes of the id and per-job hashes of (id, size, move
  /// cost, processor id), and the makespan. Depends only on the live state,
  /// not on the history or slot layout that produced it. O(1) plus
  /// makespan(). Included in every ack so checkers compare state, not just
  /// plans.
  [[nodiscard]] std::uint64_t digest() const;

  [[nodiscard]] SessionStats stats() const;

  /// From-scratch O(n) recomputations of makespan(), lower_bound() and
  /// digest() that read only the job and processor records, never the
  /// maintained loads, total, largest size or hash sums. What the serial
  /// reference reports, so every checker compares a server's maintained
  /// values against independently recomputed ones.
  [[nodiscard]] Size recomputed_makespan() const;
  [[nodiscard]] Size recomputed_lower_bound() const;
  [[nodiscard]] std::uint64_t recomputed_digest() const;
  /// stats() with the three recomputed values.
  [[nodiscard]] SessionStats recomputed_stats() const;

  [[nodiscard]] std::size_t num_jobs() const noexcept { return jobs_.size(); }
  [[nodiscard]] std::size_t num_procs() const noexcept {
    return procs_.size();
  }
  [[nodiscard]] const TriggerConfig& trigger() const noexcept {
    return config_;
  }

  /// The live state as an Instance in dense slot labels (jobs/processors
  /// in internal slot order). What replans solve; exposed for tests.
  [[nodiscard]] Instance snapshot() const;

 private:
  struct JobRec {
    std::uint64_t id = 0;
    Size size = 0;
    Cost move_cost = 1;
    std::size_t proc_slot = 0;
  };
  struct ProcRec {
    std::uint64_t id = 0;
    Size load = 0;
  };

  [[nodiscard]] std::string apply(const Delta& delta, StepResult* result,
                                  std::uint64_t seq);
  /// Digest term of one job: hash of (id, size, move cost, processor id).
  [[nodiscard]] std::uint64_t job_hash(const JobRec& job) const;
  /// Digest over the given hash sums and makespan (and the live counts).
  [[nodiscard]] std::uint64_t digest_of(std::uint64_t proc_hash_sum,
                                        std::uint64_t job_hash_sum,
                                        Size makespan) const;
  /// A job record enters / leaves the ack state: the total, the largest
  /// size and the job-hash sum. untrack() rescans jobs_, which must no
  /// longer hold the record, when the last job at the largest size leaves.
  void track(const JobRec& job);
  void untrack(const JobRec& job);
  void count_size(Size size);
  /// Relocates a job, keeping both loads and the job-hash sum current.
  void move_job(JobRec& job, std::size_t target);
  /// Least-loaded processor (ties: lowest id), optionally excluding one
  /// slot. Returns procs_.size() when every processor is excluded.
  [[nodiscard]] std::size_t least_loaded_slot(std::size_t exclude_slot) const;
  void remove_job_slot(std::size_t slot);
  void remove_proc_slot(std::size_t slot);
  /// Runs one bounded-move replan and applies + records the move diff.
  [[nodiscard]] SessionPlan replan(PlanReason reason, std::uint64_t seq,
                                   const SolveFn& solve);
  void evaluate_triggers(std::uint64_t seq, const SolveFn& solve,
                         StepResult* result);

  TriggerConfig config_;
  std::vector<JobRec> jobs_;    ///< dense slots; swap-removed on departure
  std::vector<ProcRec> procs_;  ///< dense slots; swap-removed on removal
  std::unordered_map<std::uint64_t, std::size_t> job_slots_;
  std::unordered_map<std::uint64_t, std::size_t> proc_slots_;

  // Ack state, kept current by every mutation (see lower_bound/digest).
  Size total_size_ = 0;
  Size max_size_ = 0;          ///< 0 when there are no jobs
  std::size_t max_count_ = 0;  ///< live jobs of size max_size_
  std::uint64_t job_hash_sum_ = 0;
  std::uint64_t proc_hash_sum_ = 0;

  std::uint64_t deltas_applied_ = 0;
  std::uint64_t deltas_rejected_ = 0;
  std::uint64_t plans_emitted_ = 0;
  std::uint64_t moves_total_ = 0;
  std::uint64_t last_seq_ = 0;
  std::uint32_t deltas_since_plan_ = 0;
};

}  // namespace lrb::stream
