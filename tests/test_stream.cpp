// Unit tests for the streaming-session subsystem (src/stream/,
// docs/streaming.md): ClusterSession state tracking, delta rejection
// semantics, trigger evaluation, the dynamic setting of the paper's
// abstract (online traces streamed into a session), the serial replay
// reference, and the .lrbd delta-log format.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/assignment.h"
#include "core/generators.h"
#include "core/instance.h"
#include "stream/delta_log.h"
#include "stream/replay.h"
#include "stream/session.h"
#include "stream/trace.h"
#include "util/rng.h"

namespace lrb::stream {
namespace {

/// 2 processors, loads {7, 3}: job sizes 4+3 on proc 0, 2+1 on proc 1.
Instance small_instance() {
  return make_instance({4, 3, 2, 1}, {0, 0, 1, 1}, 2);
}

/// A trigger that never fires on its own (only kReplan / kProcDrain plan).
TriggerConfig quiet_trigger() {
  TriggerConfig config;
  config.spec = solver::BackendId::kBestOf;
  config.imbalance_ratio = 0.0;
  config.delta_count = 0;
  return config;
}

ClusterSession must_open(const Instance& initial,
                         const TriggerConfig& config) {
  std::string error;
  auto session = ClusterSession::open(initial, config, &error);
  EXPECT_TRUE(session) << error;
  return session ? *std::move(session) : ClusterSession{};
}

StepResult must_apply(ClusterSession& session, const Delta& delta,
                      std::uint64_t seq) {
  const StepResult result =
      session.step(delta, seq, serial_reference_solver(false));
  EXPECT_TRUE(result.applied) << result.error;
  return result;
}

StepResult must_reject(ClusterSession& session, const Delta& delta,
                       std::uint64_t seq) {
  const StepResult result =
      session.step(delta, seq, serial_reference_solver(false));
  EXPECT_FALSE(result.applied);
  EXPECT_FALSE(result.error.empty());
  return result;
}

Delta job_delta(DeltaKind kind, std::uint64_t id, Size size = 0,
                std::uint64_t proc = kAutoPlace, Cost move_cost = 1) {
  Delta delta;
  delta.kind = kind;
  delta.id = id;
  delta.size = size;
  delta.move_cost = move_cost;
  delta.proc = proc;
  return delta;
}

Delta proc_delta(DeltaKind kind, std::uint64_t id) {
  Delta delta;
  delta.kind = kind;
  delta.id = id;
  return delta;
}

TEST(StreamSession, OpenMirrorsTheInitialInstance) {
  ClusterSession session = must_open(small_instance(), quiet_trigger());
  EXPECT_EQ(session.num_jobs(), 4u);
  EXPECT_EQ(session.num_procs(), 2u);
  EXPECT_EQ(session.makespan(), 7);
  EXPECT_GE(session.lower_bound(), 4);  // max job is 4
  EXPECT_NE(session.digest(), 0u);

  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.num_jobs, 4u);
  EXPECT_EQ(stats.num_procs, 2u);
  EXPECT_EQ(stats.deltas_applied, 0u);
  EXPECT_EQ(stats.deltas_rejected, 0u);
  EXPECT_EQ(stats.plans_emitted, 0u);
  EXPECT_EQ(stats.last_seq, 0u);
  EXPECT_EQ(stats.digest, session.digest());
}

TEST(StreamSession, OpenRejectsInvalidInputs) {
  std::string error;
  Instance bad = small_instance();
  bad.initial[0] = 9;  // out of range
  EXPECT_FALSE(ClusterSession::open(bad, quiet_trigger(), &error));
  EXPECT_FALSE(error.empty());

  TriggerConfig bad_trigger = quiet_trigger();
  bad_trigger.move_frac = -0.5;
  error.clear();
  EXPECT_FALSE(
      ClusterSession::open(small_instance(), bad_trigger, &error));
  EXPECT_FALSE(error.empty());
}

TEST(StreamSession, AutoPlacedArrivalLandsOnTheLeastLoadedProcessor) {
  ClusterSession session = must_open(small_instance(), quiet_trigger());
  // Loads are {7, 3}; an auto-placed size-5 job must go to processor 1.
  Delta arrive;
  arrive.kind = DeltaKind::kJobArrive;
  arrive.id = 4;
  arrive.size = 5;
  arrive.proc = kAutoPlace;
  must_apply(session, arrive, 1);
  EXPECT_EQ(session.makespan(), 8);  // {7, 8}
  EXPECT_EQ(session.num_jobs(), 5u);
}

TEST(StreamSession, DepartAndUpdateTrackLoads) {
  ClusterSession session = must_open(small_instance(), quiet_trigger());
  Delta depart;
  depart.kind = DeltaKind::kJobDepart;
  depart.id = 0;  // size 4 on processor 0
  must_apply(session, depart, 1);
  EXPECT_EQ(session.makespan(), 3);  // {3, 3}
  EXPECT_EQ(session.num_jobs(), 3u);

  Delta update;
  update.kind = DeltaKind::kJobUpdate;
  update.id = 3;  // on processor 1, size 1 -> 9
  update.size = 9;
  must_apply(session, update, 2);
  EXPECT_EQ(session.makespan(), 11);  // {3, 11}
}

TEST(StreamSession, RejectionsConsumeTheSeqSlotWithoutMutatingState) {
  ClusterSession session = must_open(small_instance(), quiet_trigger());
  const std::uint64_t digest_before = session.digest();

  Delta unknown_job;
  unknown_job.kind = DeltaKind::kJobDepart;
  unknown_job.id = 99;
  must_reject(session, unknown_job, 1);

  Delta unknown_update;
  unknown_update.kind = DeltaKind::kJobUpdate;
  unknown_update.id = 99;
  unknown_update.size = 5;
  must_reject(session, unknown_update, 2);

  Delta duplicate_arrival;
  duplicate_arrival.kind = DeltaKind::kJobArrive;
  duplicate_arrival.id = 0;  // already live
  duplicate_arrival.size = 2;
  must_reject(session, duplicate_arrival, 3);

  Delta unknown_proc;
  unknown_proc.kind = DeltaKind::kProcRemove;
  unknown_proc.id = 42;
  must_reject(session, unknown_proc, 4);

  Delta bad_target;
  bad_target.kind = DeltaKind::kJobArrive;
  bad_target.id = 7;
  bad_target.size = 1;
  bad_target.proc = 42;  // unknown target processor
  must_reject(session, bad_target, 5);

  EXPECT_EQ(session.digest(), digest_before);
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.deltas_applied, 0u);
  EXPECT_EQ(stats.deltas_rejected, 5u);
  EXPECT_EQ(stats.last_seq, 5u);
}

TEST(StreamSession, RemovingANonEmptyProcessorIsRejectedWithADrainHint) {
  ClusterSession session = must_open(small_instance(), quiet_trigger());
  Delta remove;
  remove.kind = DeltaKind::kProcRemove;
  remove.id = 0;  // holds two jobs
  const StepResult result = must_reject(session, remove, 1);
  EXPECT_NE(result.error.find("drain"), std::string::npos)
      << "rejection should point at proc-drain: " << result.error;
  EXPECT_EQ(session.num_procs(), 2u);

  // An empty processor removes cleanly.
  Delta add;
  add.kind = DeltaKind::kProcAdd;
  add.id = 9;
  must_apply(session, add, 2);
  EXPECT_EQ(session.num_procs(), 3u);
  remove.id = 9;
  must_apply(session, remove, 3);
  EXPECT_EQ(session.num_procs(), 2u);
}

TEST(StreamSession, AProcessorHoldingOnlyZeroSizeJobsIsNotEmpty) {
  // Its load is 0, but removing it would orphan the job: rejected like any
  // other non-empty processor, and a drain moves the job off instead.
  ClusterSession session = must_open(small_instance(), quiet_trigger());
  must_apply(session, proc_delta(DeltaKind::kProcAdd, 9), 1);
  must_apply(session, job_delta(DeltaKind::kJobArrive, 20, 0, 9), 2);
  const StepResult result =
      must_reject(session, proc_delta(DeltaKind::kProcRemove, 9), 3);
  EXPECT_NE(result.error.find("drain"), std::string::npos) << result.error;
  EXPECT_EQ(session.num_procs(), 3u);

  const StepResult drained =
      must_apply(session, proc_delta(DeltaKind::kProcDrain, 9), 4);
  ASSERT_EQ(drained.plans.size(), 1u);
  EXPECT_EQ(drained.plans.front().moves.size(), 1u);
  EXPECT_EQ(session.num_procs(), 2u);
  EXPECT_EQ(session.num_jobs(), 5u);
  EXPECT_EQ(session.makespan(), session.recomputed_makespan());
}

TEST(StreamSession, DrainEvacuatesEveryJobAndEmitsTheForcedMoves) {
  ClusterSession session = must_open(small_instance(), quiet_trigger());
  Delta drain;
  drain.kind = DeltaKind::kProcDrain;
  drain.id = 0;  // jobs 0 and 1 live here
  const StepResult result = must_apply(session, drain, 1);
  ASSERT_GE(result.plans.size(), 1u);
  const SessionPlan& plan = result.plans.front();
  EXPECT_EQ(plan.reason, PlanReason::kDrain);
  EXPECT_EQ(plan.triggered_by_seq, 1u);
  EXPECT_EQ(plan.moves.size(), 2u);
  for (const PlanMove& move : plan.moves) EXPECT_EQ(move.from, 0u);
  EXPECT_EQ(session.num_procs(), 1u);
  EXPECT_EQ(session.num_jobs(), 4u);
  EXPECT_EQ(session.makespan(), 10);  // everything on processor 1
}

TEST(StreamSession, ExplicitReplanRespectsTheMoveBudget) {
  TriggerConfig config = quiet_trigger();
  config.move_budget = 1;
  // Skewed start: everything on processor 0.
  ClusterSession session =
      must_open(make_instance({5, 4, 3, 2}, {0, 0, 0, 0}, 2), config);
  EXPECT_EQ(session.makespan(), 14);

  Delta replan;
  replan.kind = DeltaKind::kReplan;
  const StepResult result = must_apply(session, replan, 1);
  ASSERT_EQ(result.plans.size(), 1u);
  const SessionPlan& plan = result.plans.front();
  EXPECT_EQ(plan.reason, PlanReason::kExplicit);
  EXPECT_LE(plan.moves.size(), 1u);
  EXPECT_LE(plan.makespan_after, plan.makespan_before);
  EXPECT_EQ(plan.makespan_before, 14);
  EXPECT_EQ(session.makespan(), plan.makespan_after);
}

TEST(StreamSession, DeltasThatWouldOverflowTheTotalSizeAreRejected) {
  // Loads {7, 3}: total 10. An arrival or update that takes the total to
  // kInfSize or more is an ordinary rejection, checked without overflow.
  ClusterSession session = must_open(small_instance(), quiet_trigger());
  const std::uint64_t digest_before = session.digest();
  const Size huge = std::numeric_limits<Size>::max();
  must_reject(session, job_delta(DeltaKind::kJobArrive, 9, huge, 0), 1);
  must_reject(session,
              job_delta(DeltaKind::kJobArrive, 9, kInfSize - 10, 0), 2);
  must_reject(session, job_delta(DeltaKind::kJobUpdate, 3, huge), 3);
  // Job 3 has size 1: the update below makes the total exactly kInfSize.
  must_reject(session, job_delta(DeltaKind::kJobUpdate, 3, kInfSize - 9), 4);
  EXPECT_EQ(session.digest(), digest_before);
  EXPECT_EQ(session.makespan(), 7);
  SessionStats stats = session.stats();
  EXPECT_EQ(stats.deltas_rejected, 4u);
  EXPECT_EQ(stats.last_seq, 4u);

  // One below the cap is accepted, and the state stays exact.
  must_apply(session, job_delta(DeltaKind::kJobUpdate, 3, kInfSize - 10), 5);
  EXPECT_EQ(session.makespan(), kInfSize - 8);  // processor 1: 2 + size
  EXPECT_EQ(session.lower_bound(), kInfSize - 10);
  EXPECT_EQ(session.lower_bound(), session.recomputed_lower_bound());
  EXPECT_EQ(session.digest(), session.recomputed_digest());
  must_reject(session, job_delta(DeltaKind::kJobArrive, 9, 1), 6);
}

/// Whether the maintained ack values equal their from-scratch
/// recomputations.
::testing::AssertionResult ack_state_matches(const ClusterSession& session) {
  if (session.makespan() != session.recomputed_makespan()) {
    return ::testing::AssertionFailure()
           << "makespan " << session.makespan() << " != recomputed "
           << session.recomputed_makespan();
  }
  if (session.lower_bound() != session.recomputed_lower_bound()) {
    return ::testing::AssertionFailure()
           << "lower bound " << session.lower_bound() << " != recomputed "
           << session.recomputed_lower_bound();
  }
  if (session.digest() != session.recomputed_digest()) {
    return ::testing::AssertionFailure() << "digest != recomputed digest";
  }
  return ::testing::AssertionSuccess();
}

/// The live ids of a session, mirrored by the test: job id -> size, and
/// the processor ids. Replans and drains move jobs but never change sizes,
/// so applied deltas alone keep it exact.
struct LiveModel {
  std::map<std::uint64_t, Size> sizes;
  std::vector<std::uint64_t> procs;
  std::uint64_t next_job = 0;
  std::uint64_t next_proc = 0;

  void apply(const Delta& delta) {
    switch (delta.kind) {
      case DeltaKind::kJobArrive:
      case DeltaKind::kJobUpdate:
        sizes[delta.id] = delta.size;
        break;
      case DeltaKind::kJobDepart:
        sizes.erase(delta.id);
        break;
      case DeltaKind::kProcAdd:
        procs.push_back(delta.id);
        break;
      case DeltaKind::kProcRemove:
      case DeltaKind::kProcDrain:
        procs.erase(std::find(procs.begin(), procs.end(), delta.id));
        break;
      case DeltaKind::kReplan:
        break;
    }
  }
};

/// One random delta over `model`: every kind, auto-placed and targeted
/// arrivals, zero sizes, sizes tying or beating the largest job,
/// departures of the largest job, and deltas that must be rejected
/// (unknown or duplicate ids, non-empty removals, total-size overflow).
Delta random_delta(Rng& rng, LiveModel& model) {
  const Size kHuge = std::numeric_limits<Size>::max();
  Size largest = 0;
  std::uint64_t largest_id = model.next_job;  // unknown when no jobs
  for (const auto& [id, size] : model.sizes) {
    if (size >= largest) {
      largest = size;
      largest_id = id;
    }
  }
  auto pick = [&rng](std::size_t count) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
  };
  auto any_job = [&]() -> std::uint64_t {
    if (model.sizes.empty()) return model.next_job;
    auto it = model.sizes.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(pick(model.sizes.size())));
    return it->first;
  };
  auto any_proc = [&] { return model.procs[pick(model.procs.size())]; };
  auto any_size = [&]() -> Size {
    switch (rng.uniform_int(0, 5)) {
      case 0:
        return 0;
      case 1:
        return largest;
      case 2:
        return largest + rng.uniform_int(1, 8);
      case 3:
        return rng.bernoulli(0.1) ? kHuge : 1;
      default:
        return rng.uniform_int(0, std::max<Size>(largest, 1));
    }
  };
  const std::int64_t roll = rng.uniform_int(0, 99);
  if (roll < 30) {
    const std::uint64_t id =
        rng.bernoulli(0.05) ? any_job() : model.next_job++;
    const std::uint64_t proc = rng.bernoulli(0.5)   ? kAutoPlace
                               : rng.bernoulli(0.05) ? ~std::uint64_t{1}
                                                     : any_proc();
    const Size size = any_size();
    return job_delta(DeltaKind::kJobArrive, id, size, proc,
                     rng.uniform_int(0, 4));
  }
  if (roll < 48) {
    const std::uint64_t id = rng.bernoulli(0.5)    ? largest_id
                             : rng.bernoulli(0.05) ? model.next_job
                                                   : any_job();
    return job_delta(DeltaKind::kJobDepart, id);
  }
  if (roll < 70) {
    const std::uint64_t id = rng.bernoulli(0.3) ? largest_id : any_job();
    return job_delta(DeltaKind::kJobUpdate, id, any_size());
  }
  if (roll < 78) {
    const std::uint64_t id =
        rng.bernoulli(0.1) ? any_proc() : 1000 + model.next_proc++;
    return proc_delta(DeltaKind::kProcAdd, id);
  }
  if (roll < 86) {
    // The newest processor is the likeliest to be empty.
    const std::uint64_t id =
        rng.bernoulli(0.5) ? model.procs.back() : any_proc();
    return proc_delta(DeltaKind::kProcRemove, id);
  }
  if (roll < 91) return proc_delta(DeltaKind::kProcDrain, any_proc());
  return proc_delta(DeltaKind::kReplan, 0);
}

TEST(StreamSession, MaintainedAckStateEqualsTheRecomputationAfterEveryStep) {
  constexpr std::uint64_t kSeeds = 20;
  constexpr std::uint64_t kDeltas = 500;
  std::map<DeltaKind, std::size_t> applied;
  std::map<PlanReason, std::size_t> plans;
  std::size_t rejected = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    TriggerConfig config;
    config.spec = seed % 2 == 0 ? solver::BackendId::kBestOf
                                : solver::BackendId::kGreedy;
    config.imbalance_ratio = 1.5;
    config.delta_count = 8;
    config.move_frac = 0.2;
    const Instance initial = mixed_corpus_instance(seed, seed);
    ClusterSession session = must_open(initial, config);
    ASSERT_TRUE(ack_state_matches(session)) << "seed " << seed << " open";
    LiveModel model;
    for (std::size_t j = 0; j < initial.num_jobs(); ++j) {
      model.sizes[j] = initial.sizes[j];
    }
    for (ProcId p = 0; p < initial.num_procs; ++p) model.procs.push_back(p);
    model.next_job = initial.num_jobs();
    Rng rng(seed);
    const SolveFn solve = serial_reference_solver(false);
    for (std::uint64_t seq = 1; seq <= kDeltas; ++seq) {
      const Delta delta = random_delta(rng, model);
      const StepResult step = session.step(delta, seq, solve);
      ASSERT_TRUE(ack_state_matches(session))
          << "seed " << seed << " seq " << seq << " "
          << delta_kind_name(delta.kind) << " id " << delta.id << " size "
          << delta.size << (step.applied ? "" : " (rejected)");
      if (step.applied) {
        model.apply(delta);
        ++applied[delta.kind];
      } else {
        ++rejected;
      }
      for (const SessionPlan& plan : step.plans) ++plans[plan.reason];
    }
  }
  // The mix reached every path it claims to cover.
  for (const DeltaKind kind :
       {DeltaKind::kJobArrive, DeltaKind::kJobDepart, DeltaKind::kJobUpdate,
        DeltaKind::kProcAdd, DeltaKind::kProcRemove, DeltaKind::kProcDrain,
        DeltaKind::kReplan}) {
    EXPECT_GT(applied[kind], 0u) << delta_kind_name(kind);
  }
  for (const PlanReason reason :
       {PlanReason::kImbalance, PlanReason::kDeltaCount, PlanReason::kExplicit,
        PlanReason::kDrain}) {
    EXPECT_GT(plans[reason], 0u) << plan_reason_name(reason);
  }
  EXPECT_GT(rejected, 0u);
}

TEST(StreamSession, DigestDependsOnTheLiveStateNotItsHistory) {
  const TriggerConfig config = quiet_trigger();

  // Arrivals in two orders.
  ClusterSession a = must_open(small_instance(), config);
  ClusterSession b = must_open(small_instance(), config);
  const Delta x = job_delta(DeltaKind::kJobArrive, 10, 5, 1);
  const Delta y = job_delta(DeltaKind::kJobArrive, 11, 2, 0);
  must_apply(a, x, 1);
  must_apply(a, y, 2);
  must_apply(b, y, 1);
  must_apply(b, x, 2);
  EXPECT_EQ(a.digest(), b.digest());

  // Processors added in two orders.
  must_apply(a, proc_delta(DeltaKind::kProcAdd, 7), 3);
  must_apply(a, proc_delta(DeltaKind::kProcAdd, 8), 4);
  must_apply(b, proc_delta(DeltaKind::kProcAdd, 8), 3);
  must_apply(b, proc_delta(DeltaKind::kProcAdd, 7), 4);
  EXPECT_EQ(a.digest(), b.digest());

  // Depart then re-arrive: job 0 comes back in the last slot, so the slot
  // layout differs from the open state but the live state does not.
  ClusterSession c = must_open(small_instance(), config);
  const std::uint64_t open_digest = c.digest();
  must_apply(c, job_delta(DeltaKind::kJobDepart, 0), 1);
  EXPECT_NE(c.digest(), open_digest);
  must_apply(c, job_delta(DeltaKind::kJobArrive, 0, 4, 0), 2);
  EXPECT_NE(c.snapshot().sizes, small_instance().sizes);
  EXPECT_EQ(c.digest(), open_digest);

  // A replanned session and one opened directly at the replanned state
  // (no departures or processor changes, so ids equal slots).
  TriggerConfig budget = quiet_trigger();
  budget.move_budget = 2;
  ClusterSession replanned =
      must_open(make_instance({5, 4, 3, 2}, {0, 0, 0, 0}, 2), budget);
  const StepResult step =
      must_apply(replanned, proc_delta(DeltaKind::kReplan, 0), 1);
  ASSERT_EQ(step.plans.size(), 1u);
  ASSERT_FALSE(step.plans.front().moves.empty());
  ClusterSession direct = must_open(replanned.snapshot(), budget);
  EXPECT_EQ(replanned.digest(), direct.digest());

  // Likewise a drain, against a history that reaches the same state by
  // arriving every job on processor 1 and removing the empty processor 0.
  ClusterSession drained = must_open(small_instance(), config);
  must_apply(drained, proc_delta(DeltaKind::kProcDrain, 0), 1);
  ASSERT_EQ(drained.num_procs(), 1u);
  ClusterSession rebuilt = must_open(make_instance({}, {}, 1), config);
  must_apply(rebuilt, proc_delta(DeltaKind::kProcAdd, 1), 1);
  const Instance initial = small_instance();
  for (std::size_t j = 0; j < initial.num_jobs(); ++j) {
    must_apply(rebuilt,
               job_delta(DeltaKind::kJobArrive, j, initial.sizes[j], 1),
               2 + j);
  }
  must_apply(rebuilt, proc_delta(DeltaKind::kProcRemove, 0), 6);
  EXPECT_EQ(drained.digest(), rebuilt.digest());
}

TEST(StreamSession, DigestChangesWithAnyOneField) {
  // Loads {1, 2, 5}. Each variant changes one field of one record and
  // keeps the makespan, so only the record hashes can tell them apart.
  const Instance base = make_instance({1, 5, 2}, {1, 1, 1}, {0, 2, 1}, 3);
  Instance bigger = base;
  bigger.sizes[0] = 2;
  Instance costlier = base;
  costlier.move_costs[0] = 3;
  Instance moved = base;
  moved.initial[0] = 1;
  std::vector<std::uint64_t> digests;
  for (const Instance& instance : {base, bigger, costlier, moved}) {
    ClusterSession session = must_open(instance, quiet_trigger());
    EXPECT_EQ(session.makespan(), 5);
    digests.push_back(session.digest());
  }
  // One job id: job 0 departs and returns as job 9, otherwise identical.
  ClusterSession renamed_job = must_open(base, quiet_trigger());
  must_apply(renamed_job, job_delta(DeltaKind::kJobDepart, 0), 1);
  must_apply(renamed_job, job_delta(DeltaKind::kJobArrive, 9, 1, 0), 2);
  digests.push_back(renamed_job.digest());
  // One processor id: an empty processor 7 versus an empty processor 8.
  for (const std::uint64_t id : {std::uint64_t{7}, std::uint64_t{8}}) {
    ClusterSession session = must_open(base, quiet_trigger());
    must_apply(session, proc_delta(DeltaKind::kProcAdd, id), 1);
    digests.push_back(session.digest());
  }
  for (std::size_t i = 0; i < digests.size(); ++i) {
    for (std::size_t j = i + 1; j < digests.size(); ++j) {
      EXPECT_NE(digests[i], digests[j]) << "variants " << i << " and " << j;
    }
  }
}

TEST(StreamTriggers, DeltaCountFiresEveryNAppliedDeltas) {
  TriggerConfig config = quiet_trigger();
  config.delta_count = 3;
  ClusterSession session = must_open(small_instance(), config);

  std::size_t plans = 0;
  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    Delta arrive;
    arrive.kind = DeltaKind::kJobArrive;
    arrive.id = 100 + seq;
    arrive.size = 2;
    const StepResult result = must_apply(session, arrive, seq);
    plans += result.plans.size();
    if (seq == 3 || seq == 6) {
      ASSERT_EQ(result.plans.size(), 1u) << "seq " << seq;
      EXPECT_EQ(result.plans.front().reason, PlanReason::kDeltaCount);
      EXPECT_EQ(result.plans.front().triggered_by_seq, seq);
    } else {
      EXPECT_TRUE(result.plans.empty()) << "seq " << seq;
    }
  }
  EXPECT_EQ(plans, 2u);
  EXPECT_EQ(session.stats().plans_emitted, 2u);
}

TEST(StreamTriggers, RejectedDeltasDoNotAdvanceTheDeltaCountTrigger) {
  TriggerConfig config = quiet_trigger();
  config.delta_count = 2;
  ClusterSession session = must_open(small_instance(), config);

  Delta bogus;
  bogus.kind = DeltaKind::kJobDepart;
  bogus.id = 99;
  must_reject(session, bogus, 1);
  must_reject(session, bogus, 2);

  Delta arrive;
  arrive.kind = DeltaKind::kJobArrive;
  arrive.id = 50;
  arrive.size = 1;
  const StepResult first = must_apply(session, arrive, 3);
  EXPECT_TRUE(first.plans.empty());  // only 1 applied so far
  arrive.id = 51;
  const StepResult second = must_apply(session, arrive, 4);
  ASSERT_EQ(second.plans.size(), 1u);  // 2 applied deltas -> fires
  EXPECT_EQ(second.plans.front().reason, PlanReason::kDeltaCount);
}

TEST(StreamTriggers, ImbalanceFiresWhenMakespanDriftsPastTheBound) {
  TriggerConfig config = quiet_trigger();
  config.imbalance_ratio = 1.5;
  // Balanced start: {4, 4} with lower bound 4.
  ClusterSession session =
      must_open(make_instance({4, 4}, {0, 1}, 2), config);

  // A size-4 arrival pinned to processor 0 makes loads {8, 4}:
  // makespan 8 > 1.5 * lb(6) is false, so no plan yet...
  Delta arrive;
  arrive.kind = DeltaKind::kJobArrive;
  arrive.id = 10;
  arrive.size = 4;
  arrive.proc = 0;
  const StepResult quiet = must_apply(session, arrive, 1);
  EXPECT_TRUE(quiet.plans.empty());

  // ...but a second pinned arrival makes {12, 4}: 12 > 1.5 * 8 fails,
  // 12 > 1.5 * lb — lb is max(avg=8, max_job=4) = 8, so 12 == 1.5 * 8 is
  // not strictly greater; push once more to {16, 4}: 16 > 1.5 * 10.
  arrive.id = 11;
  must_apply(session, arrive, 2);
  arrive.id = 12;
  const StepResult fired = must_apply(session, arrive, 3);
  ASSERT_EQ(fired.plans.size(), 1u);
  EXPECT_EQ(fired.plans.front().reason, PlanReason::kImbalance);
  // The replan must actually reduce drift.
  EXPECT_LT(fired.plans.front().makespan_after,
            fired.plans.front().makespan_before);
}

TEST(StreamTriggers, ValidateTriggerCatchesBadConfigs) {
  EXPECT_FALSE(validate_trigger(quiet_trigger()).has_value());

  TriggerConfig config = quiet_trigger();
  config.move_frac = -0.25;
  EXPECT_TRUE(validate_trigger(config).has_value());

  config = quiet_trigger();
  config.imbalance_ratio = -1.0;
  EXPECT_TRUE(validate_trigger(config).has_value());

  config = quiet_trigger();
  config.spec.params.eps = 0.0;
  EXPECT_TRUE(validate_trigger(config).has_value());
}

// ---------------------------------------------------------------------------
// Online traces and the dynamic setting.
// ---------------------------------------------------------------------------

TEST(Trace, WellFormedAcrossSeeds) {
  TraceOptions opt;
  opt.num_events = 500;
  opt.departure_fraction = 0.45;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto trace = random_trace(opt, seed);
    EXPECT_EQ(trace.size(), 500u);
    EXPECT_TRUE(trace_is_well_formed(trace)) << "seed=" << seed;
  }
}

TEST(Trace, DeterministicInSeed) {
  TraceOptions opt;
  const auto a = random_trace(opt, 7);
  const auto b = random_trace(opt, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].size, b[i].size);
    EXPECT_EQ(a[i].arrival_index, b[i].arrival_index);
  }
}

TEST(Trace, ZeroDepartureFractionIsAllArrivals) {
  TraceOptions opt;
  opt.num_events = 100;
  opt.departure_fraction = 0.0;
  const auto trace = random_trace(opt, 3);
  for (const auto& event : trace) EXPECT_EQ(event.kind, EventKind::kArrive);
}

TEST(Trace, WellFormedRejectsBadTraces) {
  std::vector<Event> bad;
  Event depart;
  depart.kind = EventKind::kDepart;
  depart.arrival_index = 0;
  bad.push_back(depart);  // departs before any arrival
  EXPECT_FALSE(trace_is_well_formed(bad));

  std::vector<Event> twice;
  Event arrive;
  arrive.kind = EventKind::kArrive;
  arrive.arrival_index = 0;
  twice.push_back(arrive);
  twice.push_back(depart);
  twice.push_back(depart);  // departs the same job twice
  EXPECT_FALSE(trace_is_well_formed(twice));
}

// The Scheduler suite drives a session as an online scheduler: arrivals
// auto-placed by Graham's rule, departures, and explicit replans.

TEST(Scheduler, GrahamPlacementOnArrival) {
  // Each arrival goes to the least-loaded processor, equal loads to the
  // lowest id: on an empty 3-processor cluster, sizes 5, 3, 2, 1 land on
  // 0 (all empty), 1, 2 and 2 (loads {5, 3, 3}); one more job of size 1
  // then ties between 1 and 2 and lands on 1.
  ClusterSession session =
      must_open(make_instance({}, {}, 3), quiet_trigger());
  const Size sizes[] = {5, 3, 2, 1};
  for (std::uint64_t id = 0; id < std::size(sizes); ++id) {
    must_apply(session, job_delta(DeltaKind::kJobArrive, id, sizes[id]),
               id + 1);
  }
  EXPECT_EQ(session.snapshot().initial, (std::vector<ProcId>{0, 1, 2, 2}));
  EXPECT_EQ(session.makespan(), 5);
  EXPECT_EQ(session.num_jobs(), 4u);

  must_apply(session, job_delta(DeltaKind::kJobArrive, 4, 1), 5);
  EXPECT_EQ(session.snapshot().initial,
            (std::vector<ProcId>{0, 1, 2, 2, 1}));
}

TEST(Scheduler, DeparturesFreeLoadAndHandlesAreReused) {
  // A departure frees its load and its job id: a later arrival may take
  // the same id, and is placed on the processor the departure emptied.
  ClusterSession session =
      must_open(make_instance({}, {}, 2), quiet_trigger());
  must_apply(session, job_delta(DeltaKind::kJobArrive, 0, 10), 1);  // -> 0
  must_apply(session, job_delta(DeltaKind::kJobArrive, 1, 4), 2);   // -> 1
  must_apply(session, job_delta(DeltaKind::kJobDepart, 0), 3);
  EXPECT_EQ(session.num_jobs(), 1u);
  EXPECT_EQ(session.makespan(), 4);

  must_apply(session, job_delta(DeltaKind::kJobArrive, 0, 6), 4);
  EXPECT_EQ(session.num_jobs(), 2u);
  EXPECT_EQ(session.makespan(), 6);
  EXPECT_EQ(session.snapshot().initial, (std::vector<ProcId>{1, 0}));
  // Departing the reused id removes the new job, not the old one.
  must_apply(session, job_delta(DeltaKind::kJobDepart, 0), 5);
  EXPECT_EQ(session.makespan(), 4);
}

TEST(Scheduler, SnapshotReflectsAliveJobsOnly) {
  // Only the live jobs remain, with their move costs, in slot order: the
  // arrival (job 4, size 5, cost 2, auto-placed on processor 1) takes the
  // slot that job 0 frees when it departs.
  Instance initial = small_instance();
  initial.move_costs = {5, 6, 7, 8};
  ClusterSession session = must_open(initial, quiet_trigger());
  must_apply(session, job_delta(DeltaKind::kJobArrive, 4, 5, kAutoPlace, 2),
             1);
  must_apply(session, job_delta(DeltaKind::kJobDepart, 0), 2);
  const Instance live = session.snapshot();
  ASSERT_EQ(live.num_jobs(), 4u);
  EXPECT_EQ(live.sizes, (std::vector<Size>{5, 3, 2, 1}));
  EXPECT_EQ(live.move_costs, (std::vector<Cost>{2, 6, 7, 8}));
  EXPECT_EQ(live.initial, (std::vector<ProcId>{1, 0, 1, 1}));
}

TEST(Scheduler, RebalanceAppliesAssignmentAndCountsMoves) {
  // Arrivals pinned to processor 0 and one departure leave loads
  // {25, 0, 0}. An explicit M-PARTITION replan with a budget of 2 applies
  // its moves, and the stats count them.
  TriggerConfig config = quiet_trigger();
  config.spec = solver::BackendId::kMPartition;
  config.move_budget = 2;
  ClusterSession session = must_open(make_instance({}, {}, 3), config);
  must_apply(session, job_delta(DeltaKind::kJobArrive, 0, 9, 0), 1);
  must_apply(session, job_delta(DeltaKind::kJobArrive, 1, 8, 0), 2);
  must_apply(session, job_delta(DeltaKind::kJobArrive, 2, 7, 0), 3);
  must_apply(session, job_delta(DeltaKind::kJobDepart, 1), 4);
  must_apply(session, job_delta(DeltaKind::kJobArrive, 3, 9, 0), 5);
  EXPECT_EQ(session.makespan(), 25);

  Delta replan;
  replan.kind = DeltaKind::kReplan;
  const StepResult result = must_apply(session, replan, 6);
  ASSERT_EQ(result.plans.size(), 1u);
  const SessionPlan& plan = result.plans.front();
  EXPECT_GT(plan.moves.size(), 0u);
  EXPECT_LE(plan.moves.size(), 2u);
  EXPECT_EQ(plan.makespan_before, 25);
  EXPECT_LT(plan.makespan_after, plan.makespan_before);
  EXPECT_EQ(session.makespan(), plan.makespan_after);
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.plans_emitted, 1u);
  EXPECT_EQ(stats.moves_total, plan.moves.size());

  // Replaying the moves by job id on {25, 0, 0} gives the session's loads
  // (processor ids equal their slots: none was removed).
  std::vector<Size> expected = {25, 0, 0};
  for (const PlanMove& move : plan.moves) {
    const Size size = move.job == 2 ? 7 : 9;
    expected[move.from] -= size;
    expected[move.to] += size;
  }
  const Instance live = session.snapshot();
  EXPECT_EQ(loads(live, live.initial), expected);
}

/// makespan / lower bound of a session holding at least one job.
double tracking_ratio(const ClusterSession& session) {
  return static_cast<double>(session.makespan()) /
         static_cast<double>(session.lower_bound());
}

TEST(StreamSession, PureArrivalsStayWithinGrahamBound) {
  // Without departures, auto-placement is Graham's list scheduling, which
  // is (2 - 1/m)-competitive against the lower bound.
  TraceOptions opt;
  opt.num_events = 300;
  opt.departure_fraction = 0.0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const DeltaLog log = delta_log_from_trace(
        make_instance({}, {}, 5), random_trace(opt, seed), quiet_trigger());
    ClusterSession session = must_open(log.initial, log.trigger);
    for (std::size_t i = 0; i < log.deltas.size(); ++i) {
      must_apply(session, log.deltas[i], i + 1);
      EXPECT_LE(tracking_ratio(session), 2.0 - 1.0 / 5.0 + 1e-9);
    }
  }
}

TEST(StreamSession, DeparturesErodeBalanceRebalancingRestoresIt) {
  // With biased departures, the never-rebalanced session drifts away from
  // the lower bound; M-PARTITION with a budget of 4 every 25 deltas keeps
  // the MEAN tracking ratio strictly better across seeds.
  TraceOptions opt;
  opt.num_events = 600;
  opt.departure_fraction = 0.45;
  opt.bias_large_departures = true;
  TriggerConfig managed_trigger = quiet_trigger();
  managed_trigger.spec = solver::BackendId::kMPartition;
  managed_trigger.move_budget = 4;
  managed_trigger.delta_count = 25;
  double managed_mean_total = 0, unmanaged_mean_total = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const DeltaLog log = delta_log_from_trace(
        make_instance({}, {}, 6), random_trace(opt, seed), managed_trigger);
    ClusterSession managed = must_open(log.initial, managed_trigger);
    ClusterSession unmanaged = must_open(log.initial, quiet_trigger());
    double managed_sum = 0, unmanaged_sum = 0;
    std::size_t samples = 0;
    for (std::size_t i = 0; i < log.deltas.size(); ++i) {
      for (const SessionPlan& plan :
           must_apply(managed, log.deltas[i], i + 1).plans) {
        EXPECT_LE(plan.moves.size(), 4u);
      }
      must_apply(unmanaged, log.deltas[i], i + 1);
      if (managed.num_jobs() > 0) {
        managed_sum += tracking_ratio(managed);
        unmanaged_sum += tracking_ratio(unmanaged);
        ++samples;
      }
    }
    ASSERT_GT(samples, 0u);
    managed_mean_total += managed_sum / static_cast<double>(samples);
    unmanaged_mean_total += unmanaged_sum / static_cast<double>(samples);
  }
  EXPECT_LT(managed_mean_total, unmanaged_mean_total);
}

// ---------------------------------------------------------------------------
// The serial replay reference.
// ---------------------------------------------------------------------------

DeltaLog sample_log(std::uint64_t seed, std::size_t events) {
  TriggerConfig trigger;
  trigger.spec = solver::BackendId::kBestOf;
  trigger.imbalance_ratio = 1.5;
  trigger.delta_count = 16;
  TraceOptions options;
  options.num_events = events;
  options.departure_fraction = 0.4;
  return delta_log_from_trace(mixed_corpus_instance(0, seed),
                              random_trace(options, seed), trigger);
}

TEST(StreamReplay, IsDeterministicAcrossRuns) {
  const DeltaLog log = sample_log(11, 120);
  const ReplayResult a =
      replay_serial_reference(log.initial, log.trigger, log.deltas);
  const ReplayResult b =
      replay_serial_reference(log.initial, log.trigger, log.deltas);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.open_digest, b.open_digest);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].digest, b.steps[i].digest) << "step " << i;
    EXPECT_EQ(a.steps[i].plans.size(), b.steps[i].plans.size());
  }
  EXPECT_EQ(a.final_stats.digest, b.final_stats.digest);
  EXPECT_EQ(a.final_stats.plans_emitted, b.final_stats.plans_emitted);
  EXPECT_GT(a.final_stats.deltas_applied, 0u);
}

TEST(StreamReplay, CachedReferenceMatchesThePlainOne) {
  // The solution cache is proven byte-identical to the serial solver
  // (docs/caching.md), so the cached replay must produce the exact same
  // transcript — this is what lets one checker serve both server modes.
  const DeltaLog log = sample_log(12, 100);
  const ReplayResult plain =
      replay_serial_reference(log.initial, log.trigger, log.deltas, {});
  ReplayOptions cached;
  cached.cached = true;
  const ReplayResult with_cache =
      replay_serial_reference(log.initial, log.trigger, log.deltas, cached);
  ASSERT_TRUE(plain.ok) << plain.error;
  ASSERT_TRUE(with_cache.ok) << with_cache.error;
  ASSERT_EQ(plain.steps.size(), with_cache.steps.size());
  for (std::size_t i = 0; i < plain.steps.size(); ++i) {
    EXPECT_EQ(plain.steps[i].digest, with_cache.steps[i].digest)
        << "step " << i;
  }
  EXPECT_EQ(plain.final_stats.digest, with_cache.final_stats.digest);
}

TEST(StreamReplay, RejectionsArePartOfTheTranscript) {
  DeltaLog log;
  log.initial = small_instance();
  log.trigger = quiet_trigger();
  Delta bogus;
  bogus.kind = DeltaKind::kJobDepart;
  bogus.id = 1234;
  log.deltas.push_back(bogus);
  Delta fine;
  fine.kind = DeltaKind::kJobDepart;
  fine.id = 0;
  log.deltas.push_back(fine);

  const ReplayResult result =
      replay_serial_reference(log.initial, log.trigger, log.deltas);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.steps.size(), 2u);
  EXPECT_FALSE(result.steps[0].applied);
  EXPECT_FALSE(result.steps[0].error.empty());
  EXPECT_EQ(result.steps[0].digest, result.open_digest);  // state untouched
  EXPECT_TRUE(result.steps[1].applied);
  EXPECT_EQ(result.final_stats.deltas_applied, 1u);
  EXPECT_EQ(result.final_stats.deltas_rejected, 1u);
}

// ---------------------------------------------------------------------------
// Delta logs (.lrbd).
// ---------------------------------------------------------------------------

TEST(StreamDeltaLog, RoundTripsThroughText) {
  const DeltaLog log = sample_log(13, 80);
  const std::string text = delta_log_to_string(log);
  std::string error;
  const auto parsed = delta_log_from_string(text, &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(delta_log_to_string(*parsed), text);

  // Same transcript after the round trip.
  const ReplayResult a =
      replay_serial_reference(log.initial, log.trigger, log.deltas);
  const ReplayResult b = replay_serial_reference(
      parsed->initial, parsed->trigger, parsed->deltas);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(a.final_stats.digest, b.final_stats.digest);
}

TEST(StreamDeltaLog, FromTraceAssignsStableJobIds) {
  const Instance initial = small_instance();
  TraceOptions options;
  options.num_events = 40;
  options.departure_fraction = 0.5;
  const auto events = random_trace(options, 5);
  const DeltaLog log =
      delta_log_from_trace(initial, events, quiet_trigger());
  ASSERT_EQ(log.deltas.size(), events.size());
  std::size_t arrivals = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (log.deltas[i].kind == DeltaKind::kJobArrive) {
      // Arrival j gets stable id initial.num_jobs() + j.
      EXPECT_EQ(log.deltas[i].id, initial.num_jobs() + arrivals);
      EXPECT_EQ(log.deltas[i].proc, kAutoPlace);
      ++arrivals;
    } else {
      EXPECT_EQ(log.deltas[i].kind, DeltaKind::kJobDepart);
      EXPECT_GE(log.deltas[i].id, initial.num_jobs());
    }
  }
  EXPECT_GT(arrivals, 0u);
}

TEST(StreamDeltaLog, RejectsMalformedText) {
  std::string error;
  EXPECT_FALSE(delta_log_from_string("not a delta log", &error));
  EXPECT_FALSE(error.empty());

  // Truncating a valid log anywhere after the schema line must fail too.
  const std::string text = delta_log_to_string(sample_log(14, 10));
  error.clear();
  EXPECT_FALSE(
      delta_log_from_string(text.substr(0, text.size() / 2), &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace lrb::stream
