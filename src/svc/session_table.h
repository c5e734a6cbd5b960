// The streaming-session table (wire v2, docs/streaming.md): every live
// session and every closed id's tombstone, shared by all reactors. A
// session frame is answered on whichever reactor it lands on, so a client
// that reconnects to another reactor needs no hop back to the reactor
// that opened its session.
//
// Locking rules:
//
//   - The table mutex guards only the id -> record map and the open count.
//     No thread waits for a session mutex while it holds the table mutex.
//     The only nesting is session mutex, then table mutex: close
//     decrements the open count.
//   - A session's mutex is held for the whole frame, replan included. So
//     frames for one session run one at a time, in the order their
//     reactors take the lock, and different sessions run in parallel on
//     different reactors. A reactor waits for a session's mutex only when
//     frames for that session arrive on two connections at once (a retry
//     racing its original); the wait lasts at most that session's own
//     frame, since replans run on the calling thread
//     (engine::BatchSolver::solve_item).
//   - Records are never erased: a closed id stays as a tombstone, so a
//     record pointer taken under the table mutex stays valid after the
//     mutex is released.
//   - A failed open inserts nothing: the payload is decoded and the
//     ClusterSession built first, and only then, under the table mutex, is
//     the id checked again to be absent and the table under capacity.
//   - Close releases the live state; a tombstone keeps only its CloseOk
//     bytes, which a repeated close gets back.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "engine/batch_solver.h"
#include "obs/metrics.h"
#include "stream/session.h"
#include "svc/wire.h"

namespace lrb::svc {

class SessionTable {
 public:
  /// Replans run through `solver`; at most `max_sessions` sessions are
  /// open at once. Metrics: the stream.* catalog of docs/streaming.md plus
  /// svc.bad_requests and svc.shed_overloaded, all in `metrics`.
  SessionTable(engine::BatchSolver& solver, std::size_t max_sessions,
               obs::Registry& metrics);

  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;

  /// Answers one SessionOpen, SessionDelta, SessionStats or SessionClose
  /// frame on the calling thread: replaces `reply` with the reply payload
  /// and returns its type (kError, with an encoded error payload, for
  /// every refusal). Replans solve in `arena`, the calling thread's own
  /// (BatchSolver::solve_item). Safe to call from any number of threads
  /// at once, each with its own arena.
  [[nodiscard]] MsgType handle(MsgType type, std::string_view payload,
                               std::string& reply, engine::Scratch& arena);

 private:
  /// An open session's state, released at close. `last_reply_*` hold the
  /// most recent state-advancing reply, so an exact duplicate of the last
  /// frame (a retry whose reply was lost) is answered byte-identically
  /// instead of re-applied: the delta exactly-once contract.
  struct Live {
    stream::ClusterSession session;
    std::uint64_t open_payload_digest = 0;  ///< idempotent re-open check
    std::uint64_t last_seq = 0;             ///< highest delta seq consumed
    std::uint64_t last_frame_first_seq = 0;
    std::uint32_t last_frame_count = 0;
    /// kSessionOpenOk until the first delta frame is answered.
    MsgType last_reply_type = MsgType::kSessionOpenOk;
    std::string last_reply_payload;
  };

  struct Record {
    std::mutex mutex;
    std::unique_ptr<Live> live;  ///< null once closed (a tombstone)
    std::string close_reply;     ///< the CloseOk payload, set at close
  };

  /// The record for `id`, or nullptr; takes the table mutex.
  Record* find(std::uint64_t id);
  MsgType open(std::uint64_t id, std::string_view payload,
               std::string& reply);
  /// SessionOpen for an id that has a record: a resend of a pristine
  /// session's open (no delta frame answered yet, empty ones included)
  /// gets its stored ack, anything else SessionExists.
  MsgType reopen(Record& record, std::string_view payload,
                 std::string& reply);
  MsgType delta(Live& live, std::string_view payload, std::string& reply,
                engine::Scratch& arena);
  MsgType close(Record& record, std::uint64_t id, std::string& reply);
  MsgType bad_request(std::string_view text, std::string& reply);
  MsgType overloaded(std::string& reply);

  engine::BatchSolver& solver_;
  const std::size_t max_sessions_;

  std::mutex mutex_;
  std::unordered_map<std::uint64_t, Record> records_;
  std::size_t open_ = 0;  ///< records with live state

  obs::Counter& m_bad_requests_;
  obs::Counter& m_shed_overloaded_;
  obs::Gauge& m_sessions_open_;
  obs::Counter& m_sessions_opened_;
  obs::Counter& m_sessions_closed_;
  obs::Counter& m_deltas_applied_;
  obs::Counter& m_deltas_rejected_;
  obs::Counter& m_plans_emitted_;
  obs::Counter& m_dup_frames_resent_;
  obs::Histogram& m_moves_per_plan_;
  obs::Histogram& m_replan_latency_ms_;
};

}  // namespace lrb::svc
