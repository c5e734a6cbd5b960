// check_answer (svc/wire.h): which reply answers which request, as one
// table. It lives apart from wire.cpp because only clients call it; the
// server links wire.cpp's codecs and nothing from this file.

#include <optional>
#include <string>
#include <string_view>

#include "svc/wire.h"

namespace lrb::svc {

namespace {

/// Why `payload` does not decode with `Decode`, or nullopt when it does.
template <auto Decode>
std::optional<std::string> decode_problem(std::string_view payload) {
  std::string error;
  if (Decode(payload, &error)) return std::nullopt;
  return error;
}

/// Pong echoes the Ping payload, StatsOk carries JSON and DrainOk nothing:
/// any bytes are well-formed.
std::optional<std::string> any_payload(std::string_view) {
  return std::nullopt;
}

struct Answer {
  MsgType request;
  MsgType reply;
  std::optional<std::string> (*problem)(std::string_view payload);
};

constexpr Answer kAnswers[] = {
    {MsgType::kPing, MsgType::kPong, any_payload},
    {MsgType::kSolve, MsgType::kSolveOk,
     decode_problem<decode_solve_reply_payload>},
    {MsgType::kStats, MsgType::kStatsOk, any_payload},
    {MsgType::kDrain, MsgType::kDrainOk, any_payload},
    {MsgType::kSessionOpen, MsgType::kSessionOpenOk,
     decode_problem<decode_session_open_reply>},
    {MsgType::kSessionDelta, MsgType::kSessionDeltaOk,
     decode_problem<decode_session_delta_reply>},
    {MsgType::kSessionDelta, MsgType::kSessionPlan,
     decode_problem<decode_session_delta_reply>},
    {MsgType::kSessionStats, MsgType::kSessionStatsOk,
     decode_problem<decode_session_stats_reply>},
    {MsgType::kSessionClose, MsgType::kSessionCloseOk,
     decode_problem<decode_session_close_reply>},
};

}  // namespace

std::optional<std::string> check_answer(MsgType request, MsgType reply,
                                        std::string_view payload) {
  for (const Answer& answer : kAnswers) {
    if (answer.request != request || answer.reply != reply) continue;
    if (auto problem = answer.problem(payload)) {
      return "bad reply payload: " + *problem;
    }
    return std::nullopt;
  }
  return "unexpected reply type";
}

}  // namespace lrb::svc
