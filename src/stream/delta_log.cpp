#include "stream/delta_log.h"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/io.h"
#include "solver/registry.h"

namespace lrb::stream {

namespace {

constexpr const char* kMagic = "lrb-delta-log";

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Token stream that skips '#'-to-end-of-line comments (the same lexical
/// rules as core/io, so instance sections and delta lines mix freely).
class TokenReader {
 public:
  explicit TokenReader(std::istream& is) : is_(is) {}

  bool next(std::string& token) {
    while (is_ >> token) {
      if (token[0] == '#') {
        std::string rest;
        std::getline(is_, rest);
        continue;
      }
      return true;
    }
    return false;
  }

  bool next_u64(std::uint64_t& out) {
    std::string token;
    if (!next(token)) return false;
    try {
      std::size_t pos = 0;
      out = std::stoull(token, &pos);
      return pos == token.size() && token[0] != '-';
    } catch (...) {
      return false;
    }
  }

  bool next_i64(std::int64_t& out) {
    std::string token;
    if (!next(token)) return false;
    try {
      std::size_t pos = 0;
      out = std::stoll(token, &pos);
      return pos == token.size();
    } catch (...) {
      return false;
    }
  }

  bool next_double(double& out) {
    std::string token;
    if (!next(token)) return false;
    try {
      std::size_t pos = 0;
      out = std::stod(token, &pos);
      return pos == token.size();
    } catch (...) {
      return false;
    }
  }

 private:
  std::istream& is_;
};

void write_double(std::ostream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

}  // namespace

void write_delta_log(std::ostream& os, const DeltaLog& log) {
  os << kMagic << " 1\n";
  os << "trigger " << solver::backend_name(log.trigger.spec.backend) << ' '
     << log.trigger.move_budget << ' ';
  write_double(os, log.trigger.move_frac);
  os << ' ';
  write_double(os, log.trigger.imbalance_ratio);
  os << ' ' << log.trigger.delta_count << ' ';
  if (log.trigger.spec.params.budget >= kInfCost) {
    os << "inf";
  } else {
    os << log.trigger.spec.params.budget;
  }
  os << ' ';
  write_double(os, log.trigger.spec.params.eps);
  os << '\n';
  write_instance(os, log.initial);
  os << "deltas " << log.deltas.size() << '\n';
  for (const Delta& delta : log.deltas) {
    os << delta_kind_name(delta.kind);
    switch (delta.kind) {
      case DeltaKind::kJobArrive:
        os << ' ' << delta.id << ' ' << delta.size << ' ' << delta.move_cost
           << ' ';
        if (delta.proc == kAutoPlace) {
          os << "auto";
        } else {
          os << delta.proc;
        }
        break;
      case DeltaKind::kJobDepart:
      case DeltaKind::kProcAdd:
      case DeltaKind::kProcRemove:
      case DeltaKind::kProcDrain:
        os << ' ' << delta.id;
        break;
      case DeltaKind::kJobUpdate:
        os << ' ' << delta.id << ' ' << delta.size;
        break;
      case DeltaKind::kReplan:
        break;
    }
    os << '\n';
  }
}

std::string delta_log_to_string(const DeltaLog& log) {
  std::ostringstream oss;
  write_delta_log(oss, log);
  return oss.str();
}

std::optional<DeltaLog> read_delta_log(std::istream& is, std::string* error) {
  TokenReader reader(is);
  std::string token;
  std::uint64_t version = 0;
  if (!reader.next(token) || token != kMagic || !reader.next_u64(version) ||
      version != 1) {
    fail(error, "bad delta log header (want 'lrb-delta-log 1')");
    return std::nullopt;
  }
  DeltaLog log;
  if (!reader.next(token) || token != "trigger" || !reader.next(token)) {
    fail(error, "bad 'trigger' line");
    return std::nullopt;
  }
  // Canonical names AND registry aliases are accepted here; write_delta_log
  // always emits the canonical name.
  if (!solver::parse_backend(token, &log.trigger.spec.backend)) {
    fail(error, "unknown trigger algo '" + token + "'");
    return std::nullopt;
  }
  std::uint64_t move_budget = 0;
  std::uint64_t delta_count = 0;
  if (!reader.next_u64(move_budget) ||
      !reader.next_double(log.trigger.move_frac) ||
      !reader.next_double(log.trigger.imbalance_ratio) ||
      !reader.next_u64(delta_count)) {
    fail(error, "bad 'trigger' line");
    return std::nullopt;
  }
  log.trigger.move_budget = static_cast<std::uint32_t>(move_budget);
  log.trigger.delta_count = static_cast<std::uint32_t>(delta_count);
  if (!reader.next(token)) {
    fail(error, "bad 'trigger' line");
    return std::nullopt;
  }
  if (token == "inf") {
    log.trigger.spec.params.budget = kInfCost;
  } else {
    try {
      std::size_t pos = 0;
      log.trigger.spec.params.budget = std::stoll(token, &pos);
      if (pos != token.size()) throw std::invalid_argument(token);
    } catch (...) {
      fail(error, "bad solver budget '" + token + "'");
      return std::nullopt;
    }
  }
  if (!reader.next_double(log.trigger.spec.params.eps)) {
    fail(error, "bad 'trigger' line");
    return std::nullopt;
  }
  if (const auto problem = validate_trigger(log.trigger)) {
    fail(error, *problem);
    return std::nullopt;
  }
  auto initial = read_instance(is, error);
  if (!initial) return std::nullopt;
  log.initial = std::move(*initial);
  std::uint64_t count = 0;
  if (!reader.next(token) || token != "deltas" || !reader.next_u64(count)) {
    fail(error, "bad 'deltas' line");
    return std::nullopt;
  }
  log.deltas.reserve(std::min<std::uint64_t>(count, 1 << 20));
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!reader.next(token)) {
      fail(error, "truncated delta list at entry " + std::to_string(i));
      return std::nullopt;
    }
    Delta delta;
    bool ok = true;
    if (token == "arrive") {
      delta.kind = DeltaKind::kJobArrive;
      std::string proc;
      ok = reader.next_u64(delta.id) && reader.next_i64(delta.size) &&
           reader.next_i64(delta.move_cost) && reader.next(proc);
      if (ok) {
        if (proc == "auto") {
          delta.proc = kAutoPlace;
        } else {
          try {
            std::size_t pos = 0;
            delta.proc = std::stoull(proc, &pos);
            ok = pos == proc.size() && proc[0] != '-';
          } catch (...) {
            ok = false;
          }
        }
      }
    } else if (token == "depart") {
      delta.kind = DeltaKind::kJobDepart;
      ok = reader.next_u64(delta.id);
    } else if (token == "update") {
      delta.kind = DeltaKind::kJobUpdate;
      ok = reader.next_u64(delta.id) && reader.next_i64(delta.size);
    } else if (token == "proc-add") {
      delta.kind = DeltaKind::kProcAdd;
      ok = reader.next_u64(delta.id);
    } else if (token == "proc-remove") {
      delta.kind = DeltaKind::kProcRemove;
      ok = reader.next_u64(delta.id);
    } else if (token == "proc-drain") {
      delta.kind = DeltaKind::kProcDrain;
      ok = reader.next_u64(delta.id);
    } else if (token == "replan") {
      delta.kind = DeltaKind::kReplan;
    } else {
      fail(error, "unknown delta kind '" + token + "'");
      return std::nullopt;
    }
    if (!ok) {
      fail(error, "bad '" + token + "' delta at entry " + std::to_string(i));
      return std::nullopt;
    }
    log.deltas.push_back(delta);
  }
  return log;
}

std::optional<DeltaLog> delta_log_from_string(const std::string& text,
                                              std::string* error) {
  std::istringstream iss(text);
  return read_delta_log(iss, error);
}

DeltaLog delta_log_from_trace(const Instance& initial,
                              const std::vector<Event>& events,
                              const TriggerConfig& trigger) {
  DeltaLog log;
  log.initial = initial;
  log.trigger = trigger;
  log.deltas.reserve(events.size());
  const std::uint64_t base = initial.num_jobs();
  std::uint64_t arrivals = 0;
  for (const Event& event : events) {
    Delta delta;
    if (event.kind == EventKind::kArrive) {
      delta.kind = DeltaKind::kJobArrive;
      delta.id = base + arrivals++;
      delta.size = event.size;
      delta.move_cost = event.move_cost;
      delta.proc = kAutoPlace;
    } else {
      delta.kind = DeltaKind::kJobDepart;
      delta.id = base + event.arrival_index;
    }
    log.deltas.push_back(delta);
  }
  return log;
}

}  // namespace lrb::stream
