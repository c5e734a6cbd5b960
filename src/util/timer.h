// Monotonic wall-clock stopwatch (steady_clock).

#pragma once

#include <chrono>

namespace lrb {

class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() noexcept { start_ = clock::now(); }

  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  [[nodiscard]] double millis() const noexcept { return seconds() * 1e3; }
  [[nodiscard]] double micros() const noexcept { return seconds() * 1e6; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace lrb
