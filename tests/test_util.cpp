// Unit tests for src/util: rng determinism and distribution sanity, summary
// statistics, table rendering, and the thread pool.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace lrb {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LE(same, 1);
}

TEST(Rng, UniformIntInRangeAndCoversEndpoints) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, Uniform01InHalfOpenRange) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  OnlineStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  OnlineStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkDecorrelates) {
  Rng a(99);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LE(same, 1);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  shuffle(std::span<int>(v), rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(37);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  shuffle(std::span<int>(v), rng);
  int fixed = 0;
  for (int i = 0; i < 100; ++i) fixed += (v[static_cast<std::size_t>(i)] == i);
  EXPECT_LT(fixed, 20);
}

TEST(Zipf, RankZeroMostLikelyAndMonotone) {
  Rng rng(41);
  ZipfSampler sampler(10, 1.5);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 200000; ++i) ++hits[sampler(rng)];
  EXPECT_GT(hits[0], hits[1]);
  EXPECT_GT(hits[1], hits[5]);
  EXPECT_GT(hits[5], 0);
}

TEST(Zipf, AlphaZeroIsUniform) {
  Rng rng(43);
  ZipfSampler sampler(4, 0.0);
  std::vector<int> hits(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++hits[sampler(rng)];
  for (int h : hits) EXPECT_NEAR(static_cast<double>(h) / n, 0.25, 0.01);
}

TEST(Stats, OnlineMatchesClosedForm) {
  OnlineStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.variance(), 1.25);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Stats, SummaryPercentiles) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  const auto s = summarize(samples);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p50, 50.5, 1e-9);
  EXPECT_NEAR(s.p90, 90.1, 1e-9);
  EXPECT_NEAR(s.mean, 50.5, 1e-9);
}

TEST(Stats, SummaryEmptyIsZero) {
  const auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, PercentileSortedInterpolates) {
  const std::vector<double> sorted{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 1.0), 10.0);
}

TEST(Stats, PercentileSortedIsTotal) {
  // The function is total so metrics snapshots can call it unconditionally:
  // empty input yields 0, out-of-range q clamps, NaN q means the minimum.
  EXPECT_DOUBLE_EQ(percentile_sorted({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted({}, -3.0), 0.0);
  const std::vector<double> sorted{2.0, 4.0, 8.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, -1.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 2.0), 8.0);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, -inf), 2.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, inf), 8.0);
  EXPECT_DOUBLE_EQ(
      percentile_sorted(sorted, std::numeric_limits<double>::quiet_NaN()),
      2.0);
  const std::vector<double> one{7.5};
  EXPECT_DOUBLE_EQ(percentile_sorted(one, 0.0), 7.5);
  EXPECT_DOUBLE_EQ(percentile_sorted(one, 0.5), 7.5);
  EXPECT_DOUBLE_EQ(percentile_sorted(one, 1.0), 7.5);
}

TEST(Stats, Geomean) {
  const std::vector<double> v{1.0, 4.0};
  EXPECT_DOUBLE_EQ(geomean(v), 2.0);
}

TEST(Stats, LogLogSlopeRecoversExponent) {
  std::vector<double> x, y;
  for (double v : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    x.push_back(v);
    y.push_back(3.0 * v * v);  // slope 2 in log-log space
  }
  EXPECT_NEAR(loglog_slope(x, y), 2.0, 1e-9);
}

TEST(Stats, FormatDouble) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(0.123456, 3), "0.123");
}

TEST(Table, AlignedRendering) {
  Table t({"name", "value"});
  t.row().add("alpha").add(std::int64_t{42});
  t.row().add("b").add(1.5);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"a", "b"});
  t.row().add("x,y").add("say \"hi\"");
  std::ostringstream oss;
  t.print_csv(oss);
  EXPECT_NE(oss.str().find("\"x,y\""), std::string::npos);
  EXPECT_NE(oss.str().find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  parallel_for(pool, 0, 50, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  parallel_for(pool, 5, 5, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsPendingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    // One long task wedges the single worker so the rest are still queued
    // when the destructor runs; it must finish them, not drop them.
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++counter;
      });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ManyProducersStress) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  producers.reserve(8);
  for (int p = 0; p < 8; ++p) {
    producers.emplace_back([&pool, &counter] {
      std::vector<std::future<void>> futures;
      futures.reserve(200);
      for (int i = 0; i < 200; ++i) {
        futures.push_back(pool.submit([&counter] { ++counter; }));
      }
      for (auto& f : futures) f.get();
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(counter.load(), 8 * 200);
}

TEST(ThreadPool, TryRunOneExecutesQueuedTask) {
  ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  auto blocker = pool.submit([&started, &release] {
    started = true;
    while (!release.load()) std::this_thread::yield();
  });
  // Only submit more work once the single worker is provably wedged inside
  // the blocker; otherwise try_run_one below could pop the blocker itself
  // and spin forever on the calling thread.
  while (!started.load()) std::this_thread::yield();
  std::atomic<int> counter{0};
  auto queued = pool.submit([&counter] { ++counter; });
  EXPECT_TRUE(pool.try_run_one());
  EXPECT_EQ(counter.load(), 1);
  EXPECT_FALSE(pool.try_run_one());
  release = true;
  blocker.get();
  queued.get();
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::array<std::array<std::atomic<int>, 8>, 8> hits{};
  // More outer iterations than workers, each spawning an inner
  // parallel_for: without caller-helping this wedges the pool.
  parallel_for(pool, 0, 8, [&](std::size_t i) {
    parallel_for(pool, 0, 8, [&](std::size_t j) { ++hits[i][j]; });
  });
  for (auto& row : hits) {
    for (auto& h : row) EXPECT_EQ(h.load(), 1);
  }
}

TEST(Timer, MeasuresElapsed) {
  Timer timer;
  const double t0 = timer.seconds();
  EXPECT_GE(t0, 0.0);
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GT(sink, 0.0);
  EXPECT_GE(timer.seconds(), t0);
  timer.reset();
  EXPECT_LT(timer.seconds(), 1.0);
}

}  // namespace
}  // namespace lrb

namespace lrb {
namespace {

TEST(Rng, ParetoTailAndSupport) {
  Rng rng(47);
  OnlineStats stats;
  double biggest = 0;
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.pareto(2.0, 1.0);
    ASSERT_GE(v, 1.0);
    stats.add(std::min(v, 1e6));
    biggest = std::max(biggest, v);
  }
  // Mean of Pareto(2, 1) is alpha/(alpha-1) = 2.
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
  // Heavy tail: some sample far above the mean.
  EXPECT_GT(biggest, 50.0);
}

TEST(Rng, ParetoShapeControlsTail) {
  Rng rng(53);
  double heavy_max = 0, light_max = 0;
  for (int i = 0; i < 50000; ++i) {
    heavy_max = std::max(heavy_max, rng.pareto(1.1, 1.0));
    light_max = std::max(light_max, rng.pareto(4.0, 1.0));
  }
  EXPECT_GT(heavy_max, 20 * light_max);
}

}  // namespace
}  // namespace lrb

#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace lrb {
namespace {

TEST(Table, CsvFileRoundTrip) {
  // The bench harness writes tables as CSV files (LRB_CSV_DIR); verify a
  // written file parses back line-for-line.
  Table t({"n", "time"});
  t.row().add(std::int64_t{1024}).add(3.5);
  t.row().add(std::int64_t{2048}).add(7.25);
  const auto path = std::filesystem::temp_directory_path() / "lrb_table.csv";
  {
    std::ofstream out(path);
    t.print_csv(out);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "n,time");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "1024,3.5");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "2048,7.25");
  EXPECT_FALSE(std::getline(in, line));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace lrb
