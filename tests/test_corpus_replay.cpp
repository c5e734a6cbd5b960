// Replays the committed regression corpus (tests/corpus/, see its
// README.md) on every test run:
//
//   * each *.lrb file — a fuzz-style minimized repro — goes through the
//     full differential harness: every backend certified, every proven
//     ratio respected — and through the cache path, every registry backend
//     cold and warm;
//   * each seed in chaos_seeds.txt is re-fought as a complete chaos
//     campaign: seeded fault injection around a real server with
//     byte-identical replies and zero lost/duplicated requests;
//   * each *.lrbd file — a pinned streaming-session transcript — is
//     replayed through stream::replay_serial_reference and then streamed
//     as a live session against a sharded server, every ack byte-compared
//     against the reference (docs/streaming.md).
//
// The corpus directory is baked in at build time (LRB_CORPUS_DIR), so the
// test needs no working-directory assumptions. An unreadable or malformed
// corpus entry is a test failure, not a skip: the corpus is a contract.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/differential.h"
#include "core/io.h"
#include "engine/batch_solver.h"
#include "obs/metrics.h"
#include "solver/registry.h"
#include "stream/delta_log.h"
#include "stream/replay.h"
#include "svc/fault/chaos.h"
#include "svc/server.h"
#include "svc/session_client.h"

#ifndef LRB_CORPUS_DIR
#error "LRB_CORPUS_DIR must point at the committed tests/corpus directory"
#endif

namespace lrb {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "unreadable corpus entry " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Pulls k / budget / known-opt out of a repro's "# k=..." header line.
DifferentialOptions parse_repro_options(const std::string& text,
                                        bool* found_k) {
  DifferentialOptions options;
  *found_k = false;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream words(line);
    std::string word;
    if (!(words >> word) || word != "#") continue;
    while (words >> word) {
      if (word.rfind("k=", 0) == 0) {
        options.k = std::stoll(word.substr(2));
        *found_k = true;
      } else if (word.rfind("budget=", 0) == 0) {
        options.budget = std::stoll(word.substr(7));
      } else if (word.rfind("known-opt=", 0) == 0) {
        options.known_opt = std::stoll(word.substr(10));
      }
    }
    if (*found_k) break;
  }
  return options;
}

std::vector<fs::path> corpus_files(const std::string& extension) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(LRB_CORPUS_DIR)) {
    if (entry.path().extension() == extension) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(CorpusReplay, EveryInstanceRepro) {
  const auto files = corpus_files(".lrb");
  ASSERT_FALSE(files.empty())
      << "no *.lrb entries under " << LRB_CORPUS_DIR;
  for (const auto& path : files) {
    SCOPED_TRACE(path.filename().string());
    const std::string text = slurp(path);
    bool found_k = false;
    const DifferentialOptions options = parse_repro_options(text, &found_k);
    EXPECT_TRUE(found_k) << "repro has no '# k=' header";
    std::string error;
    const auto instance = instance_from_string(text, &error);
    ASSERT_TRUE(instance) << error;
    const DifferentialReport report = differential_check(*instance, options);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

TEST(CorpusReplay, EveryInstanceReproThroughTheCachePath) {
  // The same corpus again, but through a cache-enabled BatchSolver: each
  // repro is solved twice per algorithm (cold miss, then warm hit) and
  // both replies must be byte-identical to cached_serial_reference
  // (docs/caching.md). Cached serving must never resurrect a fixed bug
  // differently from the serial path.
  obs::Registry registry;
  engine::BatchOptions options;
  options.workers = 2;
  options.cache_bytes = std::size_t{4} << 20;
  options.metrics = &registry;
  engine::BatchSolver solver(options);

  const auto files = corpus_files(".lrb");
  ASSERT_FALSE(files.empty());
  std::uint64_t solved = 0;
  for (const auto& path : files) {
    SCOPED_TRACE(path.filename().string());
    const std::string text = slurp(path);
    bool found_k = false;
    const DifferentialOptions repro = parse_repro_options(text, &found_k);
    ASSERT_TRUE(found_k);
    std::string error;
    const auto instance = instance_from_string(text, &error);
    ASSERT_TRUE(instance) << error;
    for (const auto& backend : solver::all_backends()) {
      // The PTAS DP is exponential in 1/eps: small repros only.
      if (backend.id == solver::BackendId::kPtas &&
          instance->num_jobs() > 12) {
        continue;
      }
      const solver::SolverSpec spec(backend.id, {.budget = repro.budget});
      const RebalanceResult want =
          engine::cached_serial_reference(spec, *instance, repro.k);
      engine::BatchSolver::TickItem item;
      item.instance = &*instance;
      item.k = repro.k;
      item.spec = spec;
      for (const char* pass : {"cold", "warm"}) {
        const auto got = solver.solve_items({&item, 1});
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(got[0].assignment, want.assignment)
            << backend.name << " " << pass;
        EXPECT_EQ(got[0].makespan, want.makespan);
        EXPECT_EQ(got[0].moves, want.moves);
        EXPECT_EQ(got[0].cost, want.cost);
        EXPECT_EQ(got[0].threshold, want.threshold);
      }
      ++solved;
    }
  }
  // The second pass per (repro, backend) is a guaranteed hit.
  EXPECT_GE(registry.counter("cache.hits").value(), solved);
}

TEST(CorpusReplay, EveryStreamTranscript) {
  const auto files = corpus_files(".lrbd");
  ASSERT_FALSE(files.empty())
      << "no *.lrbd entries under " << LRB_CORPUS_DIR;

  // One shared sharded server: the transcripts are replayed as live
  // sessions on top of the pure-reference pass, so both checkers stay
  // honest against the committed corpus.
  const std::string socket =
      "/tmp/lrb_corpus_stream_" + std::to_string(getpid()) + ".sock";
  obs::Registry registry;
  svc::ServerOptions server_options;
  server_options.unix_path = socket;
  server_options.metrics = &registry;
  server_options.reactors = 2;
  server_options.engine_workers = 2;
  server_options.engine.workers = 2;
  svc::Server server(std::move(server_options));
  std::string start_error;
  ASSERT_TRUE(server.start(&start_error)) << start_error;
  std::thread runner([&server] { server.run(); });

  std::uint64_t session_id = 1;
  for (const auto& path : files) {
    SCOPED_TRACE(path.filename().string());
    std::string error;
    const auto log = stream::delta_log_from_string(slurp(path), &error);
    ASSERT_TRUE(log) << error;

    // The pure reference must accept the transcript and be deterministic.
    const auto first = stream::replay_serial_reference(
        log->initial, log->trigger, log->deltas);
    ASSERT_TRUE(first.ok) << first.error;
    ASSERT_EQ(first.steps.size(), log->deltas.size());
    const auto again = stream::replay_serial_reference(
        log->initial, log->trigger, log->deltas);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.final_stats.digest, first.final_stats.digest);
    EXPECT_EQ(again.final_stats.makespan, first.final_stats.makespan);
    EXPECT_EQ(again.final_stats.plans_emitted, first.final_stats.plans_emitted);

    // And a live session must stream back the exact same bytes.
    svc::StreamRunOptions options;
    options.endpoint = svc::Endpoint::unix_socket(socket);
    options.session_id = session_id++;
    options.frame_size = 5;
    options.check = true;
    const auto run = svc::run_session_stream(*log, options);
    EXPECT_TRUE(run.ok) << run.error;
    EXPECT_EQ(run.mismatches, 0u);
    EXPECT_EQ(run.final_digest, first.final_stats.digest);
    EXPECT_EQ(run.deltas_applied + run.deltas_rejected, log->deltas.size());
  }

  server.notify_signal();
  runner.join();
  unlink(socket.c_str());
}

TEST(CorpusReplay, EveryChaosSeed) {
  const fs::path path = fs::path(LRB_CORPUS_DIR) / "chaos_seeds.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing " << path;
  std::vector<std::uint64_t> seeds;
  std::string line;
  while (std::getline(in, line)) {
    const auto start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    seeds.push_back(std::stoull(line.substr(start), nullptr, 0));
  }
  ASSERT_FALSE(seeds.empty()) << "no seeds in " << path;
  for (const std::uint64_t seed : seeds) {
    svc::fault::CampaignOptions options;
    options.seed = seed;
    options.clients = 2;
    options.requests_per_client = 4;
    options.check = true;
    const auto result = svc::fault::run_campaign(options);
    for (const auto& error : result.errors) {
      ADD_FAILURE() << "seed 0x" << std::hex << seed << ": " << error;
    }
    EXPECT_TRUE(result.ok) << result.summary();
  }
}

}  // namespace
}  // namespace lrb
