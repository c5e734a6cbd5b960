// Sharded, byte-bounded LRU cache of canonical rebalancing solutions
// (docs/caching.md).
//
// Keys are 128-bit fingerprints over the canonical cache key bytes
// (cache/canonical.h); values are RebalanceResults in CANONICAL labels —
// callers map them back through their own recorded permutation. Every hit
// re-verifies the stored key bytes, so a fingerprint collision degrades to
// a miss instead of serving a wrong or mis-permuted plan.
//
// Concurrency: N mutex-guarded shards (fingerprint.hi selects the shard);
// a lookup touches exactly one shard mutex. Concurrent identical misses
// are single-flighted: the first caller becomes the leader and solves, the
// rest (under the default WaitMode::kBlock) block on the shard's condition
// variable and receive the leader's published result directly — identical
// requests racing in from many connections, ticks or reactors solve
// exactly once. The engine probes this way on every path
// (engine/batch_solver.h).
//
// Why a blocking probe cannot deadlock: between lookup_or_begin and its
// publish() or cancel(), a leader holds no lock and waits for nothing; it
// only runs its own solve, and solves never touch a ThreadPool. So every
// waiter waits for a thread that is running, never for one that waits in
// turn. A caller whose leader could wait on something before it publishes
// (a pool task, another key) must probe with WaitMode::kNoBlock instead.
//
// Capacity: max_bytes is divided evenly across shards; each shard evicts
// from its own LRU tail while over budget. Accounted bytes per entry =
// key bytes + assignment bytes + a fixed bookkeeping estimate, exported
// live as the cache.bytes / cache.entries gauges.
//
// Metrics (obs registry): cache.hits, cache.misses, cache.evictions,
// cache.inserts, cache.single_flight_waits, cache.single_flight_bypass
// counters; cache.bytes, cache.entries gauges.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/canonical.h"
#include "core/assignment.h"
#include "obs/metrics.h"

namespace lrb::cache {

struct CacheOptions {
  /// Total byte budget across all shards. Must be > 0 (a zero-byte cache
  /// is expressed by not constructing one).
  std::size_t max_bytes = std::size_t{64} << 20;
  /// Shard count; rounded up to a power of two, at least 1.
  std::size_t shards = 8;
  /// Metrics sink for the cache.* counters/gauges.
  obs::Registry* metrics = &obs::Registry::global();
};

class SolutionCache {
 public:
  explicit SolutionCache(CacheOptions options = {});

  SolutionCache(const SolutionCache&) = delete;
  SolutionCache& operator=(const SolutionCache&) = delete;

  /// Outcome of a single-flight probe.
  struct Probe {
    /// True: `result` holds the cached canonical solution (either from the
    /// LRU store or handed over by a concurrent leader).
    bool hit = false;
    /// True: this caller is the leader for the key and MUST call publish()
    /// (or cancel() on failure) exactly once. False with !hit: solve
    /// without caching (fingerprint collision with an in-flight leader —
    /// pathological, but never blocks and never shares a wrong result).
    bool leader = false;
    RebalanceResult result;
  };

  /// How a probe treats an identical key already being solved by another
  /// thread.
  enum class WaitMode {
    /// Block on the shard cv until that leader publishes or cancels
    /// (counted in cache.single_flight_waits).
    kBlock,
    /// Never block: report a plain miss with no leadership, so the caller
    /// solves uncached (counted in cache.single_flight_bypass; the leader
    /// still publishes for future probes). For callers that break the
    /// invariant above; the engine does not.
    kNoBlock,
  };

  /// Single-flight probe: hit, leader duty, or (rarely) solve-uncached.
  /// Under WaitMode::kBlock, blocks while an identical key is being
  /// solved by another thread; under kNoBlock it never blocks.
  [[nodiscard]] Probe lookup_or_begin(const Fingerprint& fp,
                                      std::string_view key,
                                      WaitMode wait = WaitMode::kBlock);

  /// Publishes the leader's result: inserts it into the LRU store (evicting
  /// while over budget) and wakes every waiter with a copy.
  void publish(const Fingerprint& fp, std::string_view key,
               const RebalanceResult& result);

  /// Abandons leadership without a result; one waiter is promoted to
  /// leader, the rest keep waiting.
  void cancel(const Fingerprint& fp, std::string_view key);

  /// Plain probe without single-flight registration (tests, read paths).
  [[nodiscard]] std::optional<RebalanceResult> lookup(const Fingerprint& fp,
                                                      std::string_view key);

  /// Plain insert without single-flight (tests, warm-up tooling).
  void insert(const Fingerprint& fp, std::string_view key,
              const RebalanceResult& result);

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  /// Live totals across shards (exact; takes every shard mutex).
  [[nodiscard]] std::size_t bytes() const;
  [[nodiscard]] std::size_t entries() const;

  /// Accounted footprint of one entry (exposed for the accounting tests).
  [[nodiscard]] static std::size_t entry_bytes(std::size_t key_size,
                                               std::size_t num_jobs);

 private:
  struct Entry {
    Fingerprint fp;
    std::string key;
    RebalanceResult result;
    std::size_t bytes = 0;
  };
  using LruList = std::list<Entry>;

  /// Single-flight rendezvous for one in-flight key. Waiters hold a
  /// shared_ptr so a published result survives even if it is evicted
  /// before they wake.
  struct InFlight {
    std::string key;
    bool done = false;
    bool cancelled = false;
    RebalanceResult result;
  };

  struct Shard {
    std::mutex mutex;
    std::condition_variable cv;
    LruList lru;  ///< front = most recently used
    std::unordered_map<Fingerprint, LruList::iterator, FingerprintHash> map;
    std::unordered_map<Fingerprint, std::shared_ptr<InFlight>,
                       FingerprintHash>
        inflight;
    std::size_t bytes = 0;
  };

  Shard& shard_for(const Fingerprint& fp) noexcept {
    return *shards_[fp.hi & shard_mask_];
  }
  void insert_locked(Shard& shard, const Fingerprint& fp,
                     std::string_view key, const RebalanceResult& result);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_mask_ = 0;
  std::size_t shard_capacity_ = 0;

  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& evictions_;
  obs::Counter& inserts_;
  obs::Counter& single_flight_waits_;
  obs::Counter& single_flight_bypass_;
  obs::Gauge& bytes_gauge_;
  obs::Gauge& entries_gauge_;
};

}  // namespace lrb::cache
