/**
 * @file
 * Replay caches: keyed value memos of pure kernel-cost evaluations.
 *
 * The serving sweeps cost the same kernels at the same shapes thousands
 * of times. The cost models return their costs and charge nothing
 * (hw/mme.h), so a memo stores the value only; the caller's fold
 * (graph::Executor::fold) charges it on every use, hit or miss. Cache
 * on and cache off thus charge bitwise-identical counters at any
 * thread count (tests/property/prop_replay_cache.cc); a caller that
 * takes one value n times may fold it once with count n instead
 * (serve/engine.h). Two instances:
 *  - the **node memo** (`replay.node.*`) stores one graph node's
 *    OpCost, keyed by its full cost payload + device, so a new context
 *    bucket re-evaluates only the attention node;
 *  - the **step memo** (`replay.step.*`) stores a model step's StepEval
 *    (models::LlamaModel::stepEval), skipping graph construction and
 *    compilation on repeat steps (the fig12 sweep point's >=3x gate).
 *
 * Both bypass themselves while the obs::Profiler traces. Their
 * `replay.<ns>.*` stats vary with --threads and process history, so
 * metrics documents exclude them; --selfprof also reports keyed hits
 * and misses in the host self-profile.
 */

#ifndef VESPERA_GRAPH_REPLAY_CACHE_H
#define VESPERA_GRAPH_REPLAY_CACHE_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/executor.h"
#include "graph/graph.h"
#include "obs/counters.h"
#include "obs/profiler.h"
#include "obs/selfprof.h"

namespace vespera::graph {

/**
 * Keyed value memo with LRU eviction. Thread-safe; the lock covers
 * only map access, never an evaluation.
 */
template <typename V>
class ReplayCache
{
  public:
    /** @param ns Stat namespace: counters are `replay.<ns>.*`. */
    ReplayCache(const char *ns, std::size_t capacity)
        : capacity_(capacity),
          hits_(obs::CounterRegistry::instance().counter(
              std::string("replay.") + ns + ".hits")),
          misses_(obs::CounterRegistry::instance().counter(
              std::string("replay.") + ns + ".misses")),
          inserts_(obs::CounterRegistry::instance().counter(
              std::string("replay.") + ns + ".inserts")),
          evictions_(obs::CounterRegistry::instance().counter(
              std::string("replay.") + ns + ".evictions"))
    {
    }

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /** Drop all entries (stat counters are left alone). */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mu_);
        map_.clear();
    }

    std::size_t
    entries() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return map_.size();
    }

    /**
     * Memoized evaluation: the stored value on a hit, else `fn()`,
     * stored. `fn` must be a pure cost evaluation. Bypasses itself
     * (plain `fn()`) while disabled or while the profiler is tracing.
     */
    template <typename Fn>
    V
    runMemoized(const std::string &key, Fn &&fn)
    {
        if (!enabled() || obs::Profiler::instance().enabled())
            return fn();

        {
            std::unique_lock<std::mutex> lock(mu_);
            auto it = map_.find(key);
            if (it != map_.end()) {
                it->second.lastUse = ++useTick_;
                V value = it->second.value;
                lock.unlock();
                hits_.add();
                if (obs::SelfProf::instance().enabled())
                    obs::SelfProf::instance().cacheHit(key);
                return value;
            }
        }

        misses_.add();
        if (obs::SelfProf::instance().enabled())
            obs::SelfProf::instance().cacheMiss(key);

        V value = fn();
        std::lock_guard<std::mutex> lock(mu_);
        auto [it, inserted] = map_.try_emplace(key);
        it->second.lastUse = ++useTick_;
        if (inserted) {
            it->second.value = value;
            inserts_.add();
            if (map_.size() > capacity_)
                evictLruLocked();
        }
        // else: a concurrent filler won the race; keep its entry.
        return value;
    }

  private:
    struct Entry
    {
        V value{};
        std::uint64_t lastUse = 0;
    };

    void
    evictLruLocked()
    {
        auto victim = map_.begin();
        for (auto it = map_.begin(); it != map_.end(); ++it) {
            if (it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (victim != map_.end()) {
            map_.erase(victim);
            evictions_.add();
        }
    }

    mutable std::mutex mu_;
    std::unordered_map<std::string, Entry> map_;
    std::uint64_t useTick_ = 0;
    std::size_t capacity_;
    std::atomic<bool> enabled_{true};
    obs::Counter &hits_;
    obs::Counter &misses_;
    obs::Counter &inserts_;
    obs::Counter &evictions_;
};

/**
 * What the step memo stores: a step's composed report, and each of
 * its graphs' per-node costs, to fold graph by graph on every use.
 */
struct StepEval
{
    ExecutionReport report;
    std::vector<std::vector<OpCost>> graphs;
};

/** Process-wide node-granularity memo (graph::Executor). */
ReplayCache<OpCost> &nodeReplayCache();

/** Process-wide step-granularity memo (models::LlamaModel). */
ReplayCache<StepEval> &stepReplayCache();

/**
 * Cache key for one graph node on one device: the node's complete
 * cost payload, so two nodes share a key only if costNode() is the
 * same pure function for both. Returns "" for nodes that cannot be
 * keyed — Custom nodes without a costSignature — which the executor
 * then evaluates uncached.
 */
std::string nodeReplayKey(const Node &node, DeviceKind device);

/** RAII: disable a cache for a scope (benchmark baselines, tests). */
class ReplayCacheDisable
{
  public:
    template <typename V>
    explicit ReplayCacheDisable(ReplayCache<V> &cache)
        : restore_([&cache, was = cache.enabled()] { cache.setEnabled(was); })
    {
        cache.setEnabled(false);
    }

    ~ReplayCacheDisable() { restore_(); }

    ReplayCacheDisable(const ReplayCacheDisable &) = delete;
    ReplayCacheDisable &operator=(const ReplayCacheDisable &) = delete;

  private:
    std::function<void()> restore_;
};

} // namespace vespera::graph

#endif // VESPERA_GRAPH_REPLAY_CACHE_H
