/**
 * @file
 * Replay cache: memoized kernel-cost evaluations that reproduce their
 * side effects bit-for-bit (ROADMAP item 2).
 *
 * The serving sweeps evaluate the same kernels at the same shapes
 * thousands of times: every decode step at a given (batch, context
 * bucket) costs the same GEMMs, vector ops and attention kernel
 * through the same analytic models. Those evaluations are pure
 * functions of (kernel, shape, device, granularity) — but they are
 * *observed* functions: each one charges obs counters, settles an
 * attribution breakdown, and may flip order-dependent telemetry like
 * `mme.reconfigs`. A value-only memo would silently change every
 * metrics document.
 *
 * The replay cache therefore memoizes the *pair* (value, side-effect
 * log). A miss runs the evaluation under an obs::ScopedCapture and
 * stores the value together with a **pristine copy** of the captured
 * log; the original log is then replayed so the miss behaves exactly
 * like an uncached evaluation. A hit replays a fresh copy of the
 * stored log — fresh, because Deferred ops (obs/capture.h) are
 * mutable closures: `mme.reconfigs`' closure settles its captured
 * breakdown on first invocation, so a copy taken *before* any
 * invocation is the only safe thing to re-run. Replay goes through
 * the public counter API, so a hit inside an enclosing capture (a
 * sweep point on a pool worker) defers outward exactly like the
 * fresh evaluation would have. Net effect: **cache on and cache off
 * produce bitwise-identical counters, histograms and attribution at
 * any thread count** — the property tests/property/prop_replay_cache.cc
 * pins down.
 *
 * Two instances cover the two granularities:
 *  - the **node cache** (`replay.node.*`) memoizes one graph node's
 *    OpCost in graph::Executor::run — keyed by the node's full cost
 *    payload + device, so a new context bucket re-evaluates only the
 *    attention node while the dozen shape-invariant GEMMs of the
 *    layer hit;
 *  - the **step cache** (`replay.step.*`) memoizes a whole model
 *    step's ExecutionReport in models::LlamaModel::stepReport —
 *    skipping graph construction and compilation entirely on repeat
 *    steps (the fig12 sweep point's ≥3× wall-time gate rides on
 *    this).
 *
 * Caches disable themselves while the obs::Profiler is tracing:
 * spans/timeline samples are not captured ops, so a replayed hit
 * could not reproduce them.
 *
 * Observability: hits/misses/inserts/evictions are `replay.<ns>.*`
 * counters updated under obs::CaptureBypass (true process-wide
 * counts) and excluded from the deterministic metrics document —
 * like `runtime.*`, they legitimately vary with --threads. Keyed
 * hit/miss attribution also lands in the host self-profile
 * (obs::SelfProf::cacheHit/cacheMiss) when --selfprof is on.
 */

#ifndef VESPERA_GRAPH_REPLAY_CACHE_H
#define VESPERA_GRAPH_REPLAY_CACHE_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "graph/executor.h"
#include "graph/graph.h"
#include "obs/capture.h"
#include "obs/counters.h"
#include "obs/profiler.h"
#include "obs/selfprof.h"

namespace vespera::graph {

/**
 * Keyed memo of (value, captured side-effect log) with LRU eviction.
 * Thread-safe; the lock covers only map access, never an evaluation
 * or a replay.
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

    void
    setCapacity(std::size_t capacity)
    {
        std::lock_guard<std::mutex> lock(mu_);
        capacity_ = capacity;
        while (map_.size() > capacity_)
            evictLruLocked();
    }

    std::size_t
    capacity() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return capacity_;
    }

    /**
     * Memoized evaluation. Hit: replay a pristine copy of the stored
     * log and return the stored value — observationally identical to
     * running `fn`. Miss: run `fn` under a capture, store (value,
     * pristine log copy), then replay the original so this call's
     * effects land exactly once. Bypasses itself (plain `fn()`) while
     * disabled or while the profiler is tracing.
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
                obs::SideEffectLog log = it->second.log;
                lock.unlock();
                {
                    obs::CaptureBypass bypass;
                    hits_.add();
                }
                if (obs::SelfProf::instance().enabled())
                    obs::SelfProf::instance().cacheHit(key);
                log.replay();
                return value;
            }
        }

        {
            obs::CaptureBypass bypass;
            misses_.add();
        }
        if (obs::SelfProf::instance().enabled())
            obs::SelfProf::instance().cacheMiss(key);

        obs::SideEffectLog log;
        V value;
        {
            obs::ScopedCapture capture(log);
            value = fn();
        }
        {
            std::unique_lock<std::mutex> lock(mu_);
            auto [it, inserted] = map_.try_emplace(key);
            if (inserted) {
                // Store the value and a pristine copy of the log NOW —
                // replaying first would consume the log and trip the
                // Deferred closures' one-shot state.
                it->second.value = value;
                it->second.log = log;
                it->second.lastUse = ++useTick_;
                {
                    obs::CaptureBypass bypass;
                    inserts_.add();
                }
                if (map_.size() > capacity_)
                    evictLruLocked();
            } else {
                // Concurrent filler won the race; keep its entry.
                it->second.lastUse = ++useTick_;
            }
        }
        // Apply this evaluation's own effects in the caller's context
        // (or append them to its enclosing capture).
        log.replay();
        return value;
    }

  private:
    struct Entry
    {
        V value{};
        obs::SideEffectLog log;
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
            obs::CaptureBypass bypass;
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

/** Process-wide node-granularity cache (graph::Executor). */
ReplayCache<OpCost> &nodeReplayCache();

/** Process-wide step-granularity cache (models::LlamaModel). */
ReplayCache<ExecutionReport> &stepReplayCache();

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
