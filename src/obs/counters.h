/**
 * @file
 * Process-wide registry of named device counters.
 *
 * The role the Intel Gaudi Profiler's hardware counters play in the
 * paper (Section 3.2): every engine model publishes what it did —
 * `mme.flops`, `tpc.stall_cycles`, `hbm.bytes_read`, `kv.blocks_in_use`
 * — into one flat namespace with dotted hierarchical names, and the
 * exporters (obs/export.h) turn a snapshot into the metrics JSON,
 * Perfetto counter tracks, and the end-of-run summary table.
 *
 * Counters are cheap enough to leave always-on in model hot paths:
 * lookup happens once (cache the reference), updates are lock-free
 * atomics.
 */

#ifndef VESPERA_OBS_COUNTERS_H
#define VESPERA_OBS_COUNTERS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/hist.h"

namespace vespera::obs {

/**
 * One named counter. `add` accumulates a monotonic total; `set` gives
 * gauge semantics (last value wins). Both maintain a high-water mark
 * and an update count. All updates are lock-free and thread-safe.
 *
 * Under an active obs::ScopedCapture (see capture.h) updates on that
 * thread are deferred into the capture's SideEffectLog instead of
 * applied — how the parallel runtime keeps counter totals
 * bit-identical at any thread count.
 */
class Counter
{
  public:
    explicit Counter(std::string name) : name_(std::move(name)) {}

    /**
     * Accumulate `v` into the total (thread-safe), counted as
     * `updates` updates: add(v, n) leaves the same value, peak and
     * update count as n add() calls of non-negative amounts summing
     * to `v`. n = 0 records nothing.
     */
    void add(double v = 1.0, std::uint64_t updates = 1);

    /**
     * Gauge write: replace the value, update the high-water mark.
     * set(v, n) equals n set(v) calls; n = 0 records nothing.
     */
    void set(double v, std::uint64_t updates = 1);

    double value() const { return value_.load(std::memory_order_relaxed); }

    /** Largest value ever observed (gauge high-water mark). */
    double peak() const { return peak_.load(std::memory_order_relaxed); }

    /** Number of add/set calls since construction or reset. */
    std::uint64_t updates() const
    {
        return updates_.load(std::memory_order_relaxed);
    }

    const std::string &name() const { return name_; }

    void reset();

  private:
    void bumpPeak(double candidate);

    const std::string name_;
    std::atomic<double> value_{0.0};
    std::atomic<double> peak_{0.0};
    std::atomic<std::uint64_t> updates_{0};
};

/**
 * Accumulates (amount, elapsed) pairs and exposes the mean rate —
 * e.g. achieved HBM GB/s over the bytes a model actually moved.
 * Thread-safe like Counter.
 */
class RateMeter
{
  public:
    explicit RateMeter(std::string name) : name_(std::move(name)) {}

    /** Record `amount` units transferred/produced over `dt` seconds. */
    void add(double amount, Seconds dt);

    double total() const { return total_.load(std::memory_order_relaxed); }
    Seconds elapsed() const
    {
        return elapsed_.load(std::memory_order_relaxed);
    }

    /** Mean rate in units/second (0 before any time elapsed). */
    double rate() const;

    const std::string &name() const { return name_; }

    void reset();

  private:
    const std::string name_;
    std::atomic<double> total_{0.0};
    std::atomic<double> elapsed_{0.0};
};

/** Point-in-time view of one counter (see CounterRegistry::snapshot). */
struct CounterSnapshot
{
    std::string name;
    double value = 0;
    double peak = 0;
    std::uint64_t updates = 0;
};

/**
 * The process-wide counter namespace. Names are dotted paths
 * ("engine.prefill.tokens"); the registry supports subtree rollups over
 * that hierarchy. Registration is mutex-guarded; returned references
 * stay valid for the process lifetime (reset zeroes, never removes).
 */
class CounterRegistry
{
  public:
    /** The process-wide instance every model reports into. */
    static CounterRegistry &instance();

    CounterRegistry() = default;
    CounterRegistry(const CounterRegistry &) = delete;
    CounterRegistry &operator=(const CounterRegistry &) = delete;

    /** Get-or-create a counter; the reference never dangles. */
    Counter &counter(const std::string &name);

    /** Get-or-create a rate meter. */
    RateMeter &rate(const std::string &name);

    /**
     * Get-or-create a streaming latency histogram (obs/hist.h).
     * Unlike counters, Histogram mutation is NOT thread-safe or
     * capture-deferred: publish into registry histograms from the
     * serial path only, the way serve::publish merges the histograms
     * a sweep's Engine::run calls returned, in sweep-index order.
     */
    Histogram &histogram(const std::string &name);

    /** Lookup without creating; nullptr when absent. */
    const Counter *find(const std::string &name) const;
    const RateMeter *findRate(const std::string &name) const;
    const Histogram *findHistogram(const std::string &name) const;

    /**
     * Sum of `value()` over the counter named `prefix` (if any) and
     * every counter in its dotted subtree ("mme" covers "mme.flops"
     * and "mme.cfg.reconfigs" but not "mmex.y").
     */
    double rollup(const std::string &prefix) const;

    /** Name-ordered snapshot of all counters. */
    std::vector<CounterSnapshot> snapshot() const;

    /** Name-ordered list of registered rate meters. */
    std::vector<const RateMeter *> rates() const;

    /** Name-ordered list of registered histograms. */
    std::vector<const Histogram *> histograms() const;

    /** Zero every counter and rate meter (names stay registered). */
    void reset();

    std::size_t size() const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<RateMeter>> rates_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace vespera::obs

#endif // VESPERA_OBS_COUNTERS_H
