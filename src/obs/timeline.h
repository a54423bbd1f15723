/**
 * @file
 * Virtual-time timeline telemetry: deterministic gauges sampled on the
 * simulated clock, windowed SLO monitors, and fixed-memory series.
 *
 * Everything else in the obs stack is an end-of-run aggregate. The
 * timeline layer records how serving signals *evolve over simulated
 * time*: a producer (today, serve::Engine) owns a run-local
 * TimelineRecorder, registers named gauges, and closes a window every
 * `interval` simulated seconds. Each window close emits one sample per
 * registered gauge — the series shape is stable whether or not a gauge
 * was touched that window — and evaluates SLO bounds, recording the
 * *virtual* timestamp of the first violation.
 *
 * Determinism contract (same as counters, docs/runtime.md):
 *
 *  - Samples are keyed by virtual time only. Nothing here reads a wall
 *    clock, and window boundaries are a pure function of the simulated
 *    schedule, so the recorded series is identical on both engine
 *    cores and at any `--threads`.
 *  - A recorder is run-local state. It must only be fed from the
 *    producer's serial decision path (the engine scheduler), never
 *    from inside a parallel region — `tools/check_capture_safety.py`
 *    lints for this.
 *  - A producer returns its run's payload by value (snapshot(); the
 *    engine hands it back in ServingMetrics). Publication into the
 *    process-wide Timeline singleton happens on the serial path after
 *    the sweep, in sweep-index order, so runs land in a deterministic
 *    order and with deterministic auto-assigned labels.
 *
 * When the Timeline is disabled (the default), producers skip recorder
 * creation entirely; the steady-state cost is one relaxed atomic load
 * per run, not per step.
 */

#ifndef VESPERA_OBS_TIMELINE_H
#define VESPERA_OBS_TIMELINE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace vespera::obs {

/** One timeline observation: (virtual timestamp, gauge value). */
struct TimelineSample
{
    Seconds t = 0;
    double value = 0;
};

/**
 * Fixed-memory ring of samples: keeps the latest `capacity`
 * observations and counts the ones it had to drop. Dropping the oldest
 * is deliberate — for SLO trajectories the steady-state tail matters
 * more than the warm-up head, and the drop count makes the truncation
 * visible in the exported document instead of silent.
 */
class TimelineSeries
{
  public:
    TimelineSeries(std::string name, std::size_t capacity);

    void append(Seconds t, double value);

    const std::string &name() const { return name_; }
    std::size_t size() const { return ring_.size(); }
    /** Samples appended over the series' lifetime. */
    std::uint64_t total() const { return total_; }
    /** Samples lost to the ring (oldest-first). */
    std::uint64_t dropped() const
    {
        return total_ - static_cast<std::uint64_t>(ring_.size());
    }

    /** Retained samples, oldest first. */
    std::vector<TimelineSample> samples() const;

  private:
    std::string name_;
    std::size_t capacity_;
    std::vector<TimelineSample> ring_;
    std::size_t next_ = 0; ///< Overwrite cursor once the ring is full.
    std::uint64_t total_ = 0;
};

/** An upper bound on a gauge: violated when value > bound. */
struct SloSpec
{
    std::string gauge;
    double bound = 0;
};

/** Outcome of one SLO monitor over one run (or merged runs). */
struct SloResult
{
    std::string gauge; ///< Recorder: gauge name. Singleton: label.gauge.
    double bound = 0;
    bool violated = false;
    Seconds firstViolationT = 0; ///< Virtual time of first violation.
    double firstViolationValue = 0;
};

/**
 * The publishable payload of one producer run: self-contained by
 * value, so it outlives the recorder (and its owning run state) and
 * can be returned to the caller that publishes it.
 */
struct TimelineRunData
{
    Seconds interval = 0;
    struct Series
    {
        std::string gauge;
        std::uint64_t dropped = 0;
        std::vector<TimelineSample> samples;
    };
    std::vector<Series> series;
    std::vector<SloResult> slos;
};

/**
 * Run-local windowed sampler. Single-threaded by contract (see file
 * header): owned by one producer run, fed from its serial path.
 *
 * Window semantics: windows are [k*interval, (k+1)*interval). The
 * producer calls set/add/max as events land, and closeWindow() when
 * the simulated clock reaches a boundary; every registered gauge emits
 * one sample timestamped at the window *end*. set() gauges keep their
 * last value as the emitted sample; add()/max() gauges reset to 0
 * after each close (per-window deltas / high-water marks).
 */
class TimelineRecorder
{
  public:
    TimelineRecorder(Seconds interval, std::size_t capacity,
                     std::vector<SloSpec> slos);

    /** Get-or-create a gauge; ids are dense and stable. */
    int gaugeId(const std::string &name);

    enum class Reset : std::uint8_t {
        Keep,   ///< set(): last value carries into the next window.
        Zero,   ///< add()/max(): per-window, cleared at close.
    };

    void set(int id, double v);        ///< Instantaneous level (Keep).
    void add(int id, double delta);    ///< Per-window delta (Zero).
    void max(int id, double v);        ///< Per-window high-water (Zero).

    Seconds interval() const { return interval_; }
    Seconds windowStart() const { return window_start_; }
    Seconds windowEnd() const { return window_start_ + interval_; }

    /** Emit every gauge at windowEnd(), evaluate SLOs, open the next
        window. */
    void closeWindow();
    /** Emit the trailing partial window at `t` (no-op when `t` is the
        current window start, i.e. the run ended exactly on a
        boundary). */
    void closeFinal(Seconds t);

    /** The run's payload, for Timeline::publishRun. */
    TimelineRunData snapshot() const;

  private:
    void emitAll(Seconds t);

    struct Gauge
    {
        std::string name;
        double value = 0;
        Reset reset = Reset::Keep;
        TimelineSeries series;
        const SloSpec *slo = nullptr; ///< Into slos_; stable.
        SloResult result;
    };

    Seconds interval_;
    std::size_t capacity_;
    Seconds window_start_ = 0;
    std::vector<SloSpec> slos_;
    std::vector<Gauge> gauges_;
    std::map<std::string, int> ids_;
};

/**
 * Process-wide timeline store and configuration. Configuration
 * (enable/interval/capacity/SLOs) is set from the serial path before
 * producers run — check_capture_safety.py flags configuration calls
 * inside parallel regions. Data arrives via publishRun(), called from
 * the serial path after a sweep (check_capture_safety.py flags it
 * inside parallel regions too); accessors take a mutex so exporters
 * may read concurrently with nothing in flight.
 */
class Timeline
{
  public:
    static Timeline &instance();

    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

    Seconds interval() const;
    /** Sampling interval in simulated seconds; must be > 0. */
    void setInterval(Seconds s);

    std::size_t capacity() const;
    /** Ring capacity per series; must be >= 1. */
    void setCapacity(std::size_t n);

    void addSlo(SloSpec spec);
    void clearSlos();
    std::vector<SloSpec> slos() const;

    /**
     * Land one run's payload. Empty label: assigned "run<k>" from a
     * counter that publication order makes deterministic. Series are
     * keyed "<label>.<gauge>"; a re-published label appends. When the
     * Profiler is tracing, samples also become Perfetto counter
     * tracks ("timeline.<label>.<gauge>").
     */
    void publishRun(const std::string &label, const TimelineRunData &data);

    struct SeriesView
    {
        std::string name;
        std::uint64_t dropped = 0;
        std::vector<TimelineSample> samples;
    };

    /** All series, name-ordered. */
    std::vector<SeriesView> series() const;
    /** All SLO results, name-ordered ("<label>.<gauge>"). */
    std::vector<SloResult> sloResults() const;
    bool hasData() const;
    /** Series beyond kMaxSeries discarded whole (flood guard). */
    std::uint64_t droppedSeries() const;

    /** Drop recorded data and the label counter; keep configuration. */
    void reset();

    /// Flood guard: a runaway producer loop (e.g. an adaptive timing
    /// loop publishing auto-labelled runs) caps out instead of growing
    /// without bound.
    static constexpr std::size_t kMaxSeries = 4096;

  private:
    Timeline() = default;

    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    Seconds interval_ = 1.0;
    std::size_t capacity_ = 512;
    std::vector<SloSpec> slos_;
    std::map<std::string, TimelineSeries> series_;
    std::map<std::string, SloResult> slo_results_;
    std::uint64_t run_counter_ = 0;
    std::uint64_t dropped_series_ = 0;
};

} // namespace vespera::obs

#endif // VESPERA_OBS_TIMELINE_H
