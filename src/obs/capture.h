/**
 * @file
 * Deferred counter side effects — the mechanism behind the parallel
 * runtime's determinism contract (docs/runtime.md).
 *
 * Counter totals are doubles, and double addition is not associative:
 * letting worker threads race `Counter::add` calls would make the
 * final bits depend on the interleaving, so `--metrics` JSON could
 * never be byte-identical across thread counts. Instead, a task that
 * must stay deterministic runs under a ScopedCapture: every
 * Counter/RateMeter update on that thread is appended to a private
 * SideEffectLog instead of touching the shared atomics. After the
 * fork/join point, the runtime replays the logs in task-index order —
 * exactly the sequence a serial execution would have produced — so
 * values, peaks, and update counts come out bit-identical at any
 * thread count.
 *
 * Replay goes back through the public Counter/RateMeter API, so a
 * replay performed inside an enclosing capture (nested parallel_for)
 * simply appends to the outer log; nesting composes with no special
 * cases.
 *
 * A log holds counter updates only. Order-dependent telemetry never
 * enters it: cost models and the serving engine return their costs,
 * histograms and timelines as values, and their callers publish them
 * after the join, in index order (graph::Executor::fold,
 * serve::publish). Attributed spans, which only the trace file shows,
 * are recorded at charge time (obs/attrib.h).
 */

#ifndef VESPERA_OBS_CAPTURE_H
#define VESPERA_OBS_CAPTURE_H

#include <cstdint>
#include <vector>

namespace vespera::obs {

class Counter;
class RateMeter;

/** One deferred Counter/RateMeter update. */
struct SideEffectOp
{
    enum class Kind : std::uint8_t {
        CounterAdd, ///< Counter::add(a, b): b is the update count
        CounterSet, ///< Counter::set(a, b): b is the update count
        RateAdd,    ///< RateMeter::add(a, b)
    };
    Kind kind = Kind::CounterAdd;
    void *target = nullptr; ///< The Counter/RateMeter (never dangles:
                            ///< the registry owns them for process life).
    double a = 0;
    double b = 0;
};

/**
 * An ordered log of counter updates recorded by one captured task.
 * Not thread-safe: each log belongs to exactly one task at a time.
 */
class SideEffectLog
{
  public:
    /**
     * Apply the ops in recorded order and clear the log. Runs through
     * the public API, so replay under an active capture nests.
     */
    void replay();

    void append(SideEffectOp op) { ops_.push_back(op); }

  private:
    std::vector<SideEffectOp> ops_;
};

/**
 * RAII: while alive, every Counter/RateMeter update made by *this
 * thread* is appended to `log` instead of applied. Captures nest by
 * shadowing (inner capture wins until destroyed).
 */
class ScopedCapture
{
  public:
    explicit ScopedCapture(SideEffectLog &log);
    ~ScopedCapture();

    ScopedCapture(const ScopedCapture &) = delete;
    ScopedCapture &operator=(const ScopedCapture &) = delete;

    /** The log capturing this thread's updates, or nullptr if live. */
    static SideEffectLog *current();

  private:
    SideEffectLog *prev_;
};

} // namespace vespera::obs

#endif // VESPERA_OBS_CAPTURE_H
