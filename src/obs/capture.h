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
 */

#ifndef VESPERA_OBS_CAPTURE_H
#define VESPERA_OBS_CAPTURE_H

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace vespera::obs {

class Counter;
class RateMeter;

/** One deferred Counter/RateMeter update. */
struct SideEffectOp
{
    enum class Kind : std::uint8_t {
        CounterAdd, ///< Counter::add(a)
        CounterSet, ///< Counter::set(a)
        RateAdd,    ///< RateMeter::add(a, b)
        Deferred,   ///< fn() — an order-dependent decision (see below)
    };
    Kind kind = Kind::CounterAdd;
    void *target = nullptr; ///< The Counter/RateMeter (never dangles:
                            ///< the registry owns them for process life).
    double a = 0;
    double b = 0;
    /// Kind::Deferred only. Some telemetry is not a plain accumulation
    /// but a decision over *call order* (e.g. `mme.reconfigs` fires
    /// when one GEMM's geometry differs from the previous call's).
    /// Such a decision made on a worker thread would depend on the
    /// interleaving, so it is logged as a closure instead and executed
    /// only at the *outermost* replay: replay under an enclosing
    /// capture re-appends the op rather than running it, so the
    /// closure always runs serially, in task-index order.
    std::function<void()> fn;
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

    bool empty() const { return ops_.empty(); }
    std::size_t size() const { return ops_.size(); }
    void clear() { ops_.clear(); }

    void append(SideEffectOp op) { ops_.push_back(std::move(op)); }

    /** Log an order-dependent decision to run at the outermost replay. */
    void appendDeferred(std::function<void()> fn)
    {
        SideEffectOp op;
        op.kind = SideEffectOp::Kind::Deferred;
        op.fn = std::move(fn);
        ops_.push_back(std::move(op));
    }

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

/**
 * RAII: while alive, counter updates by this thread go straight to
 * the shared atomics even under an enclosing ScopedCapture. For
 * host-side bookkeeping (e.g. the replay cache's own hit/miss/evict
 * counters) that must reflect what the process actually did: such
 * counters are excluded from the deterministic metrics document, and
 * deferring them into a capture log would double-count them when a
 * stored log is replayed per cache hit.
 */
class CaptureBypass
{
  public:
    CaptureBypass();
    ~CaptureBypass();

    CaptureBypass(const CaptureBypass &) = delete;
    CaptureBypass &operator=(const CaptureBypass &) = delete;

  private:
    SideEffectLog *prev_;
};

} // namespace vespera::obs

#endif // VESPERA_OBS_CAPTURE_H
