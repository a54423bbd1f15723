/**
 * @file
 * In-memory span recorder for the benchmark's traced pass.
 *
 * Spans are recorded from the benchmark's own code, around its calls
 * into each simulator layer. Every span carries the id of the job it
 * belongs to and a link to the span that caused it; per-layer self
 * time (a span's duration minus the part its children cover) is
 * derived from them, and they are written out as Perfetto/Chrome
 * trace JSON when the run ends. The recorder is single-threaded: the
 * traced pass runs its jobs one at a time.
 *
 * obs::Profiler is deliberately not used: enabling it switches the
 * graph replay caches off, which would change the serving workload's
 * behaviour under measurement.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic host clock in seconds (CLOCK_MONOTONIC). */
double nowSeconds();

struct SpanRecord
{
    std::string name;    ///< "<layer>.<what>", e.g. "tpc.record".
    double start = 0;    ///< nowSeconds() at open.
    double end = -1;     ///< nowSeconds() at close; -1 while open.
    std::int64_t job = -1;
    std::int64_t parent = -1; ///< Index of the causing span; -1 = root.
    std::string detail;  ///< Free text (job spans: the job's config).
};

class SpanRecorder
{
  public:
    /** Spans recorded from here on belong to `job`. */
    void setJob(std::int64_t job) { job_ = job; }

    /** Open a span under the innermost open span; returns its id. */
    std::int64_t open(std::string name, std::string detail = {});
    /** Close the innermost open span, which must be `id`. */
    void close(std::int64_t id);

    /** Record an already-closed span with explicit bounds. */
    std::int64_t add(std::string name, double start, double end,
                     std::int64_t parent);

    /** Innermost open span, or -1. */
    std::int64_t current() const
    {
        return stack_.empty() ? -1 : stack_.back();
    }

    const std::vector<SpanRecord> &spans() const { return spans_; }
    SpanRecord &at(std::int64_t id)
    {
        return spans_[static_cast<std::size_t>(id)];
    }

    /**
     * Total self time in seconds per span name: each span's duration
     * minus the union of its children's intervals within it.
     */
    std::map<std::string, double> selfTimeByName() const;

    /** Write the spans as Perfetto-readable trace-event JSON. */
    bool writePerfetto(const std::string &path,
                       const std::string &process_name) const;

  private:
    std::vector<SpanRecord> spans_;
    std::vector<std::int64_t> stack_;
    std::int64_t job_ = -1;
};

/** RAII span; a no-op when the recorder is null (untraced passes). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const char *name,
               std::string detail = {})
        : rec_(rec), id_(rec ? rec->open(name, std::move(detail)) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *rec_;
    std::int64_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
