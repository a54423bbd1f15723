/**
 * @file
 * Fixed-memory streaming latency histograms.
 *
 * `common::Samples` retains every observation, which is fine for a
 * figure regeneration but incompatible with the ROADMAP's
 * millions-of-requests serving target. Histogram replaces it on the
 * serving hot path: log-bucketed (HdrHistogram-style), so memory is a
 * small constant (~8 KiB) regardless of sample count, while quantile
 * estimates stay within one bucket width — a bounded relative error of
 * `kGrowth - 1` (~4.4%).
 *
 * Quantiles are *conservative*: percentile() returns the upper edge of
 * the bucket holding the target rank (clamped to the observed max), so
 * the estimate never undershoots the true order statistic. That keeps
 * derived invariants like mean <= p99 stable when the exact collector
 * is swapped for the streaming one.
 *
 * Thread-safety: none. Mutate a shared Histogram from the serial path
 * only. A parallel task keeps its own histograms and returns them by
 * value; the caller merges them after the join, in index order, the
 * way serve::publish lands Engine::run's histograms (merge order
 * affects the bits of `sum()` — the same determinism contract
 * counters follow, docs/runtime.md).
 */

#ifndef VESPERA_OBS_HIST_H
#define VESPERA_OBS_HIST_H

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace vespera::obs {

/** Log-bucketed streaming histogram with fixed memory. */
class Histogram
{
  public:
    /// Values at or below this land in the underflow bucket (1 ps —
    /// far below any simulated latency we report).
    static constexpr double kMinTrackable = 1e-12;
    /// Buckets per power of two; relative bucket width 2^(1/16)-1.
    static constexpr int kBucketsPerOctave = 16;
    /// Octaves covered above kMinTrackable (up to ~1.8e7 seconds).
    static constexpr int kOctaves = 64;
    /// Underflow bucket + log buckets + overflow bucket.
    static constexpr int kBuckets = kOctaves * kBucketsPerOctave + 2;
    /// Upper bound on percentile() overestimation: estimate is in
    /// [exact, exact * kGrowth].
    static double growth();

    /**
     * Bucket geometry. The defaults are the compile-time constants
     * above — every registry histogram uses them — but a histogram
     * built for a different dynamic range (coarser buckets, fewer
     * octaves) may shrink them. Two histograms are merge-compatible
     * only when their layouts are equal: folding counts_ arrays with
     * different geometries silently miscounts every quantile, so
     * merge() asserts equality instead.
     */
    struct Layout
    {
        double minTrackable = kMinTrackable;
        int bucketsPerOctave = kBucketsPerOctave;
        int octaves = kOctaves;

        /// Underflow + log buckets + overflow.
        int
        buckets() const
        {
            return octaves * bucketsPerOctave + 2;
        }

        bool operator==(const Layout &) const = default;
    };

    Histogram() = default;
    explicit Histogram(std::string name) : name_(std::move(name)) {}
    /** A histogram with non-default geometry (storage stays fixed, so
        layout.buckets() must not exceed kBuckets). */
    Histogram(std::string name, Layout layout);

    const Layout &layout() const { return layout_; }

    /** Record one observation (negatives clamp to the underflow bucket). */
    void add(double v);

    /**
     * Fold `other` into this histogram. The layouts must be equal —
     * a mismatched merge is a hard failure (vassert), never a silent
     * miscount.
     */
    void merge(const Histogram &other);

    /**
     * The delta histogram `*this - earlier`, where `earlier` is a
     * previous snapshot (copy) of this histogram: every bucket count
     * of `earlier` must be <= the corresponding count here, and the
     * layouts must be equal — both are vasserted, never silently
     * wrong. Powers windowed percentile monitors (obs/timeline.h):
     * diffing consecutive snapshots yields the distribution of just
     * the samples recorded in between.
     *
     * min()/max() of the delta are reconstructed from the nonzero
     * delta buckets (conservative: bucket edges, with the overflow
     * bucket's edge supplied by this histogram's observed max), since
     * the exact extremes of the in-between samples are not recoverable
     * from two endpoint snapshots.
     */
    Histogram diff(const Histogram &earlier) const;

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /**
     * Conservative quantile estimate, p in [0, 100]: the upper edge of
     * the bucket containing the ceil(p/100 * count)-th smallest
     * sample, clamped to the observed max. 0 when empty.
     */
    double percentile(double p) const;

    const std::string &name() const { return name_; }

    /** One nonzero bucket, for exporters. */
    struct Bucket
    {
        double lo = 0;
        double hi = 0;
        std::uint64_t count = 0;
    };

    /** Nonzero buckets in ascending value order. */
    std::vector<Bucket> nonzeroBuckets() const;

    void reset();

    /// @name Bucket geometry (exposed for tests/exporters). The
    /// static forms use the default Layout; the Layout-taking forms
    /// serve histograms with custom geometry.
    /// @{
    static int bucketIndex(double v);
    static double bucketLo(int index);
    static double bucketHi(int index);
    static int bucketIndex(const Layout &layout, double v);
    static double bucketLo(const Layout &layout, int index);
    static double bucketHi(const Layout &layout, int index);
    /// @}

  private:
    std::string name_;
    Layout layout_;
    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t count_ = 0;
    double sum_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace vespera::obs

#endif // VESPERA_OBS_HIST_H
