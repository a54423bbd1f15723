/**
 * @file
 * The benchmark's workloads: seeded job lists over vespera's public
 * entry points.
 *
 * A workload is built once per process (the timed set-up: job-list and
 * trace synthesis, model construction, table materialization, kernel
 * registration) and then runs its jobs by index, as often as the
 * passes in main.cc ask. The program only ever sees the generated
 * configs; the seed stays on this side.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"

namespace perfbench {

/** What a traced pass collects: spans plus per-layer counts. */
struct Tracer
{
    SpanRecorder spans;
    /// Counts and sums keyed by per-layer metric name
    /// ("tpc.instrs", "serve.steps", ...), summed over traced passes.
    std::map<std::string, double> tally;
    /// First-slice recording spans of each TPC launch, whose start
    /// cannot be observed from outside (it follows host data set-up
    /// inside the kern call): (span id, instructions). Their start is
    /// placed from the pass-wide recording cost per instruction.
    std::vector<std::pair<std::int64_t, std::uint64_t>> pendingRecord;

    void add(const std::string &key, double v) { tally[key] += v; }
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Jobs in one pass. */
    virtual std::size_t size() const = 0;

    /** The job's generated config, on one line. */
    virtual std::string describe(std::size_t job) const = 0;

    /**
     * Run one job and return the digest of its simulated outputs.
     * With a tracer the job also records spans and per-layer counts.
     * Must be safe to call from two pool workers at once.
     */
    virtual std::string run(std::size_t job, Tracer *tracer) = 0;

    /** Extra per-layer probes, run once after the traced passes. */
    virtual void probe(Tracer &) {}
};

/** Current value of a program counter (0 when never registered). */
double counterValue(const char *name);

/**
 * Build a workload's job list and shared state for `seed` (this is
 * the set-up the benchmark times). Set-up spans go to `setup_tracer`
 * when non-null. Returns null for an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       Tracer *setup_tracer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
