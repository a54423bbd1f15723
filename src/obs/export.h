/**
 * @file
 * Telemetry exporters: the three ways a run's observability data
 * leaves the process.
 *
 *  1. chromeTraceJson — Chrome/Perfetto trace with spans *and* counter
 *     tracks interleaved (open at ui.perfetto.dev), the view the paper
 *     reasoned from when reverse-engineering the Gaudi graph compiler.
 *  2. metricsJson — schema-versioned machine-readable document
 *     (`vespera-metrics/v2`) for BENCH_*.json-style trajectory
 *     tracking across commits (diff two with tools/vespera-stat).
 *  3. printCounterSummary — human-readable end-of-run table.
 */

#ifndef VESPERA_OBS_EXPORT_H
#define VESPERA_OBS_EXPORT_H

#include <cstdio>
#include <string>
#include <string_view>

#include "obs/counters.h"
#include "obs/profiler.h"
#include "obs/selfprof.h"

namespace vespera::obs {

/**
 * Schema identifier stamped into every metrics document. v2 adds the
 * "histograms" (streaming latency distributions, obs/hist.h) and
 * "attribution" (per-scope category totals, obs/attrib.h) sections and
 * moves `attrib.*` counters out of "counters" into the latter;
 * consumers of v1 documents keep working — v2 is a superset plus that
 * one relocation. v2.1 adds the *optional* "host" section (simulator
 * self-profile, obs/selfprof.h), present only when the producer ran
 * with --selfprof; v2 readers that ignore unknown sections keep
 * working, and absent the flag the document is byte-for-byte what v2
 * produced apart from the schema string. v2.2 adds the *optional*
 * "timeline" section (virtual-time gauge series and SLO monitors,
 * obs/timeline.h), present only when the Timeline is enabled and a
 * producer published a run; unlike "host", the section is covered by
 * the determinism contract — its samples are keyed by simulated time
 * and are byte-identical at any thread count.
 */
inline constexpr const char *metricsSchema = "vespera-metrics/v2.2";

/**
 * Chrome-trace JSON of everything the profiler recorded: spans as
 * "X" events, counter samples as "C" (counter-track) events,
 * process/thread-name metadata for the Device and Host track groups,
 * and flow arrows ("s"/"t"/"f" events) linking spans that share a
 * nonzero SpanEvent::flowId — how one serving request is followed
 * across lanes in ui.perfetto.dev.
 */
std::string chromeTraceJson(const Profiler &profiler);

/** Tool-specific fields accompanying a metrics export. */
struct MetricsMeta
{
    /** Producing binary ("bench_fig8_stream", "profile_step", ...). */
    std::string tool;
    /** Optional settled self-profile (--selfprof): becomes the v2.1
        "host" section. Host wall times vary with the machine, and
        cache hit/miss splits vary with --threads, so the section is
        strictly opt-in — the determinism contract (docs/runtime.md)
        covers documents produced without it. */
    SelfSnapshot host;
    bool hostPresent = false;
};

/**
 * The `vespera-metrics/v2` document: schema/tool identification, every
 * registered counter (value, peak, update count), every rate meter
 * (total, elapsed, rate), every histogram (count/sum/min/max/quantiles
 * plus nonzero buckets), the attribution section (scope -> category ->
 * seconds, from the `attrib.*` counters), and optional benchmark
 * timings.
 */
std::string metricsJson(const CounterRegistry &registry,
                        const MetricsMeta &meta);

/**
 * True for counters that describe the simulator's host-side execution
 * rather than the simulated device: `runtime.*` (pool telemetry) and
 * `replay.*` (replay-cache stats). Both vary with --threads and process
 * history, so metrics documents and the "Device counters" summary
 * table leave them out; the determinism contract (docs/runtime.md)
 * covers everything else.
 */
bool isHostTelemetry(std::string_view name);

/**
 * Print the nonzero device counters (all but isHostTelemetry ones) and
 * all rate meters as an aligned table. No-op when nothing was recorded.
 */
void printCounterSummary(const CounterRegistry &registry,
                         std::FILE *out = stdout);

/**
 * Print a settled self-profile (--selfprof) as an aligned table: per
 * category the self time, share of the window, scope count, and
 * allocation bytes/events, plus the kernel-eval cache line.
 */
void printHostSelfProfile(const SelfSnapshot &snap,
                          std::FILE *out = stdout);

/**
 * Publish a settled self-profile as counter tracks on the Host group
 * of `profiler` (one `selfprof.<cat>.ms` track per nonzero category,
 * sampled at the window edges), next to the ScopedSpan host lanes.
 * No-op when the profiler is disabled.
 */
void publishHostSelfProfile(const SelfSnapshot &snap,
                            Profiler &profiler);

} // namespace vespera::obs

#endif // VESPERA_OBS_EXPORT_H
