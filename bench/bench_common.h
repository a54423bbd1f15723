/**
 * @file
 * Shared telemetry harness for every `bench_*` binary.
 *
 * Gives all benches four uniform flags with zero per-bench logic:
 *
 *   --trace=<path>     write a Perfetto/Chrome trace (spans + counter
 *                      tracks) of everything the run recorded
 *   --metrics=<path>   write a `vespera-metrics/v2` JSON document
 *                      (device counters, rate meters, histograms,
 *                      attribution, optional bench-reported rates)
 *   --telemetry-dir=<dir>  convenience: both of the above, at
 *                      <dir>/<bench>.trace.json and
 *                      <dir>/<bench>.metrics.json
 *   --threads=<n>      size the runtime::Pool the bench's sweeps fan
 *                      out on (also `--threads <n>`; 0 = all cores).
 *                      Output is bit-identical at any value — the
 *                      runtime's determinism contract (docs/runtime.md)
 *   --selfprof         attribute the simulator's *own* wall time
 *                      (obs/selfprof.h): prints a host self-profile
 *                      table and adds the v2.1 "host" section to the
 *                      metrics document. Precedence: --selfprof only
 *                      changes what a metrics export *contains* — it
 *                      writes no file by itself, so pair it with
 *                      --metrics or --telemetry-dir to persist the
 *                      section. Wall times vary run to run, so the
 *                      determinism contract covers documents produced
 *                      *without* this flag.
 *   --timeline-interval=<sec>  enable virtual-time timelines
 *                      (obs/timeline.h): serving producers record
 *                      windowed gauges every <sec> *simulated* seconds
 *                      and the metrics document gains the v2.2
 *                      "timeline" section. Deterministic (simulated
 *                      time only), so --timeline-interval documents
 *                      stay byte-identical at any --threads.
 *   --quiet            suppress normal stdout (telemetry still written)
 *
 * Usage pattern (see any bench_*.cc):
 *
 *   int main(int argc, char **argv) {
 *       auto opts = bench::parseArgs(argc, argv, "bench_fig8_stream");
 *       ... existing bench body ...
 *       return bench::finish(opts);
 *   }
 *
 * Any other flag, a --threads value that is not an integer, and a
 * --timeline-interval value that is not a finite number >= 0 are
 * usage errors: the bench exits 2 naming the flag.
 */

#ifndef VESPERA_BENCH_COMMON_H
#define VESPERA_BENCH_COMMON_H

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/io.h"
#include "obs/export.h"
#include "obs/timeline.h"
#include "runtime/pool.h"

namespace vespera::bench {

/** Parsed harness options. */
struct Options
{
    std::string name;        ///< Bench binary name (metrics `tool`).
    std::string tracePath;   ///< Empty = no trace export.
    std::string metricsPath; ///< Empty = no metrics export.
    std::string telemetryDir; ///< Empty = no derived paths.
    bool quiet = false;
    bool selfprof = false;   ///< Host self-profiling was requested.
    int threads = 1;         ///< Runtime pool size this run used.
    /// Virtual-time sampling interval in simulated seconds; 0 = off.
    double timelineInterval = 0;
};

/** Exit 2 naming `arg`: the harness accepts no flag it cannot use. */
[[noreturn]] inline void
badFlag(const char *bench_name, const char *arg)
{
    std::fprintf(stderr, "%s: unknown flag '%s' (see --help)\n",
                 bench_name, arg);
    std::exit(2);
}

/** `text` as a thread count; `arg` names the flag when it is not. */
inline int
parseThreads(const char *bench_name, const std::string &arg,
             const char *text)
{
    char *end = nullptr;
    const long n = std::strtol(text, &end, 10);
    if (end == text || *end != '\0')
        badFlag(bench_name, arg.c_str());
    return static_cast<int>(n);
}

/** `text` as a timeline interval in seconds: the whole of it must be a
 *  finite number >= 0, or the flag `arg` is rejected. */
inline double
parseInterval(const char *bench_name, const char *arg, const char *text)
{
    char *end = nullptr;
    const double sec = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(sec) || sec < 0)
        badFlag(bench_name, arg);
    return sec;
}

/**
 * Parse the harness flags. Enables the process profiler when a trace
 * was requested; redirects stdout to /dev/null under --quiet so
 * benches need no conditional printing.
 */
inline Options
parseArgs(int argc, char **argv, const char *bench_name)
{
    Options opts;
    opts.name = bench_name;

    for (int i = 1; i < argc; i++) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--trace=", 8) == 0) {
            opts.tracePath = arg + 8;
        } else if (std::strncmp(arg, "--metrics=", 10) == 0) {
            opts.metricsPath = arg + 10;
        } else if (std::strncmp(arg, "--telemetry-dir=", 16) == 0) {
            // Derived paths; explicit --trace/--metrics win regardless
            // of flag order (see below).
            const std::string dir(arg + 16);
            opts.telemetryDir = dir.empty() ? "." : dir;
        } else if (std::strncmp(arg, "--threads=", 10) == 0) {
            opts.threads = parseThreads(bench_name, arg, arg + 10);
        } else if (std::strcmp(arg, "--threads") == 0 &&
                   i + 1 < argc) {
            ++i;
            opts.threads = parseThreads(
                bench_name, std::string(arg) + " " + argv[i], argv[i]);
        } else if (std::strcmp(arg, "--selfprof") == 0) {
            opts.selfprof = true;
        } else if (std::strncmp(arg, "--timeline-interval=", 20) == 0) {
            opts.timelineInterval =
                parseInterval(bench_name, arg, arg + 20);
        } else if (std::strcmp(arg, "--quiet") == 0) {
            opts.quiet = true;
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            std::printf(
                "%s — vespera benchmark\n"
                "  --trace=<path>    write Perfetto/Chrome trace JSON\n"
                "  --metrics=<path>  write vespera-metrics/v2 JSON\n"
                "  --telemetry-dir=<dir>  write both, as "
                "<dir>/%s.{trace,metrics}.json\n"
                "  --threads=<n>     parallel sweep workers (0 = all "
                "cores);\n"
                "                    output is identical at any value\n"
                "  --selfprof        attribute the simulator's own wall "
                "time\n"
                "                    (adds the \"host\" section to a "
                "--metrics/\n"
                "                    --telemetry-dir export; writes no "
                "file alone)\n"
                "  --timeline-interval=<sec>  record virtual-time "
                "timelines every\n"
                "                    <sec> simulated seconds (adds the "
                "\"timeline\"\n"
                "                    section to a metrics export; "
                "deterministic)\n"
                "  --quiet           suppress normal stdout\n",
                bench_name, bench_name);
            std::exit(0);
        } else {
            badFlag(bench_name, arg);
        }
    }

    if (opts.threads <= 0 && opts.threads != 1) {
        const unsigned hw = std::thread::hardware_concurrency();
        opts.threads = hw > 0 ? static_cast<int>(hw) : 1;
    }
    if (opts.threads < 1)
        opts.threads = 1;
    runtime::Pool::setGlobalThreads(opts.threads);

    if (!opts.telemetryDir.empty()) {
        if (opts.tracePath.empty())
            opts.tracePath =
                opts.telemetryDir + "/" + opts.name + ".trace.json";
        if (opts.metricsPath.empty())
            opts.metricsPath =
                opts.telemetryDir + "/" + opts.name + ".metrics.json";
    }

    if (!opts.tracePath.empty())
        obs::Profiler::instance().setEnabled(true);
    if (opts.selfprof)
        obs::SelfProf::instance().setEnabled(true);
    if (opts.timelineInterval > 0) {
        obs::Timeline::instance().setInterval(opts.timelineInterval);
        obs::Timeline::instance().setEnabled(true);
    }
    if (opts.quiet) {
        // Telemetry files are the only output anyone asked for.
        if (!std::freopen("/dev/null", "w", stdout))
            std::fprintf(stderr, "--quiet: cannot silence stdout\n");
    }
    return opts;
}

/**
 * End-of-run hook: write the requested telemetry, print the counter
 * summary. Returns the bench's exit code (nonzero on export failure).
 */
inline int
finish(const Options &opts)
{
    int rc = 0;
    auto &registry = obs::CounterRegistry::instance();

    obs::MetricsMeta meta;
    meta.tool = opts.name;
    if (opts.selfprof) {
        {
            // The summary print is telemetry work on the host clock;
            // charging it before settle() closes the window keeps the
            // category from reading zero on every bench.
            obs::SelfTimer t(obs::SelfCat::TelemetryExport);
            if (!opts.quiet)
                obs::printCounterSummary(registry);
        }
        meta.host = obs::SelfProf::instance().settle();
        meta.hostPresent = true;
        if (!opts.quiet)
            obs::printHostSelfProfile(meta.host);
        // Counter tracks land next to the Host span lanes in the
        // Perfetto trace, so publish before the trace is serialized.
        obs::publishHostSelfProfile(meta.host,
                                    obs::Profiler::instance());
    } else if (!opts.quiet) {
        obs::printCounterSummary(registry);
    }

    if (!opts.metricsPath.empty()) {
        const std::string doc = obs::metricsJson(registry, meta);
        if (writeFile(opts.metricsPath, doc)) {
            std::fprintf(stderr, "wrote metrics to %s\n",
                         opts.metricsPath.c_str());
        } else {
            std::fprintf(stderr, "cannot write metrics to %s\n",
                         opts.metricsPath.c_str());
            rc = 1;
        }
    }

    if (!opts.tracePath.empty()) {
        obs::Profiler &profiler = obs::Profiler::instance();
        const std::string trace = obs::chromeTraceJson(profiler);
        if (writeFile(opts.tracePath, trace)) {
            std::fprintf(stderr,
                         "wrote trace to %s (open at ui.perfetto.dev)\n",
                         opts.tracePath.c_str());
        } else {
            std::fprintf(stderr, "cannot write trace to %s\n",
                         opts.tracePath.c_str());
            rc = 1;
        }
    }
    return rc;
}

} // namespace vespera::bench

#endif // VESPERA_BENCH_COMMON_H
