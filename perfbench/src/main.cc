/**
 * @file
 * perfbench: host-time benchmark of the vespera simulator.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--spans <path>] [--setup-only]
 *
 * Builds the workload's seeded job list (the timed set-up), then runs
 * the list in whole passes, closed-loop with one client: one job at a
 * time, each starting when the previous one returns.
 *
 *  --trace 0: a serial pass (--threads 1) alternates with a pass
 *             fanned out over a 2-thread runtime pool through
 *             runtime::SweepRunner, until the measuring time is used.
 *  --trace 1: each cycle adds a traced serial pass (spans and
 *             per-layer counts, see workloads.cc).
 *
 * Times are reported in reference seconds: each job's host time is
 * scaled by a fixed reference loop timed next to it, which removes the
 * host's speed drift (README.md, "Reference seconds"); the raw figures
 * are printed too.
 *
 * Every pass starts with the graph replay caches empty, as a fresh
 * process would. Every job returns a digest of its simulated outputs;
 * all passes must reproduce the first pass's digests. A job that
 * panics or overruns the per-job host-time limit ends the run as
 * failed, naming its config.
 *
 * Prints one JSON line: the measurements, the job digests, and the
 * times at which main was entered and set-up ended on CLOCK_MONOTONIC
 * (run.py turns these into setup_s and its in-process share).
 * Everything here is host time; simulated results are only checked,
 * never reported.
 */

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "graph/replay_cache.h"
#include "runtime/pool.h"
#include "runtime/sweep.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace perfbench;

constexpr int kParallelThreads = 2;
constexpr std::size_t kMinPasses = 3;
/// Host time after which a job counts as hung (jobs take well under
/// a second; Engine::run can livelock).
constexpr double kJobLimitSeconds = 30;
/// Serial job latencies per run: p90 then has ten samples beyond it.
constexpr std::size_t kMinLatencySamples = 100;

const char kUsage[] =
    "usage: perfbench --workload <tpc_stream|tpc_gather|llm_serve|lint>\n"
    "                 --seed <n> --seconds <s> --trace <0|1>\n"
    "                 [--spans <path>] [--setup-only]\n";

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20;
    bool trace = false;
    bool setupOnly = false;
    std::string spans;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr, "perfbench: %s\n%s", msg.c_str(), kUsage);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = std::stoi(value()) != 0;
            else if (a == "--spans")
                o.spans = value();
            else if (a == "--setup-only")
                o.setupOnly = true;
            else
                usage("unknown argument " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

// ---------------------------------------------------------------------------
// Failure reporting: a job that panics (vassert/vpanic abort) or
// overruns the host-time limit ends the run with a failure line.
// ---------------------------------------------------------------------------

std::atomic<std::uint64_t> g_attempted{0};
const std::vector<std::string> *g_descs = nullptr;
thread_local std::int64_t t_job = -1;

void
writeStr(int fd, const char *s)
{
    std::size_t len = std::strlen(s);
    while (len > 0) {
        const ssize_t n = ::write(fd, s, len);
        if (n <= 0)
            return;
        s += n;
        len -= static_cast<std::size_t>(n);
    }
}

/** Async-signal-safe decimal rendering. */
void
writeNum(int fd, std::uint64_t v)
{
    char buf[24];
    char *p = buf + sizeof(buf);
    *--p = '\0';
    do {
        *--p = static_cast<char>('0' + v % 10);
        v /= 10;
    } while (v != 0);
    writeStr(fd, p);
}

/** The failure result line (async-signal-safe). */
void
writeFailureLine()
{
    writeStr(STDOUT_FILENO, "{\"correct\": false, \"attempted\": ");
    writeNum(STDOUT_FILENO,
             std::max<std::uint64_t>(1, g_attempted.load()));
    writeStr(STDOUT_FILENO, ", \"failed\": 1, \"metrics\": {}}\n");
}

extern "C" void
onAbort(int)
{
    writeStr(STDERR_FILENO, "perfbench: job aborted");
    const std::int64_t job = t_job;
    if (g_descs && job >= 0 &&
        static_cast<std::size_t>(job) < g_descs->size()) {
        writeStr(STDERR_FILENO, ": ");
        writeStr(STDERR_FILENO, (*g_descs)[job].c_str());
    }
    writeStr(STDERR_FILENO, "\n");
    writeFailureLine();
    ::_exit(3);
}

/** Per-job host-time watchdog thread. */
class Watchdog
{
  public:
    Watchdog(const std::vector<std::string> &descs, double limit)
        : descs_(descs), limit_(limit), starts_(descs.size())
    {
        for (auto &s : starts_)
            s.store(0);
        thread_ = std::thread([this] { loop(); });
    }
    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }
    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    void begin(std::size_t job) { starts_[job].store(nowSeconds()); }
    void end(std::size_t job) { starts_[job].store(0); }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        while (!cv_.wait_for(lock, std::chrono::milliseconds(100),
                             [this] { return stop_; })) {
            const double now = nowSeconds();
            for (std::size_t j = 0; j < starts_.size(); j++) {
                const double s = starts_[j].load();
                if (s > 0 && now - s > limit_) {
                    std::fprintf(stderr,
                                 "perfbench: job %zu overran the %g s "
                                 "host-time limit: %s\n",
                                 j, limit_, descs_[j].c_str());
                    std::fflush(stderr);
                    std::fflush(stdout);
                    writeFailureLine();
                    ::_exit(3);
                }
            }
        }
    }

    const std::vector<std::string> &descs_;
    const double limit_;
    std::vector<std::atomic<double>> starts_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_; ///< Last: runs loop() over the members above.
};

class JobGuard
{
  public:
    JobGuard(Watchdog &wd, std::size_t job) : wd_(wd), job_(job)
    {
        t_job = static_cast<std::int64_t>(job);
        g_attempted.fetch_add(1);
        wd_.begin(job);
    }
    ~JobGuard()
    {
        if (std::uncaught_exceptions() > 0 && g_descs)
            std::fprintf(stderr, "perfbench: job %zu failed: %s\n", job_,
                         (*g_descs)[job_].c_str());
        wd_.end(job_);
        t_job = -1;
    }
    JobGuard(const JobGuard &) = delete;
    JobGuard &operator=(const JobGuard &) = delete;

  private:
    Watchdog &wd_;
    std::size_t job_;
};

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

/** Linear-interpolated quantile (q in [0,1]); 0 for no samples. */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    if (v.empty())
        return 0;
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

// ---------------------------------------------------------------------------
// Host-speed reference
// ---------------------------------------------------------------------------

/// Time metrics are scaled to the host speed at which the reference
/// loop takes this long (README.md, "Reference seconds").
constexpr double kReferenceSeconds = 1e-3;

/// Keeps the reference loop's work observable (workers run it at once).
std::atomic<std::size_t> g_referenceSink{0};

/**
 * A fixed reference loop of about 1 ms: 4000 small vectors built by
 * push_back and freed, then 1 MiB of fresh anonymous pages touched and
 * unmapped. Of the loops tried (cache and DRAM pointer walks,
 * streaming, a floating-point chain, record and hash-map churn), the
 * allocation churn tracked the jobs' times best through the host's
 * speed phases; the page touching covers the jobs that allocate and
 * fill large arrays.
 */
double
referenceLoopSeconds()
{
    const double t0 = nowSeconds();
    std::vector<std::vector<int>> vs;
    for (int i = 0; i < 4000; i++) {
        vs.emplace_back();
        for (int k = 0; k < 20; k++)
            vs.back().push_back(k + i);
    }
    std::size_t sink = vs.size() + static_cast<std::size_t>(vs[1234][7]);
    constexpr std::size_t kMapBytes = 1 << 20;
    void *m = ::mmap(nullptr, kMapBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m != MAP_FAILED) {
        auto *bytes = static_cast<volatile char *>(m);
        for (std::size_t b = 0; b < kMapBytes; b += 4096)
            bytes[b] = static_cast<char>(b);
        sink += static_cast<std::size_t>(bytes[8192]);
        ::munmap(m, kMapBytes);
    }
    g_referenceSink.store(sink, std::memory_order_relaxed);
    return nowSeconds() - t0;
}

/** A pass's time as measured and in reference seconds. */
struct PassTime
{
    double raw = 0;
    double scaled = 0;
};

class Runner
{
  public:
    Runner(Workload &wl, Watchdog &wd)
        : wl_(wl), wd_(wd), ref_(wl.size())
    {
    }

    /**
     * One --threads 1 pass, traced when `tr` is set. The reference
     * loop runs before the first job and after every job; each job's
     * time is scaled by the mean of the loops on either side of it.
     */
    PassTime
    serial(Tracer *tr)
    {
        vespera::runtime::Pool::setGlobalThreads(1);
        clearCaches();
        const std::size_t n = wl_.size();
        const auto base = static_cast<std::int64_t>(passes_++ * n);
        std::vector<double> latency(n), loop(n + 1);
        loop[0] = referenceLoopSeconds();
        for (std::size_t j = 0; j < n; j++) {
            if (tr)
                tr->spans.setJob(base + static_cast<std::int64_t>(j));
            const double a = nowSeconds();
            std::string digest;
            {
                JobGuard guard(wd_, j);
                if (tr) {
                    ScopedSpan span(&tr->spans, "job", wl_.describe(j));
                    digest = wl_.run(j, tr);
                } else {
                    digest = wl_.run(j, nullptr);
                }
            }
            latency[j] = nowSeconds() - a;
            loop[j + 1] = referenceLoopSeconds();
            check(j, digest, tr ? "traced" : "serial");
        }
        PassTime t;
        for (std::size_t j = 0; j < n; j++) {
            const double scaled = latency[j] * kReferenceSeconds /
                                  (0.5 * (loop[j] + loop[j + 1]));
            t.raw += latency[j];
            t.scaled += scaled;
            if (!tr) {
                rawLatency_.push_back(latency[j]);
                scaledLatency_.push_back(scaled);
            }
        }
        loops_.insert(loops_.end(), loop.begin(), loop.end());
        return t;
    }

    /**
     * One pass fanned out over the runtime pool. Each job runs the
     * reference loop on its worker first; the pass time, less the
     * loops' share of it, is scaled by their mean.
     */
    PassTime
    parallel(int threads)
    {
        vespera::runtime::Pool::setGlobalThreads(threads);
        clearCaches();
        passes_++;
        const std::size_t n = wl_.size();
        std::vector<double> loop(n);
        const double t0 = nowSeconds();
        const std::vector<std::string> digests =
            vespera::runtime::SweepRunner("perfbench").mapIndex(
                n, [&](std::size_t j) {
                    loop[j] = referenceLoopSeconds();
                    JobGuard guard(wd_, j);
                    return wl_.run(j, nullptr);
                });
        const double wall = nowSeconds() - t0;
        vespera::runtime::Pool::setGlobalThreads(1);
        for (std::size_t j = 0; j < digests.size(); j++)
            check(j, digests[j], "parallel");
        double loop_sum = 0;
        for (const double l : loop)
            loop_sum += l;
        loops_.insert(loops_.end(), loop.begin(), loop.end());
        PassTime t;
        t.raw = std::max(0.0, wall - loop_sum / threads);
        t.scaled = t.raw * kReferenceSeconds * static_cast<double>(n) /
                   loop_sum;
        return t;
    }

    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &digests() const { return ref_; }
    /// Serial-pass job latencies, as measured and scaled.
    const std::vector<double> &rawLatency() const { return rawLatency_; }
    const std::vector<double> &scaledLatency() const
    {
        return scaledLatency_;
    }
    /// Every reference-loop time of the run.
    const std::vector<double> &loops() const { return loops_; }

  private:
    static void
    clearCaches()
    {
        vespera::graph::nodeReplayCache().clear();
        vespera::graph::stepReplayCache().clear();
    }

    void
    check(std::size_t j, const std::string &digest, const char *pass)
    {
        if (ref_[j].empty()) {
            ref_[j] = digest;
        } else if (ref_[j] != digest) {
            failed_++;
            std::fprintf(stderr,
                         "perfbench: %s pass changed the output of job "
                         "%zu (%s -> %s): %s\n",
                         pass, j, ref_[j].c_str(), digest.c_str(),
                         wl_.describe(j).c_str());
        }
    }

    Workload &wl_;
    Watchdog &wd_;
    std::vector<std::string> ref_;
    std::size_t passes_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<double> rawLatency_;
    std::vector<double> scaledLatency_;
    std::vector<double> loops_;
};

/** Ordered metric list: name -> (value, unit). */
using Metrics = std::vector<std::tuple<std::string, double, std::string>>;

/** Per-layer metrics from the traced passes (see README.md). */
Metrics
layerMetrics(Tracer &tr, const Tracer &setup, int traced,
             double overhead_frac, double mt_cpu, double mt_wall,
             const std::map<std::string, double> &mt_counters, int mt)
{
    // Place each launch's first recording span from the pass-wide
    // recording cost per instruction.
    auto tally = [&tr](const char *k) {
        auto it = tr.tally.find(k);
        return it == tr.tally.end() ? 0.0 : it->second;
    };
    const double measured_instrs = tally("_record_measured_instrs");
    const double rate = measured_instrs > 0
                            ? tally("_record_measured_s") / measured_instrs
                            : 0.0;
    for (const auto &[id, instrs] : tr.pendingRecord) {
        SpanRecord &s = tr.spans.at(id);
        s.start = s.end - rate * static_cast<double>(instrs);
    }

    const std::map<std::string, double> self = tr.spans.selfTimeByName();
    const double passes = std::max(1, traced);
    auto secs = [&self](const std::string &prefix) {
        double sum = 0;
        for (const auto &[name, s] : self)
            if (name.compare(0, prefix.size(), prefix) == 0)
                sum += s;
        return sum;
    };
    auto ms = [&](const std::string &prefix) {
        return secs(prefix) * 1e3 / passes;
    };
    auto per = [&](const char *k) { return tally(k) / passes; };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    const double instrs = tally("tpc.instrs");
    const double steps = tally("serve.steps");
    const double probes = tally("_models.step_probes");
    const double a_instrs = tally("analysis.instrs");
    const auto setup_self = setup.spans.selfTimeByName();
    const auto trace_it = setup_self.find("serve.trace");
    auto mt_counter = [&](const char *k) {
        auto it = mt_counters.find(k);
        return it == mt_counters.end() ? 0.0
                                       : it->second / std::max(1, mt);
    };

    return {
        {"kern.data_ms", ms("kern."), "ms"},
        {"tpc.record_ms", ms("tpc.record"), "ms"},
        {"tpc.record_ns_per_instr",
         ratio(secs("tpc.record") * 1e9, instrs), "ns/instr"},
        {"tpc.eval_ms", ms("tpc.eval"), "ms"},
        {"tpc.eval_ns_per_instr", ratio(secs("tpc.eval") * 1e9, instrs),
         "ns/instr"},
        {"tpc.dup_slice_frac",
         ratio(tally("tpc.dup_programs"), tally("tpc.programs")), "ratio"},
        {"tpc.programs", per("tpc.programs"), "count"},
        {"tpc.instrs", per("tpc.instrs"), "count"},
        {"tpc.bus_bytes", per("tpc.bus_bytes"), "B"},
        {"tpc.random_txns", per("tpc.random_txns"), "count"},
        {"cuda.cost_ms", ms("cuda."), "ms"},
        {"serve.run_ms", ms("serve.run"), "ms"},
        {"serve.us_per_step", ratio(secs("serve.run") * 1e6, steps),
         "us/step"},
        {"serve.trace_ms",
         trace_it == setup_self.end() ? 0.0 : trace_it->second * 1e3,
         "ms"},
        {"serve.steps", per("serve.steps"), "count"},
        {"serve.steps_skipped", per("serve.steps_skipped"), "count"},
        {"serve.preemptions", per("serve.preemptions"), "count"},
        {"serve.recomputed_tokens", per("serve.recomputed_tokens"),
         "count"},
        {"replay.step.hit_ratio",
         ratio(tally("_replay.step.hits"),
               tally("_replay.step.hits") + tally("_replay.step.misses")),
         "ratio"},
        {"replay.node.hit_ratio",
         ratio(tally("_replay.node.hits"),
               tally("_replay.node.hits") + tally("_replay.node.misses")),
         "ratio"},
        {"models.step_miss_us",
         ratio(secs("models.step_miss") * 1e6, probes), "us"},
        {"models.step_hit_us", ratio(secs("models.step_hit") * 1e6, probes),
         "us"},
        {"analysis.trace_ms", ms("analysis.trace"), "ms"},
        {"analysis.rules_ms", ms("analysis.rules"), "ms"},
        {"analysis.static_ms", ms("analysis.static"), "ms"},
        {"analysis.lift_ms", ms("analysis.lift"), "ms"},
        {"analysis.us_per_instr",
         ratio((secs("analysis.rules") + secs("analysis.static")) * 1e6,
               a_instrs),
         "us/instr"},
        {"analysis.instrs", per("analysis.instrs"), "count"},
        {"analysis.findings", per("analysis.findings"), "count"},
        {"port.migrate_ms", ms("port.migrate"), "ms"},
        {"port.lower_ms", ms("port.lower"), "ms"},
        {"port.reference_ms", ms("port.reference"), "ms"},
        {"port.parity_failures", per("port.parity_failures"), "count"},
        {"runtime.cpu_util",
         ratio(mt_cpu, mt_wall * kParallelThreads), "ratio"},
        {"runtime.busy_s", mt_counter("runtime.busy_seconds"), "s"},
        {"runtime.tasks", mt_counter("runtime.tasks"), "count"},
        {"runtime.steals", mt_counter("runtime.steals"), "count"},
        {"trace.overhead_frac", overhead_frac, "ratio"},
    };
}

namespace json = vespera::json;

/** {"name": {"value": v, "unit": u}, ...} */
json::Value
metricsJson(const Metrics &metrics)
{
    std::map<std::string, json::Value> out;
    for (const auto &[name, value, unit] : metrics)
        out[name] = json::Value::makeObject(
            {{"value", json::Value::makeNumber(value)},
             {"unit", json::Value::makeString(unit)}});
    return json::Value::makeObject(std::move(out));
}

int
runBenchmark(const Options &o, double main_clock)
{
    Tracer setup_tracer;
    std::unique_ptr<Workload> wl =
        makeWorkload(o.workload, o.seed, o.trace ? &setup_tracer : nullptr);
    if (!wl)
        usage("unknown workload " + o.workload);
    const double ready = nowSeconds();
    // The host speed right after set-up, for scaling set-up time.
    const double setup_loop =
        quantile({referenceLoopSeconds(), referenceLoopSeconds(),
                  referenceLoopSeconds()},
                 0.5);
    if (o.setupOnly) {
        const json::Value out = json::Value::makeObject(
            {{"main_clock", json::Value::makeNumber(main_clock)},
             {"ready_clock", json::Value::makeNumber(ready)},
             {"setup_loop_s", json::Value::makeNumber(setup_loop)},
             {"reference_s", json::Value::makeNumber(kReferenceSeconds)}});
        std::printf("%s\n", json::serialize(out).c_str());
        return 0;
    }

    std::vector<std::string> descs;
    for (std::size_t j = 0; j < wl->size(); j++)
        descs.push_back(wl->describe(j));
    g_descs = &descs;
    Watchdog watchdog(descs, kJobLimitSeconds);
    Runner runner(*wl, watchdog);

    const std::vector<const char *> runtime_counters = {
        "runtime.busy_seconds", "runtime.tasks", "runtime.steals"};
    std::map<std::string, double> mt_counters;
    double mt_cpu = 0, mt_wall = 0;
    std::vector<PassTime> serial, traced, parallel;
    Tracer tracer;
    double peak_rss_mb = 0;

    const double start = nowSeconds();
    // Serial and fanned-out passes alternate over the whole run, so
    // both sample every phase of the host's speed.
    double st_cpu = 0, st_wall = 0;
    do {
        const double c0 = cpuSeconds(), w0 = nowSeconds();
        serial.push_back(runner.serial(nullptr));
        st_cpu += cpuSeconds() - c0;
        st_wall += nowSeconds() - w0;
        if (serial.size() == 1) {
            rusage ru{};
            getrusage(RUSAGE_SELF, &ru);
            peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
        }
        if (o.trace)
            traced.push_back(runner.serial(&tracer));
        std::map<std::string, double> before;
        for (const char *c : runtime_counters)
            before[c] = counterValue(c);
        const double cpu0 = cpuSeconds();
        const double t0 = nowSeconds();
        parallel.push_back(runner.parallel(kParallelThreads));
        mt_wall += nowSeconds() - t0;
        mt_cpu += cpuSeconds() - cpu0;
        for (const char *c : runtime_counters)
            mt_counters[c] += counterValue(c) - before[c];
    } while (serial.size() < kMinPasses ||
             runner.rawLatency().size() < kMinLatencySamples ||
             nowSeconds() - start < o.seconds);
    const double measured = nowSeconds() - start;
    if (o.trace)
        wl->probe(tracer);

    auto med = [](const std::vector<PassTime> &passes, bool scaled) {
        std::vector<double> v;
        for (const PassTime &p : passes)
            v.push_back(scaled ? p.scaled : p.raw);
        return quantile(v, 0.5);
    };
    const std::vector<double> &lat = runner.scaledLatency();
    const std::vector<double> &raw_lat = runner.rawLatency();
    Metrics metrics;
    if (o.trace) {
        metrics = layerMetrics(
            tracer, setup_tracer, static_cast<int>(traced.size()),
            med(traced, false) / med(serial, false) - 1, mt_cpu, mt_wall,
            mt_counters, static_cast<int>(parallel.size()));
        if (!o.spans.empty() &&
            !tracer.spans.writePerfetto(o.spans, "perfbench " + o.workload))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         o.spans.c_str());
    } else {
        metrics = {
            {"wall_s", med(serial, true), "s"},
            {"wall_s.mt", med(parallel, true), "s"},
            {"job_p50_ms", quantile(lat, 0.5) * 1e3, "ms"},
            {"job_p90_ms", quantile(lat, 0.9) * 1e3, "ms"},
            {"peak_rss_mb", peak_rss_mb, "MB"},
        };
    }
    const Metrics raw = {
        {"wall_s", med(serial, false), "s"},
        {"wall_s.mt", med(parallel, false), "s"},
        {"job_p50_ms", quantile(raw_lat, 0.5) * 1e3, "ms"},
        {"job_p90_ms", quantile(raw_lat, 0.9) * 1e3, "ms"},
        {"reference_loop_ms", quantile(runner.loops(), 0.5) * 1e3, "ms"},
        {"serial_cpu_per_wall", st_cpu / st_wall, "ratio"},
    };

    std::vector<json::Value> digests;
    for (const std::string &d : runner.digests())
        digests.push_back(json::Value::makeString(d));
    auto num = [](double v) { return json::Value::makeNumber(v); };
    const json::Value out = json::Value::makeObject({
        {"workload", json::Value::makeString(o.workload)},
        {"seed", num(static_cast<double>(o.seed))},
        {"jobs", num(static_cast<double>(wl->size()))},
        {"main_clock", num(main_clock)},
        {"ready_clock", num(ready)},
        {"setup_loop_s", num(setup_loop)},
        {"reference_s", num(kReferenceSeconds)},
        {"attempted", num(static_cast<double>(g_attempted.load()))},
        {"failed", num(static_cast<double>(runner.failed()))},
        {"passes",
         json::Value::makeObject(
             {{"serial", num(static_cast<double>(serial.size()))},
              {"traced", num(static_cast<double>(traced.size()))},
              {"parallel", num(static_cast<double>(parallel.size()))}})},
        {"latency_samples", num(static_cast<double>(lat.size()))},
        {"measured_s", num(measured)},
        {"job_digests", json::Value::makeArray(std::move(digests))},
        {"raw", metricsJson(raw)},
        {"metrics", metricsJson(metrics)},
    });
    std::printf("%s\n", json::serialize(out).c_str());
    std::fflush(stdout);
    g_descs = nullptr;
    return runner.failed() == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const double main_clock = nowSeconds();
    const Options o = parseArgs(argc, argv);
    std::signal(SIGABRT, onAbort);
    try {
        return runBenchmark(o, main_clock);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: job failed: %s\n", e.what());
        std::fflush(stdout);
        writeFailureLine();
        return 3;
    }
}
