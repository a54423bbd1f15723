/**
 * @file
 * Determinism contract of the parallel simulation runtime: the same
 * workload must produce bit-identical results and metrics JSON at any
 * thread count (docs/runtime.md). Exercised end-to-end through the
 * two parallelized layers — a STREAM sweep (SweepRunner + nested TPC
 * dispatch) and the dispatcher itself — and through the serving
 * engine, which must stay serial-equivalent under a parallel pool.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kern/stream.h"
#include "models/llama.h"
#include "obs/capture.h"
#include "obs/counters.h"
#include "obs/export.h"
#include "runtime/pool.h"
#include "runtime/sweep.h"
#include "serve/engine.h"

namespace vespera {
namespace {

/// Restores the global pool to serial when a test exits.
struct PoolGuard
{
    ~PoolGuard() { runtime::Pool::setGlobalThreads(1); }
};

std::string
metricsSnapshot()
{
    obs::MetricsMeta meta;
    meta.tool = "test_runtime";
    return obs::metricsJson(obs::CounterRegistry::instance(), meta);
}

/// A STREAM sweep shaped like bench_fig8's: gran x op points, each
/// dispatching onto the TPC array (nested parallelism when the pool
/// is parallel).
std::vector<double>
streamSweep()
{
    const std::vector<Bytes> grans = {4, 64, 256, 2048};
    const kern::StreamOp ops[] = {kern::StreamOp::Add,
                                  kern::StreamOp::Triad};
    runtime::SweepRunner sweep("test.stream");
    return sweep.mapIndex(grans.size() * 2, [&](std::size_t i) {
        kern::StreamConfig c;
        c.op = ops[i % 2];
        c.numElements = 1 << 16;
        c.accessBytes = grans[i / 2];
        c.numTpcs = 8;
        return kern::runStreamGaudi(c).gflops;
    });
}

serve::ServingMetrics
serveTrace()
{
    models::LlamaModel model(models::LlamaConfig::llama31_8b());
    serve::EngineConfig cfg;
    cfg.device = DeviceKind::Gaudi2;
    cfg.maxDecodeBatch = 16;
    serve::Engine engine(model, cfg);
    serve::TraceConfig tc;
    tc.numRequests = 32;
    tc.maxInputLen = 512;
    tc.maxOutputLen = 128;
    Rng rng(515);
    return engine.run(serve::makeDynamicTrace(tc, rng));
}

TEST(RuntimeDeterminism, StreamSweepIdenticalAtAnyThreadCount)
{
    PoolGuard guard;
    runtime::Pool::setGlobalThreads(1);
    const auto serial = streamSweep();

    for (int threads : {2, 8}) {
        runtime::Pool::setGlobalThreads(threads);
        const auto parallel = streamSweep();
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); i++) {
            EXPECT_EQ(parallel[i], serial[i])
                << "point " << i << " at " << threads << " threads";
        }
    }
}

TEST(RuntimeDeterminism, ServingMetricsIdenticalAcrossThreadCounts)
{
    // Full-precision double equality, not near-equality: the engine
    // loop is serial, so a parallel pool must not change a single
    // floating-point op. (Whole
    // metrics-JSON documents are compared byte-for-byte at the binary
    // level by the `determinism_metrics_json` ctest — the in-process
    // registry is cumulative, so the document is only reproducible
    // run-for-run across fresh processes.)
    PoolGuard guard;
    runtime::Pool::setGlobalThreads(1);
    const auto m1 = serveTrace();
    runtime::Pool::setGlobalThreads(2);
    const auto m2 = serveTrace();
    runtime::Pool::setGlobalThreads(8);
    const auto m8 = serveTrace();
    EXPECT_EQ(m1.makespan, m2.makespan);
    EXPECT_EQ(m1.makespan, m8.makespan);
    EXPECT_EQ(m1.throughputTokensPerSec, m2.throughputTokensPerSec);
    EXPECT_EQ(m1.throughputTokensPerSec, m8.throughputTokensPerSec);
    EXPECT_EQ(m1.meanTtft, m2.meanTtft);
    EXPECT_EQ(m1.meanTtft, m8.meanTtft);
    EXPECT_EQ(m1.meanTpot, m8.meanTpot);
    EXPECT_EQ(m1.p99Ttft, m8.p99Ttft);
    EXPECT_EQ(m1.preemptions, m8.preemptions);
    EXPECT_EQ(m1.avgDecodeBatch, m8.avgDecodeBatch);
}

TEST(RuntimeDeterminism, CounterDeltasIdenticalAcrossThreadCounts)
{
    PoolGuard guard;
    auto &reg = obs::CounterRegistry::instance();
    auto &steps = reg.counter("engine.steps");
    auto &decode_tok = reg.counter("engine.decode_tokens");
    auto &prefill_tok = reg.counter("engine.prefill_tokens");

    auto run_delta = [&](int threads) {
        runtime::Pool::setGlobalThreads(threads);
        const double s0 = steps.value();
        const double d0 = decode_tok.value();
        const double p0 = prefill_tok.value();
        (void)serveTrace();
        return std::vector<double>{steps.value() - s0,
                                   decode_tok.value() - d0,
                                   prefill_tok.value() - p0};
    };

    const auto serial = run_delta(1);
    EXPECT_GT(serial[0], 0);
    EXPECT_EQ(run_delta(2), serial);
    EXPECT_EQ(run_delta(8), serial);
}

TEST(RuntimeDeterminism, RuntimeCountersExcludedFromMetricsJson)
{
    PoolGuard guard;
    runtime::Pool::setGlobalThreads(8);
    (void)streamSweep(); // guarantees runtime.* counters exist and moved
    const std::string doc = metricsSnapshot();
    EXPECT_EQ(doc.find("runtime."), std::string::npos)
        << "host-side pool telemetry must not leak into the "
           "thread-count-invariant metrics document";
    runtime::Pool::setGlobalThreads(1);
    EXPECT_NE(obs::CounterRegistry::instance()
                  .counter("runtime.tasks")
                  .value(),
              0.0)
        << "the counters themselves must still record (summary/trace)";
}

TEST(RuntimeCapture, ReplayAppendsToEnclosingLog)
{
    // Nested capture: replaying an inner log inside an outer capture
    // must append to the outer log, not the real counters.
    auto &reg = obs::CounterRegistry::instance();
    auto &c = reg.counter("test.runtime.nested_capture");
    const double base = c.value();

    obs::SideEffectLog inner;
    {
        obs::ScopedCapture cap(inner);
        c.add(5);
    }
    EXPECT_EQ(c.value(), base) << "captured add must not apply";

    obs::SideEffectLog outer;
    {
        obs::ScopedCapture cap(outer);
        inner.replay();
    }
    EXPECT_EQ(c.value(), base) << "replay under capture must redirect";
    outer.replay();
    EXPECT_EQ(c.value(), base + 5);
}

} // namespace
} // namespace vespera
