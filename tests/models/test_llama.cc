#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>

#include "graph/replay_cache.h"
#include "models/llama.h"
#include "obs/counters.h"
#include "obs/profiler.h"

namespace vespera::models {
namespace {

TEST(Llama, ConfigsMatchTable3)
{
    auto m8 = LlamaConfig::llama31_8b();
    EXPECT_EQ(m8.layers, 32);
    EXPECT_EQ(m8.numQHeads, 32);
    EXPECT_EQ(m8.numKvHeads, 8);
    EXPECT_EQ(m8.hidden, 4096);
    EXPECT_EQ(m8.intermediate, 14336);
    EXPECT_EQ(m8.vocab, 128256);
    // Parameter count near 8B.
    EXPECT_NEAR(m8.paramCount() / 1e9, 8.0, 1.0);

    auto m70 = LlamaConfig::llama31_70b();
    EXPECT_EQ(m70.layers, 80);
    EXPECT_EQ(m70.numQHeads, 64);
    EXPECT_NEAR(m70.paramCount() / 1e9, 70.0, 6.0);
}

TEST(Llama, ServeProducesSaneBreakdown)
{
    LlamaModel model(LlamaConfig::llama31_8b());
    LlamaServingConfig cfg;
    cfg.batch = 16;
    cfg.inputLen = 100;
    cfg.outputLen = 100;
    auto r = model.serve(DeviceKind::Gaudi2, cfg);
    EXPECT_GT(r.prefillTime, 0);
    EXPECT_GT(r.decodeTime, r.prefillTime); // 100 decode steps vs 1.
    EXPECT_NEAR(r.totalTime, r.prefillTime + r.decodeTime, 1e-9);
    EXPECT_GT(r.tokensPerSec, 0);
}

// Figure 12(a): Gaudi-2 outperforms A100 on single-device Llama-8B
// across batch sizes and output lengths (paper avg 1.47x).
TEST(Llama, GaudiSpeedup8B)
{
    LlamaModel model(LlamaConfig::llama31_8b());
    double worst = 10, best = 0;
    for (int batch : {4, 64}) {
        for (int out : {25, 400}) {
            LlamaServingConfig cfg;
            cfg.batch = batch;
            cfg.outputLen = out;
            auto g = model.serve(DeviceKind::Gaudi2, cfg);
            auto a = model.serve(DeviceKind::A100, cfg);
            double speedup = a.totalTime / g.totalTime;
            worst = std::min(worst, speedup);
            best = std::max(best, speedup);
        }
    }
    EXPECT_GT(worst, 1.0);  // Consistently faster.
    EXPECT_LT(best, 2.0);   // Paper max 1.70x.
}

// Figure 12(b): decode dominates at long outputs; prefill grows with
// input length.
TEST(Llama, LatencyBreakdownTrends)
{
    LlamaModel model(LlamaConfig::llama31_8b());
    LlamaServingConfig cfg;
    cfg.batch = 64;
    cfg.inputLen = 100;
    cfg.outputLen = 400;
    auto long_out = model.serve(DeviceKind::Gaudi2, cfg);
    EXPECT_GT(long_out.decodeTime, 4 * long_out.prefillTime);

    cfg.outputLen = 100;
    cfg.inputLen = 1600;
    auto long_in = model.serve(DeviceKind::Gaudi2, cfg);
    cfg.inputLen = 100;
    auto short_in = model.serve(DeviceKind::Gaudi2, cfg);
    EXPECT_GT(long_in.prefillTime, 4 * short_in.prefillTime);
}

// Figure 12(a) right: multi-device 70B speedups hold and grow with
// device count (paper: 1.29/1.32/1.35x for TP=2/4/8).
TEST(Llama, MultiDeviceSpeedupGrowsWithTp)
{
    LlamaModel model(LlamaConfig::llama31_70b());
    double prev = 0;
    for (int tp : {2, 4, 8}) {
        LlamaServingConfig cfg;
        cfg.batch = 16;
        cfg.outputLen = 100;
        cfg.tpDevices = tp;
        auto g = model.serve(DeviceKind::Gaudi2, cfg);
        auto a = model.serve(DeviceKind::A100, cfg);
        double speedup = a.totalTime / g.totalTime;
        EXPECT_GT(speedup, 1.0) << "tp=" << tp;
        EXPECT_GT(speedup, prev * 0.98) << "tp=" << tp;
        prev = speedup;
    }
}

// Figure 13 / key takeaway #5: Gaudi-2's LLM energy efficiency beats
// A100 (paper: ~1.5x).
TEST(Llama, EnergyEfficiencyAdvantage)
{
    LlamaModel model(LlamaConfig::llama31_8b());
    LlamaServingConfig cfg;
    cfg.batch = 32;
    cfg.outputLen = 100;
    auto g = model.serve(DeviceKind::Gaudi2, cfg);
    auto a = model.serve(DeviceKind::A100, cfg);
    double eff = g.tokensPerJoule / a.tokensPerJoule;
    EXPECT_GT(eff, 1.1);
    EXPECT_LT(eff, 2.2);
    // Despite the 50% higher TDP, average draw stays comparable.
    EXPECT_LT(g.avgPowerPerDevice / a.avgPowerPerDevice, 1.35);
}

TEST(Llama, VllmOptFasterThanBase)
{
    LlamaModel model(LlamaConfig::llama31_8b());
    LlamaServingConfig cfg;
    cfg.batch = 32;
    cfg.inputLen = 1024;
    cfg.outputLen = 64;
    cfg.attention = AttentionBackend::VllmBase;
    auto base = model.serve(DeviceKind::Gaudi2, cfg);
    cfg.attention = AttentionBackend::VllmOpt;
    auto opt = model.serve(DeviceKind::Gaudi2, cfg);
    EXPECT_LT(opt.totalTime, base.totalTime);
}

TEST(Llama, WeightBytesShardWithTp)
{
    auto cfg = LlamaConfig::llama31_70b();
    const Bytes full = cfg.weightBytes(1, DataType::BF16);
    EXPECT_NEAR(static_cast<double>(full) / (1ull << 30), 131.0, 15.0);
    EXPECT_EQ(cfg.weightBytes(4, DataType::BF16), full / 4);
    // FP32 doubles the footprint.
    EXPECT_EQ(cfg.weightBytes(1, DataType::FP32), 2 * full);
}

TEST(Llama, StepGraphValidatesAndProfiles)
{
    LlamaModel model(LlamaConfig::llama31_8b());
    LlamaServingConfig cfg;
    cfg.tpDevices = 2;
    auto rep = model.stepReport(DeviceKind::Gaudi2, 16, 1, 1024, false,
                                cfg);
    // One representative layer + lm head in the timeline, with the TP
    // all-reduces present.
    int allreduces = 0, matmuls = 0;
    for (const auto &e : rep.timeline) {
        if (e.kind == graph::OpKind::AllReduce)
            allreduces++;
        if (e.kind == graph::OpKind::MatMul)
            matmuls++;
    }
    EXPECT_EQ(allreduces, 2); // attn + mlp.
    EXPECT_EQ(matmuls, 5);    // qkv, o, gate_up, down, lm_head.
}

TEST(Llama, StepTimeGrowsWithContext)
{
    LlamaModel model(LlamaConfig::llama31_8b());
    LlamaServingConfig cfg;
    Seconds t1 = model.stepTime(DeviceKind::Gaudi2, 32, 1, 512, false,
                                cfg);
    Seconds t2 = model.stepTime(DeviceKind::Gaudi2, 32, 1, 4096, false,
                                cfg);
    EXPECT_GT(t2, t1);
}

/** Best wall time, in seconds, of `laps` default Figure-12 points. */
double
bestServeSeconds(const LlamaModel &model, int laps)
{
    double best = std::numeric_limits<double>::infinity();
    for (int lap = 0; lap < laps; ++lap) {
        const auto begin = std::chrono::steady_clock::now();
        (void)model.serve(DeviceKind::Gaudi2, LlamaServingConfig{});
        const std::chrono::duration<double> took =
            std::chrono::steady_clock::now() - begin;
        best = std::min(best, took.count());
    }
    return best;
}

// The replay caches (graph/replay_cache.h) must carry the Figure-12
// sweep point: a warm point runs at least 3x faster than the same
// point with both memos off. Both halves run in one process, so the
// ratio cancels machine speed and gates only the code.
TEST(ReplayCache, WarmFig12PointAtLeast3xUncached)
{
    // The memos bypass themselves while the profiler traces.
    ASSERT_FALSE(obs::Profiler::instance().enabled());
    LlamaModel model(LlamaConfig::llama31_8b());
    graph::nodeReplayCache().clear();
    graph::stepReplayCache().clear();
    (void)model.serve(DeviceKind::Gaudi2, LlamaServingConfig{});

    // Deterministic half: a warm lap replays every step.
    const obs::Counter &misses =
        obs::CounterRegistry::instance().counter("replay.step.misses");
    const double missesBefore = misses.value();
    const double warm = bestServeSeconds(model, 5);
    EXPECT_EQ(misses.value(), missesBefore);

    double uncached = 0;
    {
        graph::ReplayCacheDisable offNodes(graph::nodeReplayCache());
        graph::ReplayCacheDisable offSteps(graph::stepReplayCache());
        uncached = bestServeSeconds(model, 5);
    }
    EXPECT_GE(uncached / warm, 3.0)
        << "warm " << warm * 1e6 << " us, uncached " << uncached * 1e6
        << " us";
}

} // namespace
} // namespace vespera::models
