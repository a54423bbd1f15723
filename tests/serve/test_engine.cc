#include <gtest/gtest.h>

#include "serve/engine.h"

namespace vespera::serve {
namespace {

class EngineTest : public ::testing::Test
{
  protected:
    EngineTest()
        : model_(models::LlamaConfig::llama31_8b())
    {
    }

    EngineConfig
    baseConfig()
    {
        EngineConfig cfg;
        cfg.device = DeviceKind::Gaudi2;
        cfg.maxDecodeBatch = 16;
        cfg.kvCacheBytes = 16ull << 30;
        return cfg;
    }

    models::LlamaModel model_;
};

TEST_F(EngineTest, CompletesAllRequests)
{
    Engine engine(model_, baseConfig());
    auto m = engine.run(makeFixedTrace(32, 128, 32));
    EXPECT_EQ(m.completed, 32);
    EXPECT_GT(m.makespan, 0);
    EXPECT_GT(m.throughputTokensPerSec, 0);
    EXPECT_GT(m.meanTtft, 0);
    EXPECT_GT(m.meanTpot, 0);
}

TEST_F(EngineTest, TtftBelowTotalLatency)
{
    Engine engine(model_, baseConfig());
    auto m = engine.run(makeFixedTrace(16, 128, 64));
    EXPECT_LT(m.meanTtft, m.makespan);
    EXPECT_LE(m.meanTtft, m.p99Ttft);
}

// Figure 17(e): growing the max decode batch raises TPOT (more work
// per step) but improves throughput until saturation; TTFT grows as
// prefills queue behind larger decode batches.
TEST_F(EngineTest, MaxBatchTradeoff)
{
    auto run_with = [&](int max_batch) {
        EngineConfig cfg = baseConfig();
        cfg.maxDecodeBatch = max_batch;
        Engine engine(model_, cfg);
        Rng rng(7);
        TraceConfig tc;
        tc.numRequests = 64;
        tc.maxInputLen = 512;
        tc.maxOutputLen = 128;
        return engine.run(makeDynamicTrace(tc, rng));
    };
    auto small = run_with(2);
    auto large = run_with(32);
    EXPECT_GT(large.throughputTokensPerSec,
              small.throughputTokensPerSec);
    EXPECT_GT(large.meanTpot, small.meanTpot);
    EXPECT_GT(large.avgDecodeBatch, small.avgDecodeBatch);
}

TEST_F(EngineTest, VllmOptOutperformsBase)
{
    EngineConfig cfg = baseConfig();
    cfg.attention = models::AttentionBackend::VllmBase;
    Engine base(model_, cfg);
    cfg.attention = models::AttentionBackend::VllmOpt;
    Engine opt(model_, cfg);
    auto trace = makeFixedTrace(16, 1024, 32);
    auto mb = base.run(trace);
    auto mo = opt.run(trace);
    EXPECT_GT(mo.throughputTokensPerSec, mb.throughputTokensPerSec);
}

TEST_F(EngineTest, TinyKvCacheForcesPreemptionOrStillCompletes)
{
    EngineConfig cfg = baseConfig();
    cfg.kvCacheBytes = 1ull << 28; // 256 MiB: ~2048 tokens of KV.
    cfg.maxDecodeBatch = 8;
    Engine engine(model_, cfg);
    auto m = engine.run(makeFixedTrace(8, 256, 128));
    EXPECT_EQ(m.completed, 8); // Preemption must not lose requests.
}

TEST_F(EngineTest, RespectsArrivalTimes)
{
    EngineConfig cfg = baseConfig();
    Engine engine(model_, cfg);
    std::vector<Request> trace = makeFixedTrace(4, 128, 16);
    trace[3].arrival = 1e3; // Arrives much later.
    auto m = engine.run(trace);
    EXPECT_GE(m.makespan, 1e3);
}

TEST_F(EngineTest, A100EngineRuns)
{
    EngineConfig cfg = baseConfig();
    cfg.device = DeviceKind::A100;
    Engine engine(model_, cfg);
    auto m = engine.run(makeFixedTrace(8, 128, 32));
    EXPECT_EQ(m.completed, 8);
}

TEST_F(EngineTest, KvCacheClampedToHbmBudget)
{
    EngineConfig cfg = baseConfig();
    cfg.kvCacheBytes = 1ull << 40; // Absurd: 1 TiB.
    Engine engine(model_, cfg);
    // Weights (~16 GiB) + KV must fit the 96 GiB HBM.
    EXPECT_LE(engine.kvBudget(), hw::gaudi2Spec().hbmCapacity);
    EXPECT_GT(engine.kvBudget(), 60ull << 30);
    auto m = engine.run(makeFixedTrace(8, 128, 16));
    EXPECT_EQ(m.completed, 8);
}

TEST_F(EngineTest, ModelTooLargePanics)
{
    models::LlamaModel big(models::LlamaConfig::llama31_70b());
    EngineConfig cfg = baseConfig();
    cfg.tpDevices = 1; // 140 GiB of weights on a 96 GiB device.
    EXPECT_DEATH(Engine(big, cfg), "does not fit");
}

// Infeasible input fails up front instead of hanging: a 64 MiB pool
// holds 512 tokens of Llama-3.1-8B KV (four 128-token blocks).
TEST_F(EngineTest, RejectsPromptLargerThanKvPool)
{
    EngineConfig cfg = baseConfig();
    cfg.kvCacheBytes = 64ull << 20;
    Engine engine(model_, cfg);
    EXPECT_DEATH(engine.run(makeFixedTrace(1, 1000, 8)),
                 "request 0 needs 1008 KV tokens.*kvCacheBytes=67108864 "
                 "holds 4 blocks of blockTokens=128");
}

TEST_F(EngineTest, RejectsOutputLargerThanKvPool)
{
    // The prompt fits, but decoding would preempt and recompute the
    // lone request forever.
    EngineConfig cfg = baseConfig();
    cfg.kvCacheBytes = 64ull << 20;
    Engine engine(model_, cfg);
    EXPECT_DEATH(engine.run(makeFixedTrace(1, 100, 1000)),
                 "request 0 needs 1100 KV tokens");
}

TEST_F(EngineTest, RejectsKvPoolSmallerThanOneSlab)
{
    // One contiguous maxModelLen slab of 4096 tokens takes 512 MiB.
    EngineConfig cfg = baseConfig();
    cfg.kvCacheBytes = 64ull << 20;
    cfg.kvPolicy = KvPolicy::Contiguous;
    Engine engine(model_, cfg);
    EXPECT_DEATH(engine.run(makeFixedTrace(1, 100, 8)),
                 "kvCacheBytes=67108864 holds no KV block: one "
                 "maxModelLen=4096-token block takes 536870912 bytes");
}

TEST_F(EngineTest, ChunkedPrefillReducesDecodeStalls)
{
    // Long prompts + short outputs: monolithic prefills stall the
    // decode batch; chunking interleaves them.
    auto trace = makeFixedTrace(24, 2048, 32);
    EngineConfig cfg = baseConfig();
    cfg.maxDecodeBatch = 8;

    Engine mono(model_, cfg);
    auto mm = mono.run(trace);

    cfg.chunkedPrefillTokens = 256;
    Engine chunked(model_, cfg);
    auto mc = chunked.run(trace);

    EXPECT_EQ(mc.completed, 24);
    // Decode cadence (TPOT) improves when prefills no longer block
    // entire iterations.
    EXPECT_LT(mc.meanTpot, mm.meanTpot);
}

TEST_F(EngineTest, EventsRecordedAndOrdered)
{
    EngineConfig cfg = baseConfig();
    cfg.recordEvents = true;
    cfg.chunkedPrefillTokens = 128;
    Engine engine(model_, cfg);
    auto m = engine.run(makeFixedTrace(6, 512, 16));
    EXPECT_EQ(m.completed, 6);
    const auto &events = engine.events();
    ASSERT_FALSE(events.empty());
    Seconds prev_end = 0;
    bool saw_prefill_work = false, saw_decode = false;
    for (const auto &e : events) {
        EXPECT_GE(e.start, prev_end - 1e-12);
        EXPECT_GT(e.duration, 0);
        prev_end = e.start + e.duration;
        if (e.prefillTokens > 0)
            saw_prefill_work = true;
        if (e.decodeBatch > 0)
            saw_decode = true;
    }
    EXPECT_TRUE(saw_prefill_work);
    EXPECT_TRUE(saw_decode);
    // Last event ends at the makespan.
    EXPECT_NEAR(prev_end, m.makespan, 1e-9);
}

TEST_F(EngineTest, ShortestPromptFirstLowersMeanTtft)
{
    // A mix of long and short prompts, all arriving at once: FCFS
    // makes short prompts wait behind long prefills.
    std::vector<Request> trace;
    for (int i = 0; i < 16; i++) {
        Request r;
        r.id = i;
        r.inputLen = i % 2 == 0 ? 2048 : 128;
        r.outputLen = 16;
        trace.push_back(r);
    }

    EngineConfig cfg = baseConfig();
    cfg.maxDecodeBatch = 4;
    Engine fcfs(model_, cfg);
    auto mf = fcfs.run(trace);

    cfg.schedPolicy = SchedPolicy::ShortestPromptFirst;
    Engine sjf(model_, cfg);
    auto ms = sjf.run(trace);

    EXPECT_EQ(ms.completed, 16);
    EXPECT_LT(ms.meanTtft, mf.meanTtft);
    // Total work is unchanged; makespan stays comparable.
    EXPECT_NEAR(ms.makespan / mf.makespan, 1.0, 0.15);
}

TEST_F(EngineTest, EventsOffByDefault)
{
    Engine engine(model_, baseConfig());
    engine.run(makeFixedTrace(4, 128, 8));
    EXPECT_TRUE(engine.events().empty());
}

} // namespace
} // namespace vespera::serve
