#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "digest.h"
#include "obs/capture.h"
#include "obs/counters.h"
#include "runtime/pool.h"
#include "runtime/sweep.h"
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

// Each bad sizing field fails in the constructor, naming itself.
TEST_F(EngineTest, RejectsZeroMaxDecodeBatch)
{
    EngineConfig cfg = baseConfig();
    cfg.maxDecodeBatch = 0;
    EXPECT_DEATH(Engine(model_, cfg), "maxDecodeBatch .* got 0");
}

TEST_F(EngineTest, RejectsZeroTpDevices)
{
    EngineConfig cfg = baseConfig();
    cfg.tpDevices = 0;
    EXPECT_DEATH(Engine(model_, cfg), "tpDevices .* got 0");
}

TEST_F(EngineTest, RejectsZeroBlockTokens)
{
    EngineConfig cfg = baseConfig();
    cfg.blockTokens = 0;
    EXPECT_DEATH(Engine(model_, cfg), "blockTokens .* got 0");
}

TEST_F(EngineTest, RejectsZeroMaxModelLen)
{
    EngineConfig cfg = baseConfig();
    cfg.maxModelLen = 0;
    EXPECT_DEATH(Engine(model_, cfg), "maxModelLen .* got 0");
}

TEST_F(EngineTest, RejectsNegativeChunkedPrefillTokens)
{
    EngineConfig cfg = baseConfig();
    cfg.chunkedPrefillTokens = -64;
    EXPECT_DEATH(Engine(model_, cfg), "chunkedPrefillTokens .* got -64");
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

// Golden runs: SPF/FCFS x paged/contiguous x chunked/monolithic prefill
// over a dense Poisson trace on small KV pools, so requests queue and
// the paged runs preempt. Each expected string pins the ServingMetrics
// bits (%a), an FNV-1a digest of the recorded events, and the value,
// peak and update count of the step telemetry and kv.* counters, as
// printed by the engine that re-sorted the arrived queue with
// stable_sort every iteration and published counters per step.
struct GoldenScenario
{
    const char *name;
    SchedPolicy sched;
    KvPolicy kv;
    int chunkedPrefillTokens;
    const char *expected;
};

const GoldenScenario kGolden[] = {
    {"fcfs_paged_chunked", SchedPolicy::Fcfs, KvPolicy::Paged, 256,
     "makespan=0x1.a15911dcb3702p+2 thr=0x1.b7313b1536f9dp+8"
     " ttft=0x1.f841cf6923b4p+0 p99=0x1.123cb10f8bdep+2"
     " tpot=0x1.3b0d41b9a50a1p-7 done=48 preempt=5"
     " batch=0x1.11701d3724e27p+2 events=2b5dc47a58c88967"
     " engine.steps=705/705/705"
     " engine.prefill_tokens=36800/36800/705"
     " engine.decode_tokens=2942/2942/705 engine.preemptions=5/5/5"
     " engine.recomputed_tokens=184/184/184"
     " kv.blocks_in_use=6/32/705 kv.blocks_allocated=332/332/68"
     " kv.blocks_high_water=16/32/68 kv.grow_failures=5/5/5"},
    {"fcfs_paged_mono", SchedPolicy::Fcfs, KvPolicy::Paged, 0,
     "makespan=0x1.ce295b6392315p+2 thr=0x1.8c9b1c93f666p+8"
     " ttft=0x1.24b7e9a9a24fbp+1 p99=0x1.43b3811eee04p+2"
     " tpot=0x1.6de541e4f11b4p-7 done=48 preempt=5"
     " batch=0x1.218bfce8062ffp+2 events=f5bfef6350235235"
     " engine.steps=715/715/715"
     " engine.prefill_tokens=36800/36800/715"
     " engine.decode_tokens=2995/2995/715 engine.preemptions=5/5/5"
     " engine.recomputed_tokens=184/184/184"
     " kv.blocks_in_use=6/32/715 kv.blocks_allocated=332/332/68"
     " kv.blocks_high_water=16/32/68 kv.grow_failures=5/5/5"},
    {"fcfs_contig_chunked", SchedPolicy::Fcfs, KvPolicy::Contiguous, 256,
     "makespan=0x1.1ab2293604407p+3 thr=0x1.44315df1cf002p+8"
     " ttft=0x1.ae99b27f936ddp+1 p99=0x1.c3bb158efda1cp+2"
     " tpot=0x1.19046b09c48e9p-7 done=48 preempt=0"
     " batch=0x1.6bb8b3cb4d3d4p+1 events=080553238c628d99"
     " engine.steps=995/995/995"
     " engine.prefill_tokens=33400/33400/995"
     " engine.decode_tokens=2768/2768/995 engine.preemptions=0/0/0"
     " engine.recomputed_tokens=0/0/0 kv.blocks_in_use=1/3/995"
     " kv.blocks_allocated=48/48/48 kv.blocks_high_water=3/3/48"
     " kv.grow_failures=0/0/0"},
    {"fcfs_contig_mono", SchedPolicy::Fcfs, KvPolicy::Contiguous, 0,
     "makespan=0x1.2d9d63d4628d3p+3 thr=0x1.2fdb9666b37b5p+8"
     " ttft=0x1.d254b3a0f7e89p+1 p99=0x1.e7f29d9099d3ap+2"
     " tpot=0x1.357b419392415p-7 done=48 preempt=0"
     " batch=0x1.7a397c5fa171ap+1 events=f2f1f4d7aa1c21f6"
     " engine.steps=1001/1001/1001"
     " engine.prefill_tokens=33400/33400/1001"
     " engine.decode_tokens=2816/2816/1001 engine.preemptions=0/0/0"
     " engine.recomputed_tokens=0/0/0 kv.blocks_in_use=1/3/1001"
     " kv.blocks_allocated=48/48/48 kv.blocks_high_water=3/3/48"
     " kv.grow_failures=0/0/0"},
    {"spf_paged_chunked", SchedPolicy::ShortestPromptFirst,
     KvPolicy::Paged, 256,
     "makespan=0x1.9ee74934a265fp+2 thr=0x1.b9c7a60a26259p+8"
     " ttft=0x1.90ef53a9d72b3p+0 p99=0x1.3a419c11dde25p+2"
     " tpot=0x1.4e8eba74b59ecp-7 done=48 preempt=2"
     " batch=0x1.0721a54d880bbp+2 events=91972cb86075441a"
     " engine.steps=704/704/704"
     " engine.prefill_tokens=35000/35000/704"
     " engine.decode_tokens=2828/2828/704 engine.preemptions=2/2/2"
     " engine.recomputed_tokens=64/64/64 kv.blocks_in_use=12/32/704"
     " kv.blocks_allocated=317/317/65 kv.blocks_high_water=31/32/65"
     " kv.grow_failures=2/2/2"},
    {"spf_paged_mono", SchedPolicy::ShortestPromptFirst, KvPolicy::Paged, 0,
     "makespan=0x1.d32522f35d47bp+2 thr=0x1.885ff9ba76d9cp+8"
     " ttft=0x1.fd3a19ab8deep+0 p99=0x1.6dcec90f8b01ap+2"
     " tpot=0x1.74b8619e3dfb5p-7 done=48 preempt=5"
     " batch=0x1.252ec99ad1366p+2 events=296b83a07a567f63"
     " engine.steps=726/726/726"
     " engine.prefill_tokens=36200/36200/726"
     " engine.decode_tokens=3083/3083/726 engine.preemptions=5/5/5"
     " engine.recomputed_tokens=272/272/272"
     " kv.blocks_in_use=12/32/726 kv.blocks_allocated=328/328/68"
     " kv.blocks_high_water=31/32/68 kv.grow_failures=5/5/5"},
    {"spf_contig_chunked", SchedPolicy::ShortestPromptFirst,
     KvPolicy::Contiguous, 256,
     "makespan=0x1.256a81c49d855p+3 thr=0x1.385929b845374p+8"
     " ttft=0x1.b97e0c21de3f5p+1 p99=0x1.e5ef4d25b92cep+2"
     " tpot=0x1.18b3c8a9dbc15p-7 done=48 preempt=0"
     " batch=0x1.5d457515d4575p+1 events=e7a9507f8ce2691f"
     " engine.steps=1036/1036/1036"
     " engine.prefill_tokens=33400/33400/1036"
     " engine.decode_tokens=2768/2768/1036 engine.preemptions=0/0/0"
     " engine.recomputed_tokens=0/0/0 kv.blocks_in_use=1/3/1036"
     " kv.blocks_allocated=48/48/48 kv.blocks_high_water=3/3/48"
     " kv.grow_failures=0/0/0"},
    {"spf_contig_mono", SchedPolicy::ShortestPromptFirst,
     KvPolicy::Contiguous, 0,
     "makespan=0x1.36f542d595a82p+3 thr=0x1.26ba54d5c8033p+8"
     " ttft=0x1.d77e414e453e7p+1 p99=0x1.0438fba8f5dd5p+3"
     " tpot=0x1.36bc481122261p-7 done=48 preempt=0"
     " batch=0x1.6c74ffbdbc2e9p+1 events=bc640ca4efeb9de1"
     " engine.steps=1037/1037/1037"
     " engine.prefill_tokens=33400/33400/1037"
     " engine.decode_tokens=2816/2816/1037 engine.preemptions=0/0/0"
     " engine.recomputed_tokens=0/0/0 kv.blocks_in_use=1/3/1037"
     " kv.blocks_allocated=48/48/48 kv.blocks_high_water=3/3/48"
     " kv.grow_failures=0/0/0"},
};

EngineConfig
goldenConfig(const GoldenScenario &s)
{
    EngineConfig cfg;
    cfg.device = DeviceKind::Gaudi2;
    cfg.maxDecodeBatch = 16;
    cfg.maxModelLen = 2304; // 288 MiB contiguous slab: 3 fit in 1 GiB.
    cfg.kvCacheBytes = s.kv == KvPolicy::Paged ? 512ull << 20
                                               : 1ull << 30;
    cfg.kvPolicy = s.kv;
    cfg.schedPolicy = s.sched;
    cfg.chunkedPrefillTokens = s.chunkedPrefillTokens;
    cfg.recordEvents = true;
    return cfg;
}

std::vector<Request>
goldenTrace()
{
    Rng rng(11);
    TraceConfig tc;
    tc.numRequests = 48;
    tc.outputLogMean = 4.0;
    tc.maxOutputLen = 128;
    tc.arrivalRate = 40;
    std::vector<Request> trace = makeDynamicTrace(tc, rng);
    // Prompt lengths in 200-token steps: SPF sees many equal keys, so
    // its tie order (arrival order, preempted requests first) shows.
    for (Request &r : trace)
        r.inputLen = (r.inputLen + 199) / 200 * 200;
    return trace;
}

std::uint64_t
eventDigest(const std::vector<EngineEvent> &events)
{
    std::uint64_t h = test::kFnv1aBasis;
    for (const EngineEvent &e : events)
        h = test::fnv1a(strfmt("%d|%a|%a|%d|%d;", static_cast<int>(e.kind),
                               e.start, e.duration, e.decodeBatch,
                               e.prefillTokens),
                        h);
    return h;
}

/** Metrics, event digest and counter state after one scenario run. */
std::string
goldenDoc(const ServingMetrics &m, std::uint64_t events)
{
    std::string doc = strfmt(
        "makespan=%a thr=%a ttft=%a p99=%a tpot=%a done=%d preempt=%d "
        "batch=%a events=%016llx",
        m.makespan, m.throughputTokensPerSec, m.meanTtft, m.p99Ttft,
        m.meanTpot, m.completed, m.preemptions, m.avgDecodeBatch,
        static_cast<unsigned long long>(events));
    const auto &reg = obs::CounterRegistry::instance();
    for (const char *name :
         {"engine.steps", "engine.prefill_tokens", "engine.decode_tokens",
          "engine.preemptions", "engine.recomputed_tokens",
          "kv.blocks_in_use", "kv.blocks_allocated",
          "kv.blocks_high_water", "kv.grow_failures"}) {
        const obs::Counter *c = reg.find(name);
        doc += strfmt(" %s=%.17g/%.17g/%llu", name, c ? c->value() : 0,
                      c ? c->peak() : 0,
                      static_cast<unsigned long long>(
                          c ? c->updates() : 0));
    }
    return doc;
}

class EngineGolden : public EngineTest
{
};

TEST_F(EngineGolden, LiveMatchesReference)
{
    for (const GoldenScenario &s : kGolden) {
        SCOPED_TRACE(s.name);
        obs::CounterRegistry::instance().reset();
        Engine engine(model_, goldenConfig(s));
        const ServingMetrics m = engine.run(goldenTrace());
        EXPECT_EQ(goldenDoc(m, eventDigest(engine.events())), s.expected);
    }
}

// Run-end publication under a sweep worker's capture: nothing lands in
// the registry until replay(), which then leaves the live state.
TEST_F(EngineGolden, CapturedThenReplayedMatchesReference)
{
    for (const GoldenScenario &s : kGolden) {
        SCOPED_TRACE(s.name);
        obs::CounterRegistry::instance().reset();
        Engine engine(model_, goldenConfig(s));
        obs::SideEffectLog log;
        ServingMetrics m;
        {
            obs::ScopedCapture capture(log);
            m = engine.run(goldenTrace());
        }
        const obs::Counter *steps =
            obs::CounterRegistry::instance().find("engine.steps");
        ASSERT_NE(steps, nullptr);
        EXPECT_EQ(steps->updates(), 0u);
        log.replay();
        EXPECT_EQ(goldenDoc(m, eventDigest(engine.events())), s.expected);
    }
}

// The scenarios as one parallel sweep: counter state after the sweep
// equals the serial sweep's at 4 threads (replay in index order).
TEST_F(EngineGolden, ParallelSweepMatchesSerial)
{
    struct PoolGuard
    {
        ~PoolGuard() { runtime::Pool::setGlobalThreads(1); }
    } guard;
    auto sweep = [&](int threads) {
        runtime::Pool::setGlobalThreads(threads);
        obs::CounterRegistry::instance().reset();
        runtime::SweepRunner runner("test.engine_golden");
        const std::size_t n = std::size(kGolden);
        auto makespans = runner.mapIndex(n, [&](std::size_t i) {
            Engine engine(model_, goldenConfig(kGolden[i]));
            return engine.run(goldenTrace()).makespan;
        });
        std::string doc;
        for (Seconds t : makespans)
            doc += strfmt("%a ", t);
        return doc + goldenDoc(ServingMetrics{}, 0);
    };
    const std::string serial = sweep(1);
    EXPECT_EQ(sweep(4), serial);
}

TEST_F(EngineTest, EventsOffByDefault)
{
    Engine engine(model_, baseConfig());
    engine.run(makeFixedTrace(4, 128, 8));
    EXPECT_TRUE(engine.events().empty());
}

} // namespace
} // namespace vespera::serve
