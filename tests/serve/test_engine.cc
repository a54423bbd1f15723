#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "digest.h"
#include "obs/capture.h"
#include "obs/counters.h"
#include "obs/export.h"
#include "obs/profiler.h"
#include "obs/timeline.h"
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

// Chunked prefill at chunk sizes off the 64-token bucket grid: a run
// revisits each (chunk bucket, context bucket) pair many times, so the
// engine's step memo serves most chunks from a hit. Each expected
// string adds a digest of every device counter (all but runtime.* and
// replay.*), which the run charges once per memoized step with its
// call count. The metric, event and engine/kv parts were printed by
// the engine that evaluated every chunk through
// LlamaModel::stepReport. Both paged runs preempt; SPF on a paged pool
// stays at 512 MiB, clear of the preemption livelock a 384 MiB pool
// runs into (SpfLivelockFailsNamingTheStuckRequest).
const GoldenScenario kChunkGolden[] = {
    {"fcfs_paged_chunk96", SchedPolicy::Fcfs, KvPolicy::Paged, 96,
     "makespan=0x1.c9a828ef50d35p+2 thr=0x1.9082792f6f4b1p+8"
     " ttft=0x1.31e5f79b4c245p+1 p99=0x1.485a637f271c3p+2"
     " tpot=0x1.35d6751b22936p-7 done=48 preempt=3"
     " batch=0x1.e7d20207709cfp+1 events=1ee0ee88c5ef2950"
     " engine.steps=769/769/769"
     " engine.prefill_tokens=36400/36400/769"
     " engine.decode_tokens=2834/2834/769 engine.preemptions=3/3/3"
     " engine.recomputed_tokens=72/72/72 kv.blocks_in_use=4/32/769"
     " kv.blocks_allocated=328/328/66"
     " kv.blocks_high_water=28/32/66 kv.grow_failures=3/3/3"
     " counters=7a8e67fa9e52adce"},
    {"fcfs_contig_chunk160", SchedPolicy::Fcfs, KvPolicy::Contiguous,
     160,
     "makespan=0x1.27b1695a6da24p+3 thr=0x1.35f16cedeed1dp+8"
     " ttft=0x1.c95fa8eaf11a5p+1 p99=0x1.ddc166cba8458p+2"
     " tpot=0x1.1c6f321f6ea83p-7 done=48 preempt=0"
     " batch=0x1.626c3d6b7c193p+1 events=67edef0cf0bbedbd"
     " engine.steps=1024/1024/1024"
     " engine.prefill_tokens=33400/33400/1024"
     " engine.decode_tokens=2768/2768/1024"
     " engine.preemptions=0/0/0 engine.recomputed_tokens=0/0/0"
     " kv.blocks_in_use=1/3/1024 kv.blocks_allocated=48/48/48"
     " kv.blocks_high_water=3/3/48 kv.grow_failures=0/0/0"
     " counters=c38f9b48eb1a5f92"},
    {"spf_paged_chunk128", SchedPolicy::ShortestPromptFirst,
     KvPolicy::Paged, 128,
     "makespan=0x1.d4230d38f19c8p+2 thr=0x1.878b273fb6543p+8"
     " ttft=0x1.ed3425969f41dp+0 p99=0x1.6fcbe3095c78fp+2"
     " tpot=0x1.7219117dfa4b4p-7 done=48 preempt=8"
     " batch=0x1.01f1bde4c79d8p+2 events=60a89cff1f028cff"
     " engine.steps=799/799/799"
     " engine.prefill_tokens=38400/38400/799"
     " engine.decode_tokens=3128/3128/799 engine.preemptions=8/8/8"
     " engine.recomputed_tokens=376/376/376"
     " kv.blocks_in_use=12/32/799 kv.blocks_allocated=346/346/71"
     " kv.blocks_high_water=22/32/71 kv.grow_failures=8/8/8"
     " counters=5fac88076c696533"},
    {"spf_contig_chunk200", SchedPolicy::ShortestPromptFirst,
     KvPolicy::Contiguous, 200,
     "makespan=0x1.29370388df1f5p+3 thr=0x1.345b237ac8009p+8"
     " ttft=0x1.be0bab6fc6425p+1 p99=0x1.ed9281d8826cp+2"
     " tpot=0x1.1a3651aef7f53p-7 done=48 preempt=0"
     " batch=0x1.5b965763fb101p+1 events=e4d49ff71e7def2b"
     " engine.steps=1042/1042/1042"
     " engine.prefill_tokens=33400/33400/1042"
     " engine.decode_tokens=2768/2768/1042"
     " engine.preemptions=0/0/0 engine.recomputed_tokens=0/0/0"
     " kv.blocks_in_use=1/3/1042 kv.blocks_allocated=48/48/48"
     " kv.blocks_high_water=3/3/48 kv.grow_failures=0/0/0"
     " counters=13d55dd693fff80a"},
};

TEST_F(EngineGolden, ChunkedPrefillMatchesReference)
{
    for (const GoldenScenario &s : kChunkGolden) {
        SCOPED_TRACE(s.name);
        obs::CounterRegistry::instance().reset();
        Engine engine(model_, goldenConfig(s));
        const ServingMetrics m = engine.run(goldenTrace());
        EXPECT_EQ(goldenDoc(m, eventDigest(engine.events())) +
                      " counters=" + test::deviceCounterDigest(),
                  s.expected);
    }
}

// SPF on a 384 MiB paged pool: long prompts fill it, and each needs
// one more block at the same decoded token. The request whose growth
// fails is re-admitted at once and fails again, so the progress bound
// stops the run and names it. FCFS on the same pool finishes.
TEST_F(EngineGolden, SpfLivelockFailsNamingTheStuckRequest)
{
    GoldenScenario s = kGolden[5];
    ASSERT_STREQ(s.name, "spf_paged_mono");
    EngineConfig cfg = goldenConfig(s);
    cfg.kvCacheBytes = 384ull << 20;
    Engine spf(model_, cfg);
    EXPECT_DEATH(spf.run(goldenTrace()),
                 "engine made no progress in [0-9]+ iterations: request "
                 "[0-9]+ \\(inputLen [0-9]+, outputLen [0-9]+\\) is "
                 "preempted.*kvCacheBytes=402653184 \\(24 blocks\\) "
                 "under schedPolicy=ShortestPromptFirst");

    cfg.schedPolicy = SchedPolicy::Fcfs;
    const ServingMetrics m = Engine(model_, cfg).run(goldenTrace());
    EXPECT_EQ(m.completed, 48);
    EXPECT_EQ(m.preemptions, 5);
}

std::uint64_t
ttftPublished()
{
    const obs::Histogram *h =
        obs::CounterRegistry::instance().findHistogram("engine.ttft_seconds");
    return h ? h->count() : 0;
}

// Run-end publication under a sweep worker's capture: no counter lands
// in the registry until replay(), which then leaves the live state. The
// histograms travel in the result and land only at publish().
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
        EXPECT_EQ(ttftPublished(), 0u);
        publish(m);
        EXPECT_EQ(ttftPublished(), m.ttft.count());
        EXPECT_EQ(m.ttft.count(), 48u);
    }
}

// The scenarios as one parallel sweep, published in index order after
// the join: counter state, registry histograms and timeline series
// equal the serial sweep's at 4 threads.
TEST_F(EngineGolden, ParallelSweepMatchesSerial)
{
    obs::Timeline &tl = obs::Timeline::instance();
    struct Guard
    {
        ~Guard()
        {
            runtime::Pool::setGlobalThreads(1);
            obs::Timeline::instance().setEnabled(false);
            obs::Timeline::instance().reset();
            obs::Timeline::instance().setInterval(1.0);
        }
    } guard;
    tl.setInterval(0.5);
    tl.setEnabled(true);
    auto sweep = [&](int threads) {
        runtime::Pool::setGlobalThreads(threads);
        obs::CounterRegistry::instance().reset();
        tl.reset();
        runtime::SweepRunner runner("test.engine_golden");
        const std::size_t n = std::size(kGolden);
        auto results = runner.mapIndex(n, [&](std::size_t i) {
            Engine engine(model_, goldenConfig(kGolden[i]));
            return engine.run(goldenTrace());
        });
        std::string doc;
        for (const ServingMetrics &m : results) {
            doc += strfmt("%a ", m.makespan);
            publish(m);
        }
        doc += goldenDoc(ServingMetrics{}, 0);
        for (const char *name :
             {"engine.ttft_seconds", "engine.tpot_seconds"}) {
            const obs::Histogram *h =
                obs::CounterRegistry::instance().findHistogram(name);
            if (h == nullptr) {
                ADD_FAILURE() << name << " not published";
                continue;
            }
            doc += strfmt(" %s=%llu/%a/%a/%a", name,
                          static_cast<unsigned long long>(h->count()),
                          h->sum(), h->percentile(50), h->percentile(99));
        }
        for (const auto &series : tl.series()) {
            doc += " " + series.name;
            for (const obs::TimelineSample &smp : series.samples)
                doc += strfmt("|%a,%a", smp.t, smp.value);
        }
        return doc;
    };
    const std::string serial = sweep(1);
    // Every scenario's run is in the document: labels run0..run<n-1>.
    EXPECT_NE(serial.find(strfmt(" run%zu.queue_depth|",
                                 std::size(kGolden) - 1)),
              std::string::npos);
    EXPECT_EQ(sweep(4), serial);
}

// Both prefill modes, so a run takes every step kind: monolithic
// prefill and decode steps, or chunk, mixed and decode steps.
constexpr int kChunkedPrefillTokens[] = {0, 160};

double
counterValue(const char *name)
{
    const obs::Counter *c = obs::CounterRegistry::instance().find(name);
    return c ? c->value() : 0;
}

// A second run on one engine takes every step from the step memo and
// charges what the first run charged.
TEST_F(EngineTest, SecondRunChargesLikeTheFirst)
{
    for (const int chunk : kChunkedPrefillTokens) {
        SCOPED_TRACE(chunk);
        EngineConfig cfg = baseConfig();
        cfg.chunkedPrefillTokens = chunk;
        Engine engine(model_, cfg);
        std::vector<std::string> docs;
        for (int pass = 0; pass < 2; pass++) {
            obs::CounterRegistry::instance().reset();
            engine.run(makeFixedTrace(8, 1000, 16));
            docs.push_back(test::deviceCounterDoc());
        }
        EXPECT_NE(docs[0].find("graph.ops="), std::string::npos);
        EXPECT_EQ(docs[1], docs[0]);
    }
}

// Device counters count executed steps: graph.ops and mme.gemms equal
// one step's node and GEMM counts summed over the run's events, with
// a mixed step counting as a decode step plus a chunk.
TEST_F(EngineTest, DeviceCountersCountExecutedSteps)
{
    auto charges = [this](int batch, int tokens, std::int64_t ctx,
                          bool prefill) {
        obs::CounterRegistry::instance().reset();
        models::LlamaServingConfig scfg;
        scfg.attention = EngineConfig{}.attention;
        model_.stepReport(DeviceKind::Gaudi2, batch, tokens, ctx, prefill,
                          scfg);
        return std::make_pair(counterValue("graph.ops"),
                              counterValue("mme.gemms"));
    };
    // A step's node and GEMM counts do not depend on its shape.
    const auto decode = charges(4, 1, 512, false);
    ASSERT_EQ(charges(16, 1, 2048, false), decode);
    const auto prefill = charges(1, 256, 256, true);
    ASSERT_EQ(charges(1, 64, 1024, true), prefill);
    ASSERT_GT(decode.second, 0);

    for (const int chunk : kChunkedPrefillTokens) {
        SCOPED_TRACE(chunk);
        EngineConfig cfg = baseConfig();
        cfg.chunkedPrefillTokens = chunk;
        cfg.recordEvents = true;
        Engine engine(model_, cfg);
        obs::CounterRegistry::instance().reset();
        engine.run(makeFixedTrace(8, 1000, 16));
        double ops = 0, gemms = 0;
        for (const EngineEvent &e : engine.events()) {
            if (e.decodeBatch > 0) {
                ops += decode.first;
                gemms += decode.second;
            }
            if (e.prefillTokens > 0) {
                ops += prefill.first;
                gemms += prefill.second;
            }
        }
        EXPECT_EQ(counterValue("graph.ops"), ops);
        EXPECT_EQ(counterValue("mme.gemms"), gemms);
    }
}

// While the Profiler traces, the step memo steps aside like the replay
// caches: a second traced run on the same engine evaluates every step
// again and samples as many MME utilization points.
TEST_F(EngineTest, TracedStepsBypassTheStepMemo)
{
    obs::Profiler &prof = obs::Profiler::instance();
    struct Guard
    {
        ~Guard()
        {
            obs::Profiler::instance().setEnabled(false);
            obs::Profiler::instance().clear();
        }
    } guard;
    for (const int chunk : kChunkedPrefillTokens) {
        SCOPED_TRACE(chunk);
        EngineConfig cfg = baseConfig();
        cfg.chunkedPrefillTokens = chunk;
        Engine engine(model_, cfg);
        std::vector<std::size_t> mme_samples;
        for (int pass = 0; pass < 2; pass++) {
            prof.clear();
            prof.setEnabled(true);
            engine.run(makeFixedTrace(8, 1000, 16));
            prof.setEnabled(false);
            std::size_t n = 0;
            for (const obs::TrackSample &s : prof.samples())
                n += s.track == "mme.utilization" ? 1 : 0;
            mme_samples.push_back(n);
        }
        EXPECT_GT(mme_samples[0], 0u);
        EXPECT_EQ(mme_samples[1], mme_samples[0]);
    }
}

/**
 * Every device counter's name and update count, and its value where it
 * counts whole things: a traced run charges step by step, an untraced
 * one charges n runs of a step as n times one run, so only the sums of
 * fractional values may round apart.
 */
std::string
deviceCountDoc()
{
    std::string doc;
    for (const obs::CounterSnapshot &c :
         obs::CounterRegistry::instance().snapshot()) {
        if (c.updates == 0 || obs::isHostTelemetry(c.name))
            continue;
        doc += strfmt("%s/%llu", c.name.c_str(),
                      static_cast<unsigned long long>(c.updates));
        if (std::trunc(c.value) == c.value)
            doc += strfmt("=%.17g", c.value);
        doc += ";";
    }
    return doc;
}

// A traced run charges each step as it goes, an untraced one charges
// each memoized step once at the end: both count the same steps.
TEST_F(EngineTest, TracedRunChargesLikeUntraced)
{
    struct Guard
    {
        ~Guard()
        {
            obs::Profiler::instance().setEnabled(false);
            obs::Profiler::instance().clear();
        }
    } guard;
    for (const int chunk : kChunkedPrefillTokens) {
        SCOPED_TRACE(chunk);
        EngineConfig cfg = baseConfig();
        cfg.chunkedPrefillTokens = chunk;
        std::vector<std::string> docs;
        for (const bool traced : {false, true}) {
            obs::CounterRegistry::instance().reset();
            obs::Profiler::instance().setEnabled(traced);
            Engine(model_, cfg).run(makeFixedTrace(8, 1000, 16));
            obs::Profiler::instance().setEnabled(false);
            docs.push_back(deviceCountDoc());
        }
        EXPECT_NE(docs[0].find("graph.ops/"), std::string::npos);
        EXPECT_EQ(docs[1], docs[0]);
    }
}

TEST_F(EngineTest, EventsOffByDefault)
{
    Engine engine(model_, baseConfig());
    engine.run(makeFixedTrace(4, 128, 8));
    EXPECT_TRUE(engine.events().empty());
}

} // namespace
} // namespace vespera::serve
