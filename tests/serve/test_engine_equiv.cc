/**
 * @file
 * Differential equivalence suite for serve::Engine: the same schedule
 * at every thread count, and with the replay caches on or off.
 *
 * The contract under test is *byte* equivalence, not approximate
 * equivalence: for every scheduler scenario, every thread count must
 * produce bit-identical serving metrics, counter
 * values/peaks/update-counts, rate meters, latency histograms
 * (count, exact sum bits, every nonzero bucket), and — with the
 * Timeline enabled, as this fixture always does — every virtual-time
 * timeline sample and SLO first-violation stamp (obs/timeline.h). All
 * floating-point state is serialized with %a so "close" can never
 * pass for "equal".
 *
 * Canonical-doc exclusions (and nothing else):
 *  - runtime.* : host-side pool facts, thread-variant by design.
 *  - replay.*  : process-wide replay-cache stats; cache state persists
 *    across runs, so hit/miss splits depend on run order, not on the
 *    simulated schedule.
 *
 * Cache state (per scenario, before any compared run): both memos are
 * cleared, so each scenario's reference run evaluates every step and
 * node afresh and the later runs hit. No warm-up run is needed: the
 * memos store pure values, and `mme.reconfigs` counts per graph, so
 * no model state carries over from one run to the next.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/replay_cache.h"
#include "obs/counters.h"
#include "obs/timeline.h"
#include "runtime/pool.h"
#include "serve/engine.h"

namespace vespera::serve {
namespace {

bool
excludedFromDoc(const std::string &name)
{
    return name.rfind("runtime.", 0) == 0 ||
           name.rfind("replay.", 0) == 0;
}

/** Every observable of one run, with float bits spelled out in hex. */
std::string
canonicalDoc(const ServingMetrics &m)
{
    std::string doc;
    doc += strfmt("metrics|makespan=%a|thr=%a|ttft=%a|p99=%a|tpot=%a|"
                  "completed=%d|preempt=%d|batch=%a\n",
                  m.makespan, m.throughputTokensPerSec, m.meanTtft,
                  m.p99Ttft, m.meanTpot, m.completed, m.preemptions,
                  m.avgDecodeBatch);
    const auto &reg = obs::CounterRegistry::instance();
    for (const auto &c : reg.snapshot()) {
        if (excludedFromDoc(c.name))
            continue;
        doc += strfmt("counter|%s|v=%a|peak=%a|n=%llu\n", c.name.c_str(),
                      c.value, c.peak,
                      static_cast<unsigned long long>(c.updates));
    }
    for (const auto *r : reg.rates()) {
        if (excludedFromDoc(r->name()))
            continue;
        doc += strfmt("rate|%s|total=%a|elapsed=%a\n", r->name().c_str(),
                      r->total(), r->elapsed());
    }
    for (const auto *h : reg.histograms()) {
        if (excludedFromDoc(h->name()))
            continue;
        doc += strfmt("hist|%s|n=%llu|sum=%a|min=%a|max=%a",
                      h->name().c_str(),
                      static_cast<unsigned long long>(h->count()),
                      h->sum(), h->min(), h->max());
        for (const auto &b : h->nonzeroBuckets())
            doc += strfmt("|[%a,%a)=%llu", b.lo, b.hi,
                          static_cast<unsigned long long>(b.count));
        doc += "\n";
    }
    // Timeline series and SLO stamps are virtual-time state, so they
    // fall under the same byte-equivalence contract as everything
    // above — every sample bit-for-bit, in both timestamp and value.
    const auto &tl = obs::Timeline::instance();
    for (const auto &s : tl.series()) {
        doc += strfmt("timeline|%s|dropped=%llu", s.name.c_str(),
                      static_cast<unsigned long long>(s.dropped));
        for (const auto &smp : s.samples)
            doc += strfmt("|(%a,%a)", smp.t, smp.value);
        doc += "\n";
    }
    for (const auto &r : tl.sloResults())
        doc += strfmt("slo|%s|bound=%a|violated=%d|t=%a|v=%a\n",
                      r.gauge.c_str(), r.bound, r.violated ? 1 : 0,
                      r.firstViolationT, r.firstViolationValue);
    return doc;
}

struct Scenario
{
    const char *name;
    EngineConfig cfg;
    std::vector<Request> trace;
};

/**
 * Thirteen scenarios spanning the scheduler feature space the
 * regression suite (tests/regress/regress_shapes.cc) exercises one
 * figure at a time: both devices, both attention backends, both KV
 * policies, both admission policies, monolithic and chunked prefill,
 * preemption storms, idle gaps, and dynamic traces.
 */
std::vector<Scenario>
scenarios()
{
    auto base = [] {
        EngineConfig cfg;
        cfg.device = DeviceKind::Gaudi2;
        cfg.maxDecodeBatch = 16;
        cfg.kvCacheBytes = 16ull << 30;
        return cfg;
    };
    std::vector<Scenario> list;

    list.push_back({"fixed_baseline", base(),
                    makeFixedTrace(32, 128, 32)});

    {
        EngineConfig cfg = base();
        cfg.maxDecodeBatch = 2;
        list.push_back({"tiny_batch", cfg, makeFixedTrace(12, 128, 24)});
    }
    {
        EngineConfig cfg = base();
        list.push_back({"long_prompts_monolithic", cfg,
                        makeFixedTrace(16, 1024, 32)});
    }
    {
        EngineConfig cfg = base();
        cfg.maxDecodeBatch = 8;
        cfg.chunkedPrefillTokens = 256;
        list.push_back({"chunked_prefill", cfg,
                        makeFixedTrace(24, 2048, 32)});
    }
    {
        EngineConfig cfg = base();
        cfg.maxDecodeBatch = 64;
        cfg.kvCacheBytes = 1ull << 30; // Overflow: preemption storm.
        list.push_back({"preemption_storm", cfg,
                        makeFixedTrace(48, 1024, 256)});
    }
    {
        EngineConfig cfg = base();
        cfg.maxDecodeBatch = 8;
        cfg.chunkedPrefillTokens = 128;
        cfg.kvCacheBytes = 1ull << 30;
        list.push_back({"chunked_plus_preemption", cfg,
                        makeFixedTrace(24, 1024, 192)});
    }
    {
        EngineConfig cfg = base();
        cfg.maxDecodeBatch = 4;
        cfg.schedPolicy = SchedPolicy::ShortestPromptFirst;
        std::vector<Request> trace;
        for (int i = 0; i < 16; i++) {
            Request r;
            r.id = i;
            r.inputLen = i % 2 == 0 ? 2048 : 128;
            r.outputLen = 16;
            trace.push_back(r);
        }
        list.push_back({"shortest_prompt_first", cfg, std::move(trace)});
    }
    {
        EngineConfig cfg = base();
        cfg.kvPolicy = KvPolicy::Contiguous;
        cfg.maxModelLen = 2048;
        list.push_back({"contiguous_kv", cfg,
                        makeFixedTrace(16, 256, 64)});
    }
    {
        EngineConfig cfg = base();
        cfg.device = DeviceKind::A100;
        list.push_back({"a100", cfg, makeFixedTrace(8, 128, 32)});
    }
    {
        EngineConfig cfg = base();
        cfg.attention = models::AttentionBackend::VllmBase;
        list.push_back({"vllm_base_attention", cfg,
                        makeFixedTrace(16, 1024, 32)});
    }
    {
        EngineConfig cfg = base();
        Rng rng(7);
        TraceConfig tc;
        tc.numRequests = 64;
        tc.maxInputLen = 512;
        tc.maxOutputLen = 128;
        list.push_back({"dynamic_trace", cfg,
                        makeDynamicTrace(tc, rng)});
    }
    {
        // Idle gaps: the engine drains between arrival bursts, so the
        // run crosses the idle-jump path repeatedly.
        EngineConfig cfg = base();
        std::vector<Request> trace = makeFixedTrace(12, 128, 16);
        for (std::size_t i = 0; i < trace.size(); i++)
            trace[i].arrival =
                static_cast<Seconds>(i / 4) * 50.0; // 3 bursts.
        list.push_back({"bursty_arrivals", cfg, std::move(trace)});
    }
    {
        EngineConfig cfg = base();
        cfg.recordEvents = true;
        cfg.chunkedPrefillTokens = 128;
        list.push_back({"recorded_events", cfg,
                        makeFixedTrace(6, 512, 16)});
    }
    return list;
}

class EngineEquivTest : public ::testing::Test
{
  protected:
    EngineEquivTest() : model_(models::LlamaConfig::llama31_8b())
    {
        // Always-on timelines: every scenario's windowed gauges join
        // the byte-equivalence contract. The short interval forces
        // many window crossings per run, and the tight TTFT bound
        // exercises the SLO first-violation path on most scenarios.
        auto &tl = obs::Timeline::instance();
        tl.reset();
        tl.clearSlos();
        tl.setInterval(0.25);
        tl.addSlo({"ttft_p99_seconds", 0.5});
        tl.setEnabled(true);
    }

    ~EngineEquivTest() override
    {
        runtime::Pool::setGlobalThreads(1);
        obs::CounterRegistry::instance().reset();
        auto &tl = obs::Timeline::instance();
        tl.setEnabled(false);
        tl.reset();
        tl.clearSlos();
        tl.setInterval(1.0);
    }

    /** One measured run: fresh engine, reset registry, canonical doc. */
    std::string
    runOnce(const Scenario &s, int threads,
            std::vector<EngineEvent> *events_out = nullptr)
    {
        runtime::Pool::setGlobalThreads(threads);
        obs::CounterRegistry::instance().reset();
        // Fresh timeline store per run (config survives): each run's
        // auto-assigned label is then deterministically "run0".
        obs::Timeline::instance().reset();
        Engine engine(model_, s.cfg);
        const ServingMetrics m = engine.run(s.trace);
        publish(m);
        if (events_out != nullptr)
            *events_out = engine.events();
        return canonicalDoc(m);
    }

    /** Empty both memos (see the file comment). */
    void
    clearReplayCaches()
    {
        graph::nodeReplayCache().clear();
        graph::stepReplayCache().clear();
    }

    models::LlamaModel model_;
};

TEST_F(EngineEquivTest, ByteIdenticalAtEveryThreadCount)
{
    for (const Scenario &s : scenarios()) {
        SCOPED_TRACE(s.name);
        clearReplayCaches();

        std::vector<EngineEvent> ref_events;
        const std::string reference = runOnce(s, 1, &ref_events);
        ASSERT_FALSE(reference.empty());
        // The timeline must actually be part of the compared document,
        // or its equivalence claim would pass vacuously.
        ASSERT_NE(reference.find("timeline|run0."), std::string::npos);
        ASSERT_NE(reference.find("slo|run0.ttft_p99_seconds"),
                  std::string::npos);

        for (int threads : {1, 2, 4, 8}) {
            SCOPED_TRACE(strfmt("threads=%d", threads));
            std::vector<EngineEvent> events;
            EXPECT_EQ(runOnce(s, threads, &events), reference)
                << "engine run is not thread-count invariant";

            // recordEvents scenarios additionally pin the per-step
            // event stream, not just its aggregates.
            ASSERT_EQ(events.size(), ref_events.size());
            for (std::size_t i = 0; i < ref_events.size(); i++) {
                EXPECT_EQ(static_cast<int>(events[i].kind),
                          static_cast<int>(ref_events[i].kind));
                EXPECT_EQ(events[i].start, ref_events[i].start);
                EXPECT_EQ(events[i].duration, ref_events[i].duration);
                EXPECT_EQ(events[i].decodeBatch,
                          ref_events[i].decodeBatch);
                EXPECT_EQ(events[i].prefillTokens,
                          ref_events[i].prefillTokens);
            }
        }
    }
}

TEST_F(EngineEquivTest, MatchesWithReplayCachesOff)
{
    // The replay caches claim transparency: a fully-executed
    // (cache-off) run must byte-match the cached reference.
    for (const Scenario &s : scenarios()) {
        SCOPED_TRACE(s.name);
        clearReplayCaches();
        const std::string reference = runOnce(s, 1);

        graph::ReplayCacheDisable off_node(graph::nodeReplayCache());
        graph::ReplayCacheDisable off_step(graph::stepReplayCache());
        EXPECT_EQ(runOnce(s, 1), reference)
            << "replay-cache hits are not transparent on this scenario";
    }
}

} // namespace
} // namespace vespera::serve
