#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

#include "analysis/analyzer.h"
#include "analysis/kernel_registry.h"
#include "analysis/static/static_analyzer.h"
#include "common/logging.h"
#include "common/rng.h"
#include "digest.h"
#include "graph/replay_cache.h"
#include "kern/gemm.h"
#include "kern/stream.h"
#include "models/llama.h"
#include "obs/counters.h"
#include "obs/export.h"
#include "obs/selfprof.h"
#include "runtime/parallel.h"
#include "runtime/pool.h"
#include "serve/engine.h"
#include "serve/trace.h"

namespace vespera::obs {
namespace {

/// Every test owns the process-wide profile: start clean, leave clean.
class SelfProfTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        runtime::Pool::setGlobalThreads(1);
        SelfProf::instance().setEnabled(false);
        SelfProf::instance().reset();
    }

    void
    TearDown() override
    {
        SelfProf::instance().setEnabled(false);
        SelfProf::instance().reset();
        runtime::Pool::setGlobalThreads(1);
    }
};

/// The fig5 GEMM corpus: square sweeps plus one irregular shape.
std::vector<hw::GemmShape>
fig5Shapes()
{
    std::vector<hw::GemmShape> shapes;
    for (std::int64_t n : {256, 512, 1024, 2048, 4096, 8192})
        shapes.push_back({n, n, n});
    shapes.push_back({4096, 4096, 16});
    return shapes;
}

std::uint64_t
sumCats(const SelfLedger &l)
{
    std::uint64_t s = 0;
    for (int c = 0; c < kSelfCats; ++c)
        s += l.ns[static_cast<std::size_t>(c)];
    return s;
}

TEST_F(SelfProfTest, CategoryNamesAreStable)
{
    // Exported dotted names — metrics schema v2.1 and the Perfetto
    // tracks depend on these strings; renames break baselines.
    EXPECT_STREQ(selfCatName(SelfCat::KernelEval), "kernel_eval");
    EXPECT_STREQ(selfCatName(SelfCat::TraceRecord), "trace_record");
    EXPECT_STREQ(selfCatName(SelfCat::GraphBuild), "graph_build");
    EXPECT_STREQ(selfCatName(SelfCat::EngineStep), "engine_step");
    EXPECT_STREQ(selfCatName(SelfCat::Alloc), "alloc");
    EXPECT_STREQ(selfCatName(SelfCat::TelemetryExport),
                 "telemetry_export");
    EXPECT_STREQ(selfCatName(SelfCat::Other), "other");
}

TEST_F(SelfProfTest, LedgerSettleSumsToTotalBitwise)
{
    // Random integer charges: settle() must make the categories
    // reproduce any window exactly — integers, so bitwise.
    Rng rng(19);
    for (int trial = 0; trial < 50; trial++) {
        SelfLedger l;
        std::uint64_t charged = 0;
        for (int c = 0; c < kSelfCats; ++c) {
            const auto ns = static_cast<std::uint64_t>(
                rng.uniform(0.0, 1e9));
            l.ns[static_cast<std::size_t>(c)] += ns;
            charged += ns;
        }
        const auto window = static_cast<std::uint64_t>(
            rng.uniform(0.0, 8e9));
        l.settle(window);
        EXPECT_EQ(l.totalNs(), sumCats(l));
        EXPECT_EQ(l.totalNs(), std::max(window, charged));
    }
}

TEST_F(SelfProfTest, LedgerMergeIsExact)
{
    SelfLedger a, b;
    a.ns[0] = 7;
    a.calls[0] = 2;
    a.allocBytes[3] = 100;
    b.ns[0] = 5;
    b.ns[6] = 11;
    b.allocCount[3] = 4;
    a.merge(b);
    EXPECT_EQ(a.ns[0], 12u);
    EXPECT_EQ(a.ns[6], 11u);
    EXPECT_EQ(a.calls[0], 2u);
    EXPECT_EQ(a.allocBytes[3], 100u);
    EXPECT_EQ(a.allocCount[3], 4u);
    EXPECT_EQ(a.totalNs(), 23u);
}

TEST_F(SelfProfTest, TimerNestingNeverDoubleCounts)
{
    SelfProf::instance().setEnabled(true);
    {
        SelfTimer outer(SelfCat::EngineStep);
        // Busy-wait so both scopes observe nonzero time even on a
        // coarse clock.
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(2);
        {
            SelfTimer inner(SelfCat::KernelEval);
            while (std::chrono::steady_clock::now() < until) {
            }
        }
        const auto more = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(2);
        while (std::chrono::steady_clock::now() < more) {
        }
    }
    const SelfSnapshot snap = SelfProf::instance().snapshot();
    const auto engine =
        snap.ledger.ns[static_cast<std::size_t>(SelfCat::EngineStep)];
    const auto kernel =
        snap.ledger.ns[static_cast<std::size_t>(SelfCat::KernelEval)];
    EXPECT_EQ(
        snap.ledger.calls[static_cast<std::size_t>(SelfCat::EngineStep)],
        1u);
    EXPECT_EQ(
        snap.ledger.calls[static_cast<std::size_t>(SelfCat::KernelEval)],
        1u);
    EXPECT_GT(kernel, 0u);
    EXPECT_GT(engine, 0u);
    // Self-time partition: the categories must not together exceed the
    // window (single thread, so parallel over-counting cannot occur).
    const SelfSnapshot settled = SelfProf::instance().settle();
    EXPECT_EQ(settled.ledger.totalNs(), sumCats(settled.ledger));
    EXPECT_GE(settled.ledger.totalNs(), settled.windowNs);
}

TEST_F(SelfProfTest, SameCategoryNestingChargesOnce)
{
    SelfProf::instance().setEnabled(true);
    {
        SelfTimer outer(SelfCat::KernelEval);
        SelfTimer inner(SelfCat::KernelEval); // runGemm in stepReport
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(1);
        while (std::chrono::steady_clock::now() < until) {
        }
    }
    const SelfSnapshot settled = SelfProf::instance().settle();
    // Two scopes completed, but the parent absorbed the child's
    // elapsed time — total stays within the wall window.
    EXPECT_EQ(
        settled.ledger
            .calls[static_cast<std::size_t>(SelfCat::KernelEval)],
        2u);
    EXPECT_GE(settled.ledger.totalNs(), settled.windowNs);
    EXPECT_EQ(settled.ledger.totalNs(), sumCats(settled.ledger));
}

TEST_F(SelfProfTest, ParallelFig5SweepSettles)
{
    // The acceptance invariant under a parallel fig5-style sweep:
    // worker charges land directly under the profile's lock (integer
    // sums commute), and settle() still reproduces the total bitwise.
    runtime::Pool::setGlobalThreads(4);
    SelfProf::instance().setEnabled(true);
    const auto shapes = fig5Shapes();
    runtime::parallel_for(shapes.size(), [&](std::size_t i) {
        auto c = kern::runGemm(DeviceKind::Gaudi2, shapes[i],
                               DataType::BF16);
        (void)c;
    });
    const SelfSnapshot settled = SelfProf::instance().settle();
    EXPECT_EQ(
        settled.ledger
            .calls[static_cast<std::size_t>(SelfCat::KernelEval)],
        shapes.size());
    EXPECT_EQ(settled.ledger.totalNs(), sumCats(settled.ledger));
    EXPECT_GE(settled.ledger.totalNs(), settled.windowNs);
}

TEST_F(SelfProfTest, CountsAreThreadCountInvariant)
{
    // Wall times are machine noise, but scope counts, allocation
    // bytes, and allocation events must be byte-identical at any
    // --threads (the determinism contract, docs/runtime.md).
    kern::StreamConfig cfg;
    cfg.op = kern::StreamOp::Triad;
    cfg.numElements = 1 << 16;

    auto run_at = [&](int threads) {
        runtime::Pool::setGlobalThreads(threads);
        SelfProf::instance().reset();
        (void)kern::runStreamGaudi(cfg);
        return SelfProf::instance().snapshot();
    };

    SelfProf::instance().setEnabled(true);
    const SelfSnapshot serial = run_at(1);
    const SelfSnapshot parallel = run_at(8);

    for (int c = 0; c < kSelfCats; ++c) {
        const auto i = static_cast<std::size_t>(c);
        EXPECT_EQ(serial.ledger.calls[i], parallel.ledger.calls[i])
            << selfCatName(static_cast<SelfCat>(c));
        EXPECT_EQ(serial.ledger.allocBytes[i],
                  parallel.ledger.allocBytes[i])
            << selfCatName(static_cast<SelfCat>(c));
        EXPECT_EQ(serial.ledger.allocCount[i],
                  parallel.ledger.allocCount[i])
            << selfCatName(static_cast<SelfCat>(c));
    }
    // The trace-record and kernel-eval hooks fired at least once per
    // TPC slice...
    EXPECT_GT(serial.ledger
                  .calls[static_cast<std::size_t>(SelfCat::TraceRecord)],
              0u);
    EXPECT_GT(serial.ledger
                  .calls[static_cast<std::size_t>(SelfCat::KernelEval)],
              0u);
    // ...but recorded zero heap traffic: the instruction traces bump
    // from the per-thread scratch arena (mem/arena.h), whose recycled
    // chunks never reach the allocation ledger.
    EXPECT_EQ(serial.ledger.allocBytes
                  [static_cast<std::size_t>(SelfCat::TraceRecord)],
              0u);
}

TEST_F(SelfProfTest, DisabledTimerCostIsNegligible)
{
    // The disabled contract: one relaxed atomic load per SelfTimer.
    // Bound it against real work — the cost of adding one disabled
    // timer to a runGemm call must be under 1% of the call itself.
    ASSERT_FALSE(SelfProf::instance().enabled());
    const hw::GemmShape shape{1024, 1024, 1024};
    constexpr int kTimers = 1000000;
    constexpr int kGemms = 200;
    constexpr int kTrials = 5;

    auto min_over_trials = [&](auto body) {
        double best = 1e300;
        for (int t = 0; t < kTrials; t++) {
            const auto t0 = std::chrono::steady_clock::now();
            body();
            const auto t1 = std::chrono::steady_clock::now();
            best = std::min(
                best, std::chrono::duration<double>(t1 - t0).count());
        }
        return best;
    };

    const double timer_loop = min_over_trials([&] {
        for (int i = 0; i < kTimers; i++)
            SelfTimer t(SelfCat::KernelEval);
    });
    const double gemm_loop = min_over_trials([&] {
        for (int i = 0; i < kGemms; i++) {
            auto c = kern::runGemm(DeviceKind::Gaudi2, shape,
                                   DataType::BF16);
            (void)c;
        }
    });

    const double per_timer = timer_loop / kTimers;
    const double per_gemm = gemm_loop / kGemms;
    EXPECT_LT(per_timer, 0.01 * per_gemm)
        << "disabled SelfTimer costs " << per_timer * 1e9
        << " ns vs GEMM eval " << per_gemm * 1e9 << " ns";
}

TEST_F(SelfProfTest, CacheCountersTrackKeys)
{
    SelfProf::instance().setEnabled(true);
    auto &p = SelfProf::instance();
    p.cacheMiss("decode|gaudi2|b32|ctx1024");
    p.cacheHit("decode|gaudi2|b32|ctx1024");
    p.cacheHit("decode|gaudi2|b32|ctx1024");
    p.cacheMiss("prefill|gaudi2|in128");
    const SelfSnapshot snap = p.snapshot();
    EXPECT_EQ(snap.cacheHits, 2u);
    EXPECT_EQ(snap.cacheMisses, 2u);
    EXPECT_EQ(snap.cacheKeyCount, 2u);
}

TEST_F(SelfProfTest, ResetZeroesEverything)
{
    SelfProf::instance().setEnabled(true);
    {
        SelfTimer t(SelfCat::GraphBuild);
    }
    SelfProf::instance().recordAlloc(SelfCat::Alloc, 64);
    SelfProf::instance().cacheMiss("k");
    SelfProf::instance().reset();
    const SelfSnapshot snap = SelfProf::instance().snapshot();
    EXPECT_EQ(snap.ledger.totalNs(), 0u);
    EXPECT_EQ(sumCats(snap.ledger), 0u);
    EXPECT_EQ(snap.cacheHits, 0u);
    EXPECT_EQ(snap.cacheMisses, 0u);
    EXPECT_EQ(snap.cacheKeyCount, 0u);
    for (int c = 0; c < kSelfCats; ++c) {
        const auto i = static_cast<std::size_t>(c);
        EXPECT_EQ(snap.ledger.calls[i], 0u);
        EXPECT_EQ(snap.ledger.allocBytes[i], 0u);
        EXPECT_EQ(snap.ledger.allocCount[i], 0u);
    }
}

TEST_F(SelfProfTest, AllocAttributesToInnermostTimer)
{
    SelfProf::instance().setEnabled(true);
    EXPECT_EQ(SelfProf::currentCat(), SelfCat::Alloc); // no timer
    {
        SelfTimer outer(SelfCat::EngineStep);
        EXPECT_EQ(SelfProf::currentCat(), SelfCat::EngineStep);
        SelfProf::instance().recordAlloc(128);
        {
            SelfTimer inner(SelfCat::GraphBuild);
            EXPECT_EQ(SelfProf::currentCat(), SelfCat::GraphBuild);
            SelfProf::instance().recordAlloc(256);
        }
        EXPECT_EQ(SelfProf::currentCat(), SelfCat::EngineStep);
    }
    const SelfSnapshot snap = SelfProf::instance().snapshot();
    EXPECT_EQ(snap.ledger.allocBytes
                  [static_cast<std::size_t>(SelfCat::EngineStep)],
              128u);
    EXPECT_EQ(snap.ledger.allocBytes
                  [static_cast<std::size_t>(SelfCat::GraphBuild)],
              256u);
    EXPECT_EQ(snap.ledger.allocCount
                  [static_cast<std::size_t>(SelfCat::EngineStep)],
              1u);
}

/**
 * A fixed-work scenario over the serving engine, one Figure-12 sweep
 * point and both analyzers, from cold replay caches: its self-profile
 * counts and device counters depend only on the simulator's code.
 */
void
runFixedScenario()
{
    graph::nodeReplayCache().clear();
    graph::stepReplayCache().clear();

    models::LlamaModel model(models::LlamaConfig::llama31_8b());

    serve::EngineConfig ec;
    ec.maxDecodeBatch = 8;
    serve::Engine engine(model, ec);
    engine.run(serve::makeFixedTrace(8, 128, 32));

    models::LlamaServingConfig cfg;
    model.serve(DeviceKind::Gaudi2, cfg);

    analysis::registerBuiltinKernels();
    for (const auto &t :
         analysis::KernelRegistry::instance().traceAll("softmax")) {
        analysis::analyzeProgram(t.program);
        analysis::analyzeProgramStatic(t.program);
    }
}

/**
 * FNV-1a 64 over (name, value, peak, updates) of every updated counter
 * a metrics document carries (obs::isHostTelemetry ones excluded), as
 * 16 hex digits. Counters that other tests in this process registered
 * but this run never updated are left out.
 */
std::string
counterDigest()
{
    std::uint64_t h = test::kFnv1aBasis;
    for (const CounterSnapshot &c :
         CounterRegistry::instance().snapshot()) {
        if (c.updates == 0 || isHostTelemetry(c.name))
            continue;
        h = test::fnv1a(strfmt("%s=%a/%a/%llu;", c.name.c_str(), c.value,
                               c.peak,
                               static_cast<unsigned long long>(c.updates)),
                        h);
    }
    return test::hex16(h);
}

struct ScenarioCounts
{
    SelfSnapshot snap;
    std::string digest;
};

ScenarioCounts
runScenarioAt(int threads)
{
    runtime::Pool::setGlobalThreads(threads);
    CounterRegistry::instance().reset();
    SelfProf::instance().reset();
    runFixedScenario();
    return {SelfProf::instance().snapshot(), counterDigest()};
}

TEST_F(SelfProfTest, FixedScenarioCountsArePinned)
{
    // Exact pins, so a dropped or doubled SelfTimer, cache hook,
    // recorded allocation or device counter update fails here. After
    // an intentional change, re-pin to the values the failure prints.
    // telemetry_export is left out: only the bench harness charges it.
    SelfProf::instance().setEnabled(true);
    const ScenarioCounts serial = runScenarioAt(1);

    struct Pin
    {
        std::uint64_t calls, allocBytes, allocCount;
    };
    constexpr std::array<Pin, kSelfCats> kPins = {{
        {75, 0, 0},         // kernel_eval
        {48, 3932160, 528}, // trace_record
        {8, 0, 0},          // graph_build
        {1, 0, 0},          // engine_step
        {0, 0, 0},          // alloc
        {0, 0, 0},          // telemetry_export (not pinned)
        {0, 0, 0},          // other
    }};
    for (int c = 0; c < kSelfCats; ++c) {
        const auto cat = static_cast<SelfCat>(c);
        if (cat == SelfCat::TelemetryExport)
            continue;
        const auto i = static_cast<std::size_t>(c);
        EXPECT_EQ(serial.snap.ledger.calls[i], kPins[i].calls)
            << selfCatName(cat);
        EXPECT_EQ(serial.snap.ledger.allocBytes[i], kPins[i].allocBytes)
            << selfCatName(cat);
        EXPECT_EQ(serial.snap.ledger.allocCount[i], kPins[i].allocCount)
            << selfCatName(cat);
    }
    EXPECT_EQ(serial.snap.cacheHits, 74u);
    EXPECT_EQ(serial.snap.cacheMisses, 45u);
    EXPECT_EQ(serial.snap.cacheKeyCount, 45u);
    EXPECT_EQ(serial.digest, "8258483c8336d18f");

    // The counts, allocations and device counters do not depend on
    // the thread count; the replay caches' hit/miss split may.
    const ScenarioCounts parallel = runScenarioAt(4);
    for (int c = 0; c < kSelfCats; ++c) {
        const auto i = static_cast<std::size_t>(c);
        const char *name = selfCatName(static_cast<SelfCat>(c));
        EXPECT_EQ(parallel.snap.ledger.calls[i],
                  serial.snap.ledger.calls[i])
            << name;
        EXPECT_EQ(parallel.snap.ledger.allocBytes[i],
                  serial.snap.ledger.allocBytes[i])
            << name;
        EXPECT_EQ(parallel.snap.ledger.allocCount[i],
                  serial.snap.ledger.allocCount[i])
            << name;
    }
    EXPECT_EQ(parallel.digest, serial.digest);
}

} // namespace
} // namespace vespera::obs
