#include <atomic>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "digest.h"
#include "kern/embedding.h"
#include "kern/gather_scatter.h"
#include "kern/softmax.h"
#include "kern/stream.h"
#include "obs/counters.h"
#include "runtime/pool.h"
#include "tpc/dispatcher.h"

namespace vespera::tpc {
namespace {

/// The paper's Figure 2(c) kernel: element-wise vector add over an
/// index space of (depth, width) with the depth step at 256 B.
Kernel
makeAddKernel(const Tensor &a, const Tensor &b, Tensor &c,
              std::int64_t depth_elems, int unroll = 4)
{
    return [&a, &b, &c, depth_elems, unroll](TpcContext &ctx) {
        const auto lanes =
            static_cast<std::int64_t>(ctx.defaultVectorBytes() /
                                      dtypeSize(a.dtype()));
        for (std::int64_t w = ctx.memberStart(1); w < ctx.memberEnd(1);
             w++) {
            for (std::int64_t d = 0; d < depth_elems;
                 d += lanes * unroll) {
                // Manually unrolled body (paper best practice #2).
                std::vector<Vec> xs, ys;
                for (int u = 0; u < unroll; u++) {
                    if (d + u * lanes >= depth_elems)
                        break;
                    Int5 coord{d + u * lanes, w, 0, 0, 0};
                    xs.push_back(ctx.v_ld_tnsr(coord, a));
                    ys.push_back(ctx.v_ld_tnsr(coord, b));
                }
                for (std::size_t u = 0; u < xs.size(); u++) {
                    Vec sum = ctx.v_add(xs[u], ys[u]);
                    Int5 coord{d + static_cast<std::int64_t>(u) * lanes,
                               w, 0, 0, 0};
                    ctx.v_st_tnsr(coord, c, sum);
                }
            }
        }
    };
}

class DispatcherTest : public ::testing::Test
{
  protected:
    static constexpr std::int64_t depth_ = 4096; // Elements per column.
    static constexpr std::int64_t width_ = 48;   // Index-space width.

    DispatcherTest()
        : a_({depth_, width_}, DataType::FP32),
          b_({depth_, width_}, DataType::FP32),
          c_({depth_, width_}, DataType::FP32)
    {
        a_.fill([](std::int64_t i) { return static_cast<float>(i % 97); });
        b_.fill([](std::int64_t i) { return static_cast<float>(i % 31); });
    }

    TpcDispatcher dispatcher_;
    Tensor a_, b_, c_;
};

TEST_F(DispatcherTest, FunctionalResultCorrect)
{
    IndexSpace space;
    space.size = {1, width_, 1, 1, 1};
    LaunchParams params;
    dispatcher_.launch(makeAddKernel(a_, b_, c_, depth_), space, params);
    for (std::int64_t i = 0; i < a_.numElements(); i++) {
        ASSERT_FLOAT_EQ(c_.at(i), a_.at(i) + b_.at(i)) << "elem " << i;
    }
}

TEST_F(DispatcherTest, AllTpcsParticipate)
{
    IndexSpace space;
    space.size = {1, width_, 1, 1, 1};
    LaunchParams params;
    params.numTpcs = 24;
    auto r = dispatcher_.launch(makeAddKernel(a_, b_, c_, depth_), space,
                                params);
    EXPECT_EQ(r.activeTpcs, 24);
}

TEST_F(DispatcherTest, FewerMembersThanTpcs)
{
    IndexSpace space;
    space.size = {1, 5, 1, 1, 1};
    LaunchParams params;
    params.numTpcs = 24;
    auto r = dispatcher_.launch(makeAddKernel(a_, b_, c_, depth_), space,
                                params);
    EXPECT_EQ(r.activeTpcs, 5);
}

// Weak scaling (Figure 8c): throughput scales with TPC count until the
// chip HBM bandwidth bound takes over.
TEST_F(DispatcherTest, WeakScalingSaturates)
{
    double one_tpc, twelve_tpc, twentyfour_tpc;

    // Weak scaling: each TPC gets one column of 256 Ki elements.
    const std::int64_t col = 1 << 18;
    auto run = [&](int n) {
        Tensor a({col, n}, DataType::FP32);
        Tensor b({col, n}, DataType::FP32);
        Tensor c({col, n}, DataType::FP32);
        IndexSpace space;
        space.size = {1, n, 1, 1, 1};
        LaunchParams p;
        p.numTpcs = n;
        auto r = dispatcher_.launch(makeAddKernel(a, b, c, col), space,
                                    p);
        return r.achievedFlopsPerSec;
    };

    one_tpc = run(1);
    twelve_tpc = run(12);
    twentyfour_tpc = run(24);

    // Near-linear early on.
    EXPECT_GT(twelve_tpc, one_tpc * 6);
    // Saturating by 24 (well below 24x).
    EXPECT_LT(twentyfour_tpc, one_tpc * 20);
}

TEST_F(DispatcherTest, ReportsBandwidthUtilization)
{
    IndexSpace space;
    space.size = {1, width_, 1, 1, 1};
    auto r = dispatcher_.launch(makeAddKernel(a_, b_, c_, depth_), space,
                                LaunchParams{});
    EXPECT_GT(r.hbmUtilization, 0.0);
    EXPECT_LE(r.hbmUtilization, 1.0);
    EXPECT_EQ(r.usefulBytes, 3u * a_.bytes());
}

TEST_F(DispatcherTest, TimeIncludesLaunchOverhead)
{
    IndexSpace space;
    space.size = {1, 1, 1, 1, 1};
    Tensor a({64}, DataType::FP32), b({64}, DataType::FP32);
    Tensor c({64}, DataType::FP32);
    auto r = dispatcher_.launch(makeAddKernel(a, b, c, 64), space,
                                LaunchParams{});
    EXPECT_GE(r.time, hw::gaudi2Spec().launchOverhead);
}

TEST_F(DispatcherTest, RejectsBadConfig)
{
    IndexSpace space;
    space.size = {1, 4, 1, 1, 1};
    LaunchParams params;
    params.numTpcs = 99;
    EXPECT_DEATH(dispatcher_.launch(makeAddKernel(a_, b_, c_, depth_),
                                    space, params),
                 "numTpcs");
}

/** Every field of a launch result, bit for bit. */
std::string
resultDoc(const LaunchResult &r)
{
    return strfmt("%a|%a|%a|%a|%llu|%llu|%a|%a|%d|%llu", r.time,
                  r.slowestTpcTime, r.memoryBoundTime, r.totalFlops,
                  static_cast<unsigned long long>(r.usefulBytes),
                  static_cast<unsigned long long>(r.busBytes),
                  r.achievedFlopsPerSec, r.hbmUtilization, r.activeTpcs,
                  static_cast<unsigned long long>(r.localMemHighWater));
}

/** Restores the serial pool however a test exits. */
struct PoolGuard
{
    ~PoolGuard() { runtime::Pool::setGlobalThreads(1); }
};

/** A launch over ragged extents and its distinct slice lengths. */
struct RaggedCase
{
    std::int64_t width; ///< Index-space extent split across TPCs.
    int numTpcs;
    int distinctLengths; ///< Non-empty slice lengths.
};

// Divisible extents, a shorter tail (7 TPCs over 22: 4,4,4,4,4,2,0),
// fewer members than TPCs, and 1, 7 and 24 TPCs.
constexpr RaggedCase raggedCases[] = {
    {5, 1, 1},  {48, 1, 1},  {21, 7, 1},  {22, 7, 2},
    {5, 7, 1},  {48, 24, 1}, {50, 24, 2}, {5, 24, 1},
};

// A uniformSlices launch simulates one TPC per distinct slice length
// and is indistinguishable from simulating them all: same result, same
// counters (values, peaks, update counts) and same attribution charge,
// serial or on the pool.
TEST(DispatcherUniform, MatchesFullSimulation)
{
    PoolGuard guard;
    constexpr std::int64_t depth = 1024;
    const TpcDispatcher dispatcher;
    for (const RaggedCase &rc : raggedCases) {
        Tensor a({depth, rc.width}, DataType::FP32);
        Tensor b({depth, rc.width}, DataType::FP32);
        Tensor c({depth, rc.width}, DataType::FP32);
        std::atomic<int> calls{0};
        const Kernel add = makeAddKernel(a, b, c, depth, 3);
        const Kernel counted = [&](TpcContext &ctx) {
            calls++;
            add(ctx);
        };
        IndexSpace space;
        space.size = {1, rc.width, 1, 1, 1};

        std::string want_result, want_counters;
        for (int threads : {1, 4}) {
            runtime::Pool::setGlobalThreads(threads);
            for (bool uniform : {false, true}) {
                SCOPED_TRACE(strfmt("width %lld, %d TPCs, %d threads, %s",
                                    static_cast<long long>(rc.width),
                                    rc.numTpcs, threads,
                                    uniform ? "uniform" : "full"));
                LaunchParams params;
                params.numTpcs = rc.numTpcs;
                params.kernelName = "ragged_add";
                params.uniformSlices = uniform;
                obs::CounterRegistry::instance().reset();
                calls = 0;
                const LaunchResult r = dispatcher.launch(counted, space,
                                                         params);
                const std::string counters = test::deviceCounterDoc();
                EXPECT_NE(counters.find("attrib.tpc.compute"),
                          std::string::npos);
                if (want_result.empty()) {
                    want_result = resultDoc(r);
                    want_counters = counters;
                }
                EXPECT_EQ(resultDoc(r), want_result);
                EXPECT_EQ(counters, want_counters);
                EXPECT_EQ(calls.load(),
                          uniform ? rc.distinctLengths : r.activeTpcs);
            }
        }
    }
}

// The plan is the one place the rule lives: representatives are the
// first TPC of each length, and only non-empty ones are simulated.
TEST(DispatcherUniform, PlanPicksFirstTpcOfEachLength)
{
    const TpcDispatcher dispatcher;
    IndexSpace space;
    space.size = {1, 22, 1, 1, 1};
    LaunchParams params;
    params.numTpcs = 7;
    params.uniformSlices = true;
    const SlicePlan plan = dispatcher.planSlices(space, params);
    EXPECT_EQ(plan.representative,
              (std::vector<int>{0, 0, 0, 0, 0, 5, 6}));
    std::vector<int> simulated;
    for (int t = 0; t < params.numTpcs; t++)
        if (plan.simulated(t))
            simulated.push_back(t);
    EXPECT_EQ(simulated, (std::vector<int>{0, 5}));
    EXPECT_EQ(plan.slices[5].start[1], 20);
    EXPECT_EQ(plan.slices[5].end[1], 22);
    EXPECT_TRUE(plan.slices[6].empty());

    params.uniformSlices = false;
    const SlicePlan full = dispatcher.planSlices(space, params);
    EXPECT_EQ(full.representative,
              (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
}

// Observers see recorded slices only: the representatives, in order.
TEST(DispatcherUniform, ObserverSeesRecordedSlicesOnly)
{
    constexpr std::int64_t depth = 256;
    Tensor a({depth, 50}, DataType::FP32), b({depth, 50}, DataType::FP32);
    Tensor c({depth, 50}, DataType::FP32);
    std::vector<int> seen;
    ScopedTraceObserver observer(
        [&](const Program &, int t) { seen.push_back(t); });
    IndexSpace space;
    space.size = {1, 50, 1, 1, 1};
    LaunchParams params;
    params.uniformSlices = true;
    const LaunchResult r = TpcDispatcher().launch(
        makeAddKernel(a, b, c, depth), space, params);
    EXPECT_EQ(seen, (std::vector<int>{0, 16}));
    EXPECT_EQ(r.activeTpcs, 17);
}

/** A kern launch to time, rendered as its result fields in `%a`. */
struct StreamedCase
{
    std::string name;
    std::function<std::string()> run;
};

std::vector<StreamedCase>
streamedCases()
{
    std::vector<StreamedCase> cases;
    // STREAM over ragged element counts: 10007 elements leave a short
    // tail slice at 2, 7 and 24 TPCs, and a 16 B access keeps the
    // lanes inline while 256 B ones live on the heap.
    constexpr struct
    {
        kern::StreamOp op;
        int numTpcs;
        Bytes accessBytes;
    } streams[] = {
        {kern::StreamOp::Scale, 1, 16},
        {kern::StreamOp::Add, 2, 256},
        {kern::StreamOp::Triad, 7, 64},
        {kern::StreamOp::Triad, 24, 256},
    };
    for (const auto &st : streams) {
        kern::StreamConfig c;
        c.op = st.op;
        c.numElements = 10007;
        c.numTpcs = st.numTpcs;
        c.accessBytes = st.accessBytes;
        c.unroll = 3;
        c.extraComputePerVector = 2;
        cases.push_back({strfmt("stream %s x%d %lluB",
                                kern::streamOpName(st.op), st.numTpcs,
                                static_cast<unsigned long long>(
                                    st.accessBytes)),
                         [c] {
                             const kern::StreamResult r =
                                 kern::runStreamGaudi(c);
                             return strfmt("%a %a %a %a %a %a", r.time,
                                           r.flops, r.gflops,
                                           r.vectorUtilization,
                                           r.hbmUtilization,
                                           r.operationalIntensity);
                         }});
    }
    kern::GatherScatterConfig gather;
    gather.numVectors = 3000;
    gather.vectorBytes = 64;
    gather.accessFraction = 0.3;
    gather.numTpcs = 7;
    // Scatter slices store into shared rows at random; their stores
    // write no lane, so running them on parallel workers is race-free.
    for (const bool scatter : {false, true}) {
        kern::GatherScatterConfig c = gather;
        c.scatter = scatter;
        cases.push_back({scatter ? "scatter x7" : "gather x7", [c] {
                             Rng rng(9);
                             const kern::GatherScatterResult r =
                                 kern::runGatherScatterGaudi(c, rng);
                             return strfmt(
                                 "%a %llu %a", r.time,
                                 static_cast<unsigned long long>(
                                     r.usefulBytes),
                                 r.hbmUtilization);
                         }});
    }
    for (const kern::EmbeddingVariant v :
         {kern::EmbeddingVariant::SingleTable,
          kern::EmbeddingVariant::BatchedTable}) {
        kern::EmbeddingConfig c;
        c.numTables = 3;
        c.rowsPerTable = 1 << 10;
        c.batch = 50;
        c.pooling = 8;
        cases.push_back(
            {strfmt("embedding %s", kern::embeddingVariantName(v)),
             [c, v] {
                 const kern::EmbeddingLayerGaudi layer(c);
                 Rng rng(11);
                 const kern::EmbeddingResult r = layer.run(v, rng);
                 return strfmt("%a %llu %a %d", r.time,
                               static_cast<unsigned long long>(
                                   r.gatheredBytes),
                               r.hbmUtilization, r.kernelLaunches);
             }});
    }
    kern::SoftmaxConfig softmax;
    softmax.rows = 50;
    softmax.cols = 256;
    cases.push_back({"softmax 50x256 x24", [softmax] {
                         const kern::SoftmaxResult r =
                             kern::runSoftmaxGaudi(softmax);
                         return strfmt("%a %a %a", r.time,
                                       r.hbmUtilization, r.flops);
                     }});
    return cases;
}

// Every launch streams its instructions into the evaluator; a trace
// observer only makes the dispatcher keep the trace as well (and run
// its TPCs serially). So a no-op observer changes nothing a launch
// reports: same results and tpc.* counters, serial or on the pool,
// where each worker's evaluator grows its scoreboard in its own
// scratch arena.
TEST(DispatcherStreaming, TraceObserverDoesNotChangeTiming)
{
    PoolGuard guard;
    for (const StreamedCase &k : streamedCases()) {
        std::string want;
        for (const int threads : {1, 4}) {
            runtime::Pool::setGlobalThreads(threads);
            for (const bool observed : {false, true}) {
                SCOPED_TRACE(strfmt("%s, %d threads, %s", k.name.c_str(),
                                    threads,
                                    observed ? "observed" : "streamed"));
                std::optional<ScopedTraceObserver> observer;
                if (observed)
                    observer.emplace([](const Program &, int) {});
                obs::CounterRegistry::instance().reset();
                const std::string got =
                    k.run() + " | " +
                    test::counterDigest({"tpc.", "attrib.tpc."});
                if (want.empty())
                    want = got;
                EXPECT_EQ(got, want);
            }
        }
    }
}

} // namespace
} // namespace vespera::tpc
