#include <gtest/gtest.h>

#include "common/logging.h"
#include "graph/compiler.h"
#include "graph/executor.h"
#include "graph/replay_cache.h"
#include "hw/mme.h"
#include "obs/counters.h"

namespace vespera::graph {
namespace {

Graph
mlpGraph(std::int64_t m = 1024, std::int64_t k = 4096,
         std::int64_t n = 4096)
{
    Graph g;
    int x = g.input({{m, k}, DataType::BF16}, "x");
    int w = g.input({{k, n}, DataType::BF16}, "w");
    int mm = g.matmul(x, w, "mm");
    (void)g.elementwise({mm}, 1.0, false, "act");
    return g;
}

TEST(Executor, TimesSimpleGraph)
{
    Graph g = mlpGraph();
    Executor exec(DeviceKind::Gaudi2);
    auto r = exec.run(g);
    EXPECT_GT(r.time, 0);
    EXPECT_GT(r.flops, 0);
    EXPECT_GT(r.matrixBusy, 0);
    EXPECT_GT(r.vectorBusy, 0);
}

TEST(Executor, FusionReducesTime)
{
    Graph g1;
    {
        int a = g1.input({{2048, 2048}, DataType::BF16}, "a");
        int r = g1.elementwise({a}, 1.0, false, "r");
        int s = g1.elementwise({r}, 1.0, false, "s");
        (void)g1.elementwise({s}, 1.0, false, "t");
    }
    Graph g2 = g1;
    Compiler().compile(g2);

    Executor exec(DeviceKind::Gaudi2);
    auto unfused = exec.run(g1);
    auto fused = exec.run(g2);
    EXPECT_LT(fused.time, unfused.time);
    EXPECT_LT(fused.hbmBytes, unfused.hbmBytes);
}

TEST(Executor, PipeliningHidesVectorTime)
{
    Graph g1 = mlpGraph();
    Graph g2 = mlpGraph();
    CompilerOptions no_pipe;
    no_pipe.pipelineMmeTpc = false;
    Compiler(no_pipe).compile(g1);
    Compiler().compile(g2);

    Executor exec(DeviceKind::Gaudi2);
    auto serial = exec.run(g1);
    auto pipelined = exec.run(g2);
    EXPECT_LT(pipelined.time, serial.time);
    EXPECT_GT(pipelined.overlapSaved, 0);
}

TEST(Executor, AllReduceUsesDeviceFabric)
{
    Graph g;
    int x = g.input({{1024, 8192}, DataType::BF16}, "x");
    (void)g.allReduce(x, 8, "ar");

    Executor gaudi(DeviceKind::Gaudi2);
    Executor a100(DeviceKind::A100);
    auto rg = gaudi.run(g);
    auto ra = a100.run(g);
    EXPECT_GT(rg.commTime, 0);
    EXPECT_GT(ra.commTime, 0);
    // At 8 devices the Gaudi P2P fabric is competitive (Figure 10).
    EXPECT_LT(rg.commTime / ra.commTime, 1.4);

    Graph g2;
    int y = g2.input({{1024, 8192}, DataType::BF16}, "y");
    (void)g2.allReduce(y, 2, "ar2");
    auto rg2 = gaudi.run(g2);
    auto ra2 = a100.run(g2);
    // At 2 devices Gaudi has only 1/7 of its links active.
    EXPECT_GT(rg2.commTime, 2.0 * ra2.commTime);
}

TEST(Executor, CustomNodeCallback)
{
    Graph g;
    int x = g.input({{16}, DataType::BF16}, "x");
    int calls = 0;
    (void)g.custom({x}, {{16}, DataType::BF16},
                   [&calls](DeviceKind) {
                       calls++;
                       OpCost c;
                       c.time = 1e-3;
                       return c;
                   },
                   "custom");
    Executor exec(DeviceKind::Gaudi2);
    auto r = exec.run(g);
    EXPECT_EQ(calls, 1);
    EXPECT_NEAR(r.time, 1e-3, 1e-9);
}

TEST(Executor, ActivityProfileBounded)
{
    Graph g = mlpGraph(4096, 4096, 4096);
    Compiler().compile(g);
    Executor exec(DeviceKind::Gaudi2);
    auto r = exec.run(g);
    auto act = r.activity(hw::gaudi2Spec());
    EXPECT_GE(act.matrixActivity, 0);
    EXPECT_LE(act.matrixActivity, 1);
    EXPECT_LE(act.hbmActivity, 1);
    EXPECT_GT(act.matrixActivity, 0.3); // GEMM-dominated graph.
}

TEST(Executor, AccumulateScales)
{
    Graph g = mlpGraph();
    Executor exec(DeviceKind::Gaudi2);
    auto one = exec.run(g);
    ExecutionReport total;
    accumulate(total, one, 10.0);
    EXPECT_NEAR(total.time, 10 * one.time, 1e-12);
    EXPECT_NEAR(total.flops, 10 * one.flops, 1);
    EXPECT_NEAR(total.avgMatrixUtil, one.avgMatrixUtil, 1e-12);
}

TEST(Executor, InputNodesAreFree)
{
    Graph g;
    (void)g.input({{1 << 20}, DataType::FP32}, "big");
    Executor exec(DeviceKind::A100);
    auto r = exec.run(g);
    EXPECT_DOUBLE_EQ(r.time, 0);
}

TEST(Executor, ReconfigsCountPerGraph)
{
    // Two GEMMs whose shapes select different MME geometries: the
    // second reconfigures the array. The count belongs to the graph's
    // own op sequence, so every run counts exactly one, whatever ran
    // before it and whether the node memo misses or hits.
    const hw::GemmShape square{8192, 8192, 8192};
    const hw::GemmShape skinny{16384, 16384, 16};
    const hw::MmeModel mme;
    ASSERT_NE(mme.selectGeometry(square, DataType::BF16).label(),
              mme.selectGeometry(skinny, DataType::BF16).label());

    Graph g;
    const int a = g.input({{square.m, square.k}, DataType::BF16}, "a");
    const int b = g.input({{square.k, square.n}, DataType::BF16}, "b");
    (void)g.matmul(a, b, "square");
    const int c = g.input({{skinny.m, skinny.k}, DataType::BF16}, "c");
    const int d = g.input({{skinny.k, skinny.n}, DataType::BF16}, "d");
    (void)g.matmul(c, d, "skinny");

    obs::Counter &reconfigs =
        obs::CounterRegistry::instance().counter("mme.reconfigs");
    Executor exec(DeviceKind::Gaudi2);
    nodeReplayCache().clear();
    for (int run = 0; run < 3; run++) {
        const double before = reconfigs.value();
        (void)exec.run(g);
        EXPECT_EQ(reconfigs.value() - before, 1.0) << "run " << run;
    }
    {
        ReplayCacheDisable off(nodeReplayCache());
        const double before = reconfigs.value();
        (void)exec.run(g);
        EXPECT_EQ(reconfigs.value() - before, 1.0) << "uncached run";
    }
}

TEST(Executor, RunIsEvaluateThenFold)
{
    // fold() is the only place run() charges: evaluating alone leaves
    // every counter as it was, and folding the evaluated costs charges
    // what run() charges.
    Graph g = mlpGraph();
    Executor exec(DeviceKind::Gaudi2);
    auto &reg = obs::CounterRegistry::instance();
    auto doc = [&reg] {
        std::string d;
        for (const auto &c : reg.snapshot())
            if (c.name.rfind("replay.", 0) != 0)
                d += strfmt("%s|%a|%llu\n", c.name.c_str(), c.value,
                            static_cast<unsigned long long>(c.updates));
        return d;
    };

    reg.reset();
    (void)exec.run(g);
    const std::string ran = doc();

    reg.reset();
    const ExecutionReport r = exec.evaluate(g);
    const std::string evaluated = doc();
    Executor::fold(r.perNode);
    EXPECT_EQ(doc(), ran);

    reg.reset();
    EXPECT_EQ(evaluated, doc()) << "evaluate() charged a counter";
}

} // namespace
} // namespace vespera::graph
