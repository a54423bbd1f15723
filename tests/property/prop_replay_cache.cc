/**
 * @file
 * Property-based tests of the kernel-eval replay cache
 * (graph/replay_cache.h) over randomized node streams.
 *
 * Three properties, each the load-bearing half of a cache bug class:
 *
 *  1. Transparency: for any random graph, the executor's report and
 *     the counters its fold charges are bitwise equal whether every
 *     node is evaluated fresh (cache off), costed for the first time
 *     (cache miss), or served from the memo (cache hit). No warm-up
 *     run is needed: the cost models are pure and `mme.reconfigs`
 *     counts per graph, so no state carries over from run to run.
 *  2. Key injectivity: two nodes with different cost-relevant payloads
 *     never map to the same replay key (a collision would silently
 *     serve one kernel's cost for another); payload-equal nodes on the
 *     same device always share a key (else the cache never hits).
 *  3. Bounded memory: entries() never exceeds capacity no matter how
 *     many distinct keys stream through, and eviction recomputes
 *     rather than miscomputes.
 */

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/executor.h"
#include "graph/graph.h"
#include "graph/replay_cache.h"
#include "obs/counters.h"

namespace vespera::graph {
namespace {

using vespera::Rng;

/** Uniform integer in [lo, hi] (Rng only exposes doubles). */
int
uniformInt(Rng &rng, int lo, int hi)
{
    const int span = hi - lo + 1;
    int v = lo + static_cast<int>(rng.uniform() * span);
    return v > hi ? hi : v;
}

/** Random cost-relevant payload for one graph. */
struct GraphCase
{
    std::int64_t m, k, n;
    std::int64_t elems;
    double flopsPerElement;
    bool usesFma;
    int normPasses;
    DataType dt;
};

GraphCase
randomCase(Rng &rng)
{
    GraphCase c;
    c.m = 1ll << uniformInt(rng, 4, 12);
    c.k = 1ll << uniformInt(rng, 4, 12);
    c.n = 1ll << uniformInt(rng, 0, 12);
    c.elems = 1ll << uniformInt(rng, 8, 20);
    c.flopsPerElement = static_cast<double>(uniformInt(rng, 1, 64)) / 4.0;
    c.usesFma = uniformInt(rng, 0, 1) == 1;
    c.normPasses = uniformInt(rng, 1, 4);
    c.dt = uniformInt(rng, 0, 1) == 1 ? DataType::BF16 : DataType::FP32;
    return c;
}

Graph
buildGraph(const GraphCase &c)
{
    Graph g;
    const int a = g.input({{c.m, c.k}, c.dt});
    const int b = g.input({{c.k, c.n}, c.dt});
    const int mm = g.matmul(a, b);
    const int e = g.elementwiseTo({mm}, {{c.elems}, c.dt},
                                  c.flopsPerElement, c.usesFma);
    g.normalization(e, c.normPasses, c.flopsPerElement);
    return g;
}

/** Doc of everything a run may touch: report bits + graph counters. */
std::string
runDoc(const Graph &g, DeviceKind device)
{
    obs::CounterRegistry::instance().reset();
    Executor executor(device);
    const ExecutionReport r = executor.run(g);
    std::string doc =
        strfmt("report|t=%a|f=%a|hbm=%llu|mb=%a|vb=%a|comm=%a|"
               "util=%a|mac=%a\n",
               r.time, r.flops,
               static_cast<unsigned long long>(r.hbmBytes), r.matrixBusy,
               r.vectorBusy, r.commTime, r.avgMatrixUtil,
               r.avgMacFraction);
    for (const auto &c : obs::CounterRegistry::instance().snapshot()) {
        if (c.name.rfind("replay.", 0) == 0)
            continue;
        doc += strfmt("counter|%s|v=%a|peak=%a|n=%llu\n", c.name.c_str(),
                      c.value, c.peak,
                      static_cast<unsigned long long>(c.updates));
    }
    return doc;
}

TEST(ReplayCacheProperty, CacheOnOffAndHitRunsAreBitwiseEqual)
{
    Rng rng(2024);
    for (int trial = 0; trial < 40; trial++) {
        SCOPED_TRACE(trial);
        const GraphCase c = randomCase(rng);
        const Graph g = buildGraph(c);
        const DeviceKind device =
            trial % 2 == 0 ? DeviceKind::Gaudi2 : DeviceKind::A100;

        std::string off_doc;
        {
            ReplayCacheDisable off(nodeReplayCache());
            off_doc = runDoc(g, device);
        }
        nodeReplayCache().clear();
        const std::string miss_doc = runDoc(g, device); // First costing.
        const std::string hit_doc = runDoc(g, device);  // Replay.

        EXPECT_EQ(miss_doc, off_doc)
            << "memoizing a node's cost changed what its run charged";
        EXPECT_EQ(hit_doc, off_doc)
            << "a memo hit diverged from fresh evaluation";
    }
}

TEST(ReplayCacheProperty, KeysAreInjectiveOverPayloads)
{
    // Map every generated key back to its payload descriptor; a key
    // seen twice must come from an identical descriptor. The draws
    // deliberately produce near-colliding field values (powers of two
    // shared across m/k/n/elems) so missing separators would be caught.
    Rng rng(7);
    std::map<std::string, std::string> seen;
    int checked = 0;
    for (int trial = 0; trial < 200; trial++) {
        const GraphCase c = randomCase(rng);
        const Graph g = buildGraph(c);
        const DeviceKind device =
            trial % 2 == 0 ? DeviceKind::Gaudi2 : DeviceKind::A100;
        for (const Node &node : g.nodes()) {
            const std::string key = nodeReplayKey(node, device);
            if (key.empty()) // Inputs and unkeyed customs opt out.
                continue;
            std::string desc;
            switch (node.kind) {
              case OpKind::MatMul:
                desc = strfmt("mm %s %lld %lld %lld %lld %d",
                              deviceName(device), node.gemm.m,
                              node.gemm.k, node.gemm.n, node.gemm.batch,
                              static_cast<int>(node.output.dt));
                break;
              case OpKind::Elementwise:
              case OpKind::Normalization:
                desc = strfmt("vec %s %a %d %llu %lld %d",
                              deviceName(device), node.flopsPerElement,
                              node.usesFma ? 1 : 0,
                              static_cast<unsigned long long>(
                                  node.trafficBytes),
                              node.output.elements(),
                              static_cast<int>(node.output.dt));
                break;
              default:
                desc = key; // Other kinds: key is its own descriptor.
                break;
            }
            auto [it, inserted] = seen.try_emplace(key, desc);
            if (!inserted) {
                EXPECT_EQ(it->second, desc)
                    << "key collision: '" << key
                    << "' maps to two different payloads";
            }
            checked++;
        }
    }
    EXPECT_GT(checked, 500);
    // Payload-equal nodes must share a key (hit path exists at all).
    const GraphCase c = randomCase(rng);
    const Graph g1 = buildGraph(c), g2 = buildGraph(c);
    EXPECT_EQ(nodeReplayKey(g1.node(2), DeviceKind::Gaudi2),
              nodeReplayKey(g2.node(2), DeviceKind::Gaudi2));
    EXPECT_NE(nodeReplayKey(g1.node(2), DeviceKind::Gaudi2),
              nodeReplayKey(g2.node(2), DeviceKind::A100))
        << "device must be part of the key";
}

TEST(ReplayCacheProperty, MemoryIsBoundedUnderEviction)
{
    ReplayCache<int> cache("proptest", 32);
    cache.setEnabled(true);
    int evaluations = 0;
    Rng rng(11);
    // Stream 1000 distinct keys, revisiting a random prefix so the LRU
    // actually exercises both hits and evictions.
    for (int i = 0; i < 1000; i++) {
        const int key_id = i;
        (void)cache.runMemoized(strfmt("k%d", key_id), [&] {
            evaluations++;
            return key_id * 3;
        });
        EXPECT_LE(cache.entries(), 32u) << "capacity overrun at " << i;
        const int back = uniformInt(rng, 0, i);
        const int v = cache.runMemoized(strfmt("k%d", back),
                                        [&] {
                                            evaluations++;
                                            return back * 3;
                                        });
        EXPECT_EQ(v, back * 3)
            << "eviction recomputed the wrong value for k" << back;
        EXPECT_LE(cache.entries(), 32u);
    }
    // Every evaluation was either a first visit or a post-eviction
    // recompute; with capacity 32 over 1000 keys there must be both.
    EXPECT_GE(evaluations, 1000);
    EXPECT_GT(evaluations, 1032) << "eviction never recomputed";
}

} // namespace
} // namespace vespera::graph
