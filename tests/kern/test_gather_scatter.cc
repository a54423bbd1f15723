#include <gtest/gtest.h>

#include "common/logging.h"
#include "digest.h"
#include "kern/gather_scatter.h"
#include "obs/counters.h"
#include "runtime/pool.h"

namespace vespera::kern {
namespace {

GatherScatterConfig
smallConfig(Bytes vec_bytes)
{
    GatherScatterConfig c;
    c.numVectors = 1 << 14;
    c.vectorBytes = vec_bytes;
    c.accessFraction = 1.0;
    return c;
}

TEST(GatherScatter, GaudiGatherVerifies)
{
    Rng rng(1);
    auto r = runGatherScatterGaudi(smallConfig(256), rng);
    EXPECT_GT(r.hbmUtilization, 0.0);
    EXPECT_LE(r.hbmUtilization, 1.0);
    EXPECT_EQ(r.usefulBytes, (1ull << 14) * 256);
}

// Key takeaway #3: Gaudi competitive at >=256 B, collapses below.
TEST(GatherScatter, GaudiSmallVectorCollapse)
{
    Rng rng(2);
    double u256 = runGatherScatterGaudi(smallConfig(256), rng)
                      .hbmUtilization;
    double u64 =
        runGatherScatterGaudi(smallConfig(64), rng).hbmUtilization;
    EXPECT_GT(u256, 2.5 * u64);
}

TEST(GatherScatter, A100DegradesGracefully)
{
    // Large access counts so launch/ramp overheads amortize away.
    GatherScatterConfig c256 = smallConfig(256);
    c256.numVectors = 1 << 20;
    GatherScatterConfig c64 = smallConfig(64);
    c64.numVectors = 1 << 20;
    double a256 = runGatherScatterA100(c256).hbmUtilization;
    double a64 = runGatherScatterA100(c64).hbmUtilization;
    // A100's 32 B sectors keep small-vector efficiency much closer.
    EXPECT_LT(a256 / a64, 2.2);
}

TEST(GatherScatter, DeviceComparisonMatchesPaper)
{
    Rng rng(3);
    // >=256 B: same ballpark (paper: 64% vs 72% on average).
    GatherScatterConfig big = smallConfig(512);
    big.numVectors = 1 << 17;
    double g = runGatherScatterGaudi(big, rng).hbmUtilization;
    double a = runGatherScatterA100(big).hbmUtilization;
    EXPECT_GT(g, 0.4);
    EXPECT_GT(a, 0.5);
    EXPECT_LT(a / g, 1.8);

    // <=128 B: A100 wins by >~2x (paper: 2.4x).
    GatherScatterConfig small = smallConfig(128);
    small.numVectors = 1 << 17;
    double gs = runGatherScatterGaudi(small, rng).hbmUtilization;
    double as = runGatherScatterA100(small).hbmUtilization;
    EXPECT_GT(as / gs, 1.7);
}

TEST(GatherScatter, ScatterRunsAndIsSlower)
{
    Rng rng(4);
    GatherScatterConfig c = smallConfig(64);
    auto gather = runGatherScatterGaudi(c, rng);
    c.scatter = true;
    auto scatter = runGatherScatterGaudi(c, rng);
    EXPECT_GE(scatter.time, gather.time * 0.9);
}

TEST(GatherScatter, LowerFractionLowerAmortization)
{
    Rng rng(5);
    GatherScatterConfig c = smallConfig(256);
    c.numVectors = 1 << 15;
    auto full = runGatherScatterGaudi(c, rng);
    c.accessFraction = 0.01;
    auto sparse = runGatherScatterGaudi(c, rng);
    // Fixed launch+ramp costs dominate tiny access counts.
    EXPECT_LT(sparse.hbmUtilization, full.hbmUtilization);
}

TEST(GatherScatter, DeeperUnrollHelps)
{
    Rng rng(6);
    GatherScatterConfig c = smallConfig(256);
    c.unroll = 1;
    auto u1 = runGatherScatterGaudi(c, rng);
    c.unroll = 16;
    auto u16 = runGatherScatterGaudi(c, rng);
    EXPECT_LT(u16.time, u1.time);
}

// Gather and scatter at a small size, with repeated indices (fraction
// 1 draws with replacement) and a ragged TPC split, against the bits
// printed when every row of the array was filled and every TPC was
// simulated; `counters` pins the tpc.* and attrib.tpc.* counters
// (value, peak, update count) from that build. The gather run also
// passes its own functional check of the gathered rows. Each case
// runs serially and on 4 pool threads, where scatter slices store into
// rows other slices share.
TEST(Gather, SmallMatchesReference)
{
    struct Case
    {
        bool scatter;
        Bytes vectorBytes;
        double fraction;
        int numTpcs;
        const char *expected;
        const char *counters;
    };
    const Case cases[] = {
        {false, 256, 1.0, 24,
         "0x1.3e1bbf9f5194cp-18 768000 0x1.0dc4ab78a01e7p-4",
         "ada3ecc749a86f7e"},
        {false, 64, 0.3, 7,
         "0x1.433a86bc8437ap-18 57600 0x1.3e98069013221p-8",
         "e597eaea490fb9fb"},
        {false, 2048, 0.05, 24,
         "0x1.1cade8c9df96fp-18 307200 0x1.e2506b3787065p-6",
         "cb29868fd77081ed"},
        {true, 256, 1.0, 24,
         "0x1.383d8e899ef5p-18 768000 0x1.12d686fee14fep-4",
         "112dd54e95570745"},
        {true, 64, 0.3, 7,
         "0x1.1a076152d6754p-18 57600 0x1.6d229bd1a3199p-8",
         "cd746f730f88e09c"},
        {true, 2048, 0.05, 24,
         "0x1.1b60378ae5d84p-18 307200 0x1.e4885f87ebf3fp-6",
         "5882a874537c24c5"},
    };
    for (const int threads : {1, 4}) {
        runtime::Pool::setGlobalThreads(threads);
        Rng rng(9);
        for (const Case &k : cases) {
            GatherScatterConfig c = smallConfig(k.vectorBytes);
            c.numVectors = 3000;
            c.scatter = k.scatter;
            c.accessFraction = k.fraction;
            c.numTpcs = k.numTpcs;
            SCOPED_TRACE(strfmt("%s x%d, %d threads",
                                k.scatter ? "scatter" : "gather",
                                k.numTpcs, threads));
            obs::CounterRegistry::instance().reset();
            const GatherScatterResult r = runGatherScatterGaudi(c, rng);
            EXPECT_EQ(strfmt("%a %llu %a", r.time,
                             static_cast<unsigned long long>(
                                 r.usefulBytes),
                             r.hbmUtilization),
                      k.expected);
            EXPECT_EQ(test::counterDigest({"tpc.", "attrib.tpc."}),
                      k.counters);
        }
    }
    runtime::Pool::setGlobalThreads(1);
}

// Config errors name the offending field and its value.
TEST(GatherScatterDeath, BadConfigNamesField)
{
    Rng rng(1);
    GatherScatterConfig c = smallConfig(256);
    c.numVectors = 0;
    EXPECT_DEATH((void)runGatherScatterGaudi(c, rng),
                 "numVectors .* got 0");
    c = smallConfig(0);
    EXPECT_DEATH((void)runGatherScatterGaudi(c, rng),
                 "vectorBytes .* got 0");
    c = smallConfig(256);
    c.accessFraction = 1.5;
    EXPECT_DEATH((void)runGatherScatterGaudi(c, rng),
                 "accessFraction .* got 1.5");
}

} // namespace
} // namespace vespera::kern
