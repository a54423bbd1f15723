#include <gtest/gtest.h>

#include "common/logging.h"
#include "digest.h"
#include "kern/embedding.h"
#include "obs/counters.h"
#include "runtime/parallel.h"
#include "runtime/pool.h"

namespace vespera::kern {
namespace {

EmbeddingConfig
smallConfig()
{
    EmbeddingConfig c;
    c.numTables = 4;
    c.rowsPerTable = 1 << 12;
    c.vectorBytes = 256;
    c.batch = 128;
    c.pooling = 8;
    return c;
}

constexpr EmbeddingVariant kVariants[] = {
    EmbeddingVariant::SdkSingleTable, EmbeddingVariant::SingleTable,
    EmbeddingVariant::BatchedTable};

std::string
resultText(const EmbeddingResult &r)
{
    return strfmt("%a %llu %a %d", r.time,
                  static_cast<unsigned long long>(r.gatheredBytes),
                  r.hbmUtilization, r.kernelLaunches);
}

TEST(Embedding, AllVariantsVerifyFunctionally)
{
    EmbeddingLayerGaudi layer(smallConfig());
    for (auto v : {EmbeddingVariant::SdkSingleTable,
                   EmbeddingVariant::SingleTable,
                   EmbeddingVariant::BatchedTable}) {
        Rng rng(7);
        EmbeddingResult r = layer.run(v, rng);
        EXPECT_GT(r.time, 0) << embeddingVariantName(v);
        EXPECT_LE(r.hbmUtilization, 1.0);
    }
}

TEST(Embedding, LaunchCounts)
{
    EmbeddingLayerGaudi layer(smallConfig());
    Rng rng(8);
    EXPECT_EQ(layer.run(EmbeddingVariant::BatchedTable, rng)
                  .kernelLaunches, 1);
    EXPECT_EQ(layer.run(EmbeddingVariant::SingleTable, rng)
                  .kernelLaunches, 4);
}

// Section 4.1 footnote: the optimized SingleTable is ~1.6x the SDK's
// un-unrolled operator.
TEST(Embedding, OptimizedSingleTableBeatsSdk)
{
    EmbeddingConfig c = smallConfig();
    c.batch = 512;
    EmbeddingLayerGaudi layer(c);
    Rng rng(9);
    auto sdk = layer.run(EmbeddingVariant::SdkSingleTable, rng);
    auto opt = layer.run(EmbeddingVariant::SingleTable, rng);
    double speedup = sdk.time / opt.time;
    EXPECT_GT(speedup, 1.15);
    EXPECT_LT(speedup, 3.5);
}

// Figure 15(a): BatchedTable's advantage grows with the table count at
// small batch; SingleTable utilization stays flat.
TEST(Embedding, BatchedAdvantageGrowsWithTables)
{
    double gain_few, gain_many;
    {
        EmbeddingConfig c = smallConfig();
        c.numTables = 2;
        c.batch = 64;
        EmbeddingLayerGaudi layer(c);
        Rng rng(10);
        auto single = layer.run(EmbeddingVariant::SingleTable, rng);
        auto batched = layer.run(EmbeddingVariant::BatchedTable, rng);
        gain_few = single.time / batched.time;
    }
    {
        EmbeddingConfig c = smallConfig();
        c.numTables = 16;
        c.batch = 64;
        EmbeddingLayerGaudi layer(c);
        Rng rng(10);
        auto single = layer.run(EmbeddingVariant::SingleTable, rng);
        auto batched = layer.run(EmbeddingVariant::BatchedTable, rng);
        gain_many = single.time / batched.time;
    }
    EXPECT_GT(gain_many, gain_few);
    EXPECT_GT(gain_many, 1.5);
}

// Figures 15(b,c): the Single-vs-Batched gap narrows at large batch.
TEST(Embedding, GapNarrowsWithBatch)
{
    auto gap_at = [](int batch) {
        EmbeddingConfig c = smallConfig();
        c.batch = batch;
        EmbeddingLayerGaudi layer(c);
        Rng rng(11);
        auto single = layer.run(EmbeddingVariant::SingleTable, rng);
        auto batched = layer.run(EmbeddingVariant::BatchedTable, rng);
        return single.time / batched.time;
    };
    EXPECT_GT(gap_at(32), gap_at(1024));
}

// Key takeaway #6: >=256 B vectors: Gaudi ~95% of A100; <256 B: ~47%.
TEST(Embedding, GaudiVsA100ByVectorSize)
{
    auto ratio_at = [](Bytes vec) {
        EmbeddingConfig c = smallConfig();
        c.vectorBytes = vec;
        c.batch = 1024;
        c.numTables = 8;
        EmbeddingLayerGaudi layer(c);
        Rng rng(12);
        auto g = layer.run(EmbeddingVariant::BatchedTable, rng);
        auto a = runEmbeddingA100(c);
        return a.time / g.time; // Gaudi throughput relative to A100.
    };
    const double big = ratio_at(512);
    const double small = ratio_at(64);
    EXPECT_GT(big, 0.55);
    EXPECT_LT(small, 0.75);
    EXPECT_GT(big, small * 1.3);
}

TEST(Embedding, UtilizationGrowsWithVectorSize)
{
    double prev = 0;
    for (Bytes vec : {64, 128, 256, 512}) {
        EmbeddingConfig c = smallConfig();
        c.vectorBytes = vec;
        c.batch = 1024;
        EmbeddingLayerGaudi layer(c);
        Rng rng(13);
        auto r = layer.run(EmbeddingVariant::BatchedTable, rng);
        EXPECT_GT(r.hbmUtilization, prev) << vec;
        prev = r.hbmUtilization;
    }
}

// Every variant at ragged TPC splits, against the bits and the tpc.*
// and attrib.tpc.* counters (value, peak, update count) printed when
// every TPC was simulated. Batch 50 over 3 tables splits per table as
// 16 slices of 3 samples and one of 2, and batched as 21 slices of 7
// members and one of 3; batch 7 over 5 tables leaves 17 TPCs idle per
// table. One case overrides unroll and interleave so a slice's last
// member group is short. Each run also passes its own check of every
// pooled output its simulated slices produced, serially and on 4 pool
// threads.
TEST(Embedding, SmallMatchesReference)
{
    struct Case
    {
        int batch;
        int tables;
        EmbeddingVariant variant;
        int unroll;
        int interleave;
        const char *expected;
        const char *counters;
    };
    constexpr auto sdk = EmbeddingVariant::SdkSingleTable;
    constexpr auto single = EmbeddingVariant::SingleTable;
    constexpr auto batched = EmbeddingVariant::BatchedTable;
    const Case cases[] = {
        {50, 3, sdk, 0, 0,
         "0x1.ab9df9fc5d9b4p-17 192000 0x1.915dc495ad6e8p-8 3",
         "152c518b8ff0951a"},
        {50, 3, single, 0, 0,
         "0x1.a46e793b66f18p-17 192000 0x1.9839daeaa3b1ap-8 3",
         "40a375401997428e"},
        {50, 3, batched, 0, 0,
         "0x1.24e5a7be97996p-18 192000 0x1.24fd1c4b636f8p-6 1",
         "5563967ada2e78c8"},
        {50, 3, batched, 1, 2,
         "0x1.71ca5a139ea62p-18 192000 0x1.d021739b15a8p-7 1",
         "abf134d377f6a412"},
        {7, 5, sdk, 0, 0,
         "0x1.62a6c5f6044a6p-16 44800 0x1.c3ae1bf7c7eb5p-11 5",
         "6c38c192661a8258"},
        {7, 5, single, 0, 0,
         "0x1.5ca9daaa8c124p-16 44800 0x1.cb6ff2668a11cp-11 5",
         "371e85641559eafe"},
        {7, 5, batched, 0, 0,
         "0x1.178f7de1dc9c2p-18 44800 0x1.1e8062062475ap-8 1",
         "96ddc7c10f9eeb75"},
    };
    for (const int threads : {1, 4}) {
        runtime::Pool::setGlobalThreads(threads);
        Rng rng(11);
        for (const Case &k : cases) {
            EmbeddingConfig c = smallConfig();
            c.rowsPerTable = 1 << 10;
            c.batch = k.batch;
            c.numTables = k.tables;
            c.pooling = 5;
            const EmbeddingLayerGaudi layer(c);
            obs::CounterRegistry::instance().reset();
            const EmbeddingResult r =
                layer.run(k.variant, rng, k.unroll, k.interleave);
            SCOPED_TRACE(strfmt("%s, batch %d, %d threads",
                                embeddingVariantName(k.variant), k.batch,
                                threads));
            EXPECT_EQ(strfmt("%a %llu %a %d", r.time,
                             static_cast<unsigned long long>(
                                 r.gatheredBytes),
                             r.hbmUtilization, r.kernelLaunches),
                      k.expected);
            EXPECT_EQ(test::counterDigest({"tpc.", "attrib.tpc."}),
                      k.counters);
        }
    }
    runtime::Pool::setGlobalThreads(1);
}

// Table rows are written when a run first reads them. Every run checks
// its pooled outputs against rowValue, so a row that an earlier run
// left unwritten, or wrote wrong, fails that check.
TEST(Embedding, OnDemandRowsDoNotDependOnRunOrder)
{
    for (const EmbeddingVariant v : kVariants) {
        SCOPED_TRACE(embeddingVariantName(v));
        const EmbeddingLayerGaudi shared(smallConfig());
        Rng a(21), b(22), b_again(22);
        (void)shared.run(v, a);
        const std::string after_a = resultText(shared.run(v, b));
        const EmbeddingLayerGaudi fresh(smallConfig());
        EXPECT_EQ(after_a, resultText(fresh.run(v, b_again)));
    }
}

// Runs with different seeds on one shared layer fill its rows
// concurrently (the TSan job runs this), and each still equals its
// serial run on a fresh layer.
TEST(Embedding, ConcurrentRunsOnSharedLayerMatchSerial)
{
    constexpr std::size_t kRuns = 4;
    for (const EmbeddingVariant v : kVariants) {
        SCOPED_TRACE(embeddingVariantName(v));
        std::vector<std::string> serial;
        for (std::size_t j = 0; j < kRuns; j++) {
            const EmbeddingLayerGaudi fresh(smallConfig());
            Rng rng(100 + j);
            serial.push_back(resultText(fresh.run(v, rng)));
        }
        runtime::Pool::setGlobalThreads(4);
        const EmbeddingLayerGaudi shared(smallConfig());
        const std::vector<std::string> parallel =
            runtime::parallel_map(kRuns, [&](std::size_t j) {
                Rng rng(100 + j);
                return resultText(shared.run(v, rng));
            });
        runtime::Pool::setGlobalThreads(1);
        EXPECT_EQ(parallel, serial);
    }
}

TEST(EmbeddingDeath, RejectsBadVectorSize)
{
    EmbeddingConfig c = smallConfig();
    c.vectorBytes = 3;
    EXPECT_DEATH(EmbeddingLayerGaudi{c}, "multiple of the element size");
}

} // namespace
} // namespace vespera::kern
