#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "digest.h"
#include "kern/stream.h"
#include "obs/counters.h"
#include "obs/selfprof.h"
#include "runtime/pool.h"
#include "tpc/dispatcher.h"

namespace vespera::kern {
namespace {

StreamConfig
smallConfig(StreamOp op)
{
    StreamConfig c;
    c.op = op;
    c.numElements = 1 << 20; // Enough for steady state, fast to trace.
    return c;
}

TEST(Stream, GaudiRunsAllOps)
{
    for (StreamOp op :
         {StreamOp::Add, StreamOp::Scale, StreamOp::Triad}) {
        StreamResult r = runStreamGaudi(smallConfig(op));
        EXPECT_GT(r.gflops, 0) << streamOpName(op);
        EXPECT_LE(r.vectorUtilization, 1.0);
        EXPECT_LE(r.hbmUtilization, 1.0);
    }
}

// Figure 8(a): sub-256 B access granularity collapses throughput.
TEST(Stream, GranularityPenaltyBelow256B)
{
    StreamConfig c = smallConfig(StreamOp::Triad);
    c.numTpcs = 1;
    c.numElements = 1 << 18;
    c.accessBytes = 256;
    double full = runStreamGaudi(c).gflops;
    c.accessBytes = 64;
    double quarter = runStreamGaudi(c).gflops;
    c.accessBytes = 16;
    double sixteenth = runStreamGaudi(c).gflops;
    EXPECT_GT(full, 2.5 * quarter);
    EXPECT_GT(quarter, 2.5 * sixteenth);
}

TEST(Stream, GranularityAbove256BSaturates)
{
    StreamConfig c = smallConfig(StreamOp::Triad);
    c.numTpcs = 1;
    c.numElements = 1 << 18;
    c.accessBytes = 256;
    double at256 = runStreamGaudi(c).gflops;
    c.accessBytes = 1024;
    double at1024 = runStreamGaudi(c).gflops;
    EXPECT_NEAR(at1024 / at256, 1.0, 0.35);
}

// Figure 8(b): unrolling helps; SCALE benefits the most (single load
// stream leaves the most pipeline slack).
TEST(Stream, UnrollingImprovesAllOps)
{
    for (StreamOp op :
         {StreamOp::Add, StreamOp::Scale, StreamOp::Triad}) {
        StreamConfig c = smallConfig(op);
        c.numTpcs = 1;
        c.numElements = 1 << 18;
        c.unroll = 1;
        double u1 = runStreamGaudi(c).gflops;
        c.unroll = 8;
        double u8 = runStreamGaudi(c).gflops;
        EXPECT_GT(u8, u1) << streamOpName(op);
    }
}

// Figure 8(c): weak scaling saturates at the HBM bound well below the
// 24-TPC linear extrapolation, near the paper's chip-level numbers
// (ADD ~330, SCALE ~530, TRIAD ~670 GFLOPS).
TEST(Stream, ChipSaturationBands)
{
    struct Band { StreamOp op; double lo, hi; };
    for (auto [op, lo, hi] : {Band{StreamOp::Add, 250, 420},
                              Band{StreamOp::Scale, 400, 650},
                              Band{StreamOp::Triad, 520, 820}}) {
        StreamConfig c = smallConfig(op);
        c.numElements = 24 << 20;
        c.numTpcs = 24;
        StreamResult r = runStreamGaudi(c);
        EXPECT_GT(r.gflops, lo) << streamOpName(op);
        EXPECT_LT(r.gflops, hi) << streamOpName(op);
    }
}

// Figure 8(d,e,f): raising operational intensity saturates compute at
// ~50% of peak for ADD/SCALE (non-FMA) and ~99% for TRIAD (MAC).
TEST(Stream, IntensitySaturationGaudi)
{
    StreamConfig c = smallConfig(StreamOp::Triad);
    c.numElements = 1 << 20;
    c.extraComputePerVector = 256;
    StreamResult triad = runStreamGaudi(c);
    EXPECT_GT(triad.vectorUtilization, 0.85);

    c.op = StreamOp::Add;
    StreamResult add = runStreamGaudi(c);
    EXPECT_GT(add.vectorUtilization, 0.40);
    EXPECT_LT(add.vectorUtilization, 0.55);
}

TEST(Stream, IntensitySaturationA100)
{
    StreamConfig c = smallConfig(StreamOp::Triad);
    c.numElements = 16 << 20;
    c.extraComputePerVector = 512;
    StreamResult triad = runStreamA100(c);
    EXPECT_GT(triad.vectorUtilization, 0.9);

    c.op = StreamOp::Scale;
    StreamResult scale = runStreamA100(c);
    EXPECT_GT(scale.vectorUtilization, 0.45);
    EXPECT_LT(scale.vectorUtilization, 0.52);
}

// Key takeaway #2: at high intensity A100's 3.5x vector advantage
// shows; at low intensity Gaudi's higher bandwidth gives it the edge.
TEST(Stream, CrossoverBetweenDevices)
{
    StreamConfig mem = smallConfig(StreamOp::Triad);
    mem.numElements = 24 << 20;
    StreamResult g_mem = runStreamGaudi(mem);
    StreamResult a_mem = runStreamA100(mem);
    EXPECT_GT(g_mem.gflops, a_mem.gflops);

    StreamConfig comp = mem;
    comp.numElements = 1 << 20;
    comp.extraComputePerVector = 128;
    StreamResult g_comp = runStreamGaudi(comp);
    StreamResult a_comp = runStreamA100(comp);
    EXPECT_GT(a_comp.gflops, 2.5 * g_comp.gflops);
}

// A ragged size (65573 elements: 23 slices of 2733 and a 2714 tail,
// neither a multiple of the 128-lane vector) returns, bit for bit, the
// results that simulating and verifying every slice on fully filled
// arrays gave, serially and on 4 pool threads.
TEST(Stream, RaggedSizeMatchesReference)
{
    struct Ref
    {
        StreamOp op;
        int numTpcs;
        StreamResult want;
    };
    const Ref refs[] = {
        {StreamOp::Add, 1,
         {0x1.9ddef0874d51p-18, 0x1.008p+16, 0x1.54b742c4da702p+3,
          0x1.fb7b151118ab8p-11, 0x1.a8e3c1a42dc5dp-6,
          0x1.55ce9923ddd0fp-3}},
        {StreamOp::Add, 24,
         {0x1.19ed076e0f3d1p-18, 0x1.08p+16, 0x1.016670332bc6ap+4,
          0x1.7f62c54730a1dp-10, 0x1.37df2c17a0d8bp-5,
          0x1.5fcd275950177p-3}},
        {StreamOp::Scale, 1,
         {0x1.7391309910eb4p-18, 0x1.008p+16, 0x1.7b81d0852d943p+3,
          0x1.1aa11867a651bp-10, 0x1.3b826f4dd06a7p-6,
          0x1.005af2dae65cbp-2}},
        {StreamOp::Scale, 24,
         {0x1.156dd84d29c65p-18, 0x1.08p+16, 0x1.0592834cd5196p+4,
          0x1.85999e83f0822p-10, 0x1.a691b34b1c6bap-6,
          0x1.07d9dd82fc119p-2}},
        {StreamOp::Triad, 1,
         {0x1.9ddef0874d51p-18, 0x1.008p+17, 0x1.54b742c4da702p+4,
          0x1.fb7b151118ab8p-10, 0x1.a8e3c1a42dc5dp-6,
          0x1.55ce9923ddd0fp-2}},
        {StreamOp::Triad, 24,
         {0x1.19ed076e0f3d1p-18, 0x1.08p+17, 0x1.016670332bc6ap+5,
          0x1.7f62c54730a1dp-9, 0x1.37df2c17a0d8bp-5,
          0x1.5fcd275950177p-2}},
    };
    for (const int threads : {1, 4}) {
        runtime::Pool::setGlobalThreads(threads);
        for (const Ref &ref : refs) {
            StreamConfig c;
            c.op = ref.op;
            c.numElements = (1 << 16) + 37;
            c.numTpcs = ref.numTpcs;
            const StreamResult r = runStreamGaudi(c);
            SCOPED_TRACE(testing::Message()
                         << streamOpName(ref.op) << " x" << ref.numTpcs
                         << ", " << threads << " threads");
            EXPECT_EQ(r.time, ref.want.time);
            EXPECT_EQ(r.flops, ref.want.flops);
            EXPECT_EQ(r.gflops, ref.want.gflops);
            EXPECT_EQ(r.vectorUtilization, ref.want.vectorUtilization);
            EXPECT_EQ(r.hbmUtilization, ref.want.hbmUtilization);
            EXPECT_EQ(r.operationalIntensity,
                      ref.want.operationalIntensity);
        }
    }
    runtime::Pool::setGlobalThreads(1);
}

// With nothing observing a launch, STREAM's full trips run through
// TpcContext::steadyLoop, which skips most of them; a no-op trace
// observer makes every trip run. Both must report the same results
// and tpc.* counters bit for bit, serially and on 4 pool threads, over
// every op at fig8's granularities, unrolls 1-16, 1/3/24 TPCs, filler
// 0/8/32 and ragged element counts. STREAM fills each trip's inputs
// under its own host_data timer, so the self-profile's host_data call
// count is the trips that ran (plus the first-vector fill and the
// verification).
TEST(Stream, SteadyStateMatchesFullSimulation)
{
    const Bytes grans[] = {4, 16, 64, 128, 256, 512, 1024, 2048};
    const int unrolls[] = {1, 2, 4, 8, 16};
    const int tpcs[] = {1, 3, 24};
    const int fillers[] = {0, 8, 32};
    obs::SelfProf &prof = obs::SelfProf::instance();
    auto trips_ran = [&] {
        const auto calls = prof.snapshot().ledger.calls[static_cast<int>(
            obs::SelfCat::HostData)];
        prof.reset();
        return static_cast<double>(calls) - 2;
    };
    double best_skip = 0;
    int k = 0;
    for (StreamOp op : {StreamOp::Add, StreamOp::Scale, StreamOp::Triad}) {
        for (const Bytes gran : grans) {
            StreamConfig c;
            c.op = op;
            c.accessBytes = gran;
            c.unroll = unrolls[k % 5];
            c.numTpcs = tpcs[k % 3];
            c.extraComputePerVector = fillers[k / 3 % 3];
            c.numElements = gran / 2 * 3000 + 37 * static_cast<unsigned>(k);
            k++;
            std::string want;
            for (const int threads : {1, 4}) {
                runtime::Pool::setGlobalThreads(threads);
                double full = 0;
                for (const bool observed : {true, false}) {
                    SCOPED_TRACE(strfmt(
                        "%s %lluB unroll %d x%d filler %d, %llu elements, "
                        "%d threads, %s",
                        streamOpName(op),
                        static_cast<unsigned long long>(gran), c.unroll,
                        c.numTpcs, c.extraComputePerVector,
                        static_cast<unsigned long long>(c.numElements),
                        threads, observed ? "observed" : "steady"));
                    std::optional<tpc::ScopedTraceObserver> observer;
                    if (observed)
                        observer.emplace([](const tpc::Program &, int) {});
                    obs::CounterRegistry::instance().reset();
                    prof.reset();
                    prof.setEnabled(true);
                    const StreamResult r = runStreamGaudi(c);
                    const double ran = trips_ran();
                    prof.setEnabled(false);
                    const std::string got =
                        strfmt("%a %a %a %a %a %a | ", r.time, r.flops,
                               r.gflops, r.vectorUtilization,
                               r.hbmUtilization, r.operationalIntensity) +
                        test::counterDigest({"tpc.", "attrib.tpc."});
                    if (want.empty())
                        want = got;
                    EXPECT_EQ(got, want);
                    if (observed)
                        full = ran;
                    else
                        best_skip = std::max(best_skip, 1 - ran / full);
                }
            }
        }
    }
    runtime::Pool::setGlobalThreads(1);
    EXPECT_GT(best_skip, 0.9);
}

// Config errors name the offending field and its value.
TEST(StreamDeath, BadConfigNamesField)
{
    StreamConfig c = smallConfig(StreamOp::Add);
    c.numElements = 0;
    EXPECT_DEATH((void)runStreamGaudi(c), "numElements .* got 0");
    c = smallConfig(StreamOp::Add);
    c.unroll = 0;
    EXPECT_DEATH((void)runStreamGaudi(c), "unroll .* got 0");
    c = smallConfig(StreamOp::Add);
    c.numTpcs = -3;
    EXPECT_DEATH((void)runStreamGaudi(c), "numTpcs .* got -3");
    c = smallConfig(StreamOp::Add);
    c.accessBytes = 1;
    EXPECT_DEATH((void)runStreamGaudi(c), "accessBytes .* got 1");
    c = smallConfig(StreamOp::Add);
    c.extraComputePerVector = -2;
    EXPECT_DEATH((void)runStreamGaudi(c),
                 "extraComputePerVector .* got -2");
}

} // namespace
} // namespace vespera::kern
