#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "obs/profiler.h"
#include "tpc/context.h"
#include "tpc/pipeline.h"

namespace vespera::tpc {
namespace {

/// One loop, recorded into a program that streams into an evaluator
/// the way the dispatcher's does.
struct Outcome
{
    std::string result; ///< PipelineResult and program totals, in %a.
    std::vector<TripRun> runs;
    std::int64_t bodies = 0; ///< Body calls.
};

/// Runs `body(ctx, trip)` for `trips` trips, through steadyLoop when
/// `hook` is set and as a plain loop otherwise. `prologue(ctx)` runs
/// first and returns what the body may read from before the loop.
template <typename Prologue, typename Body>
Outcome
runLoop(std::int64_t trips, bool hook, bool sampleStalls,
        Prologue prologue, Body body)
{
    PipelineEvaluator eval(TpcParams::forGaudi2(), nullptr, sampleStalls);
    Program program(eval, /*keepTrace=*/false);
    TpcContext ctx(program, MemberRange{{0, 0, 0, 0, 0}, {1, 1, 1, 1, 1}});
    auto state = prologue(ctx);
    Outcome out;
    auto trip = [&](std::int64_t t) {
        body(ctx, state, t);
        out.bodies++;
    };
    if (hook) {
        out.runs = ctx.steadyLoop(trips, trip);
    } else {
        for (std::int64_t t = 0; t < trips; t++)
            trip(t);
    }
    const PipelineResult r = eval.finish(program.flops());
    out.result = strfmt("cycles %a stall %a flops %a instrs %llu bus %llu "
                        "recorded %zu stream %llu",
                        r.cycles, r.stallCycles, r.flops,
                        static_cast<unsigned long long>(r.instructions),
                        static_cast<unsigned long long>(r.busBytes),
                        program.numInstrs(),
                        static_cast<unsigned long long>(
                            program.streamBytes()));
    return out;
}

/// Tensors the loop bodies below read and write; offsets never change
/// timing, so every trip uses the first vector.
struct Buffers
{
    Tensor a{{1024}, DataType::BF16};
    Tensor c{{1024}, DataType::BF16};
};

TEST(SteadyLoop, ZeroAndOneTrip)
{
    for (const std::int64_t trips : {0, 1}) {
        Program program; // No evaluator sink: every trip runs.
        TpcContext ctx(program, MemberRange{});
        std::vector<std::int64_t> seen;
        const std::vector<TripRun> runs = ctx.steadyLoop(
            trips, [&](std::int64_t t) { seen.push_back(t); });
        EXPECT_EQ(static_cast<std::int64_t>(seen.size()), trips);
        if (trips == 0) {
            EXPECT_TRUE(runs.empty());
        } else {
            EXPECT_EQ(runs, (std::vector<TripRun>{{0, 1}}));
            EXPECT_EQ(seen, (std::vector<std::int64_t>{0}));
        }
    }

    // The same through an evaluator sink.
    Buffers buf;
    for (const std::int64_t trips : {0, 1}) {
        const Outcome got = runLoop(
            trips, true, false, [](TpcContext &) { return 0; },
            [&](TpcContext &ctx, int, std::int64_t) {
                ctx.v_st_tnsr({0, 0, 0, 0, 0}, buf.c,
                              ctx.v_ld_tnsr({0, 0, 0, 0, 0}, buf.a));
            });
        EXPECT_EQ(got.bodies, trips);
        EXPECT_EQ(got.runs.size(), static_cast<std::size_t>(trips));
    }
}

TEST(SteadyLoop, ProgramWithoutSinkRunsEveryTrip)
{
    Program program;
    TpcContext ctx(program, MemberRange{});
    Buffers buf;
    const std::vector<TripRun> runs =
        ctx.steadyLoop(500, [&](std::int64_t) {
            ctx.v_st_tnsr({0, 0, 0, 0, 0}, buf.c,
                          ctx.v_ld_tnsr({0, 0, 0, 0, 0}, buf.a));
        });
    EXPECT_EQ(runs, (std::vector<TripRun>{{0, 500}}));
    EXPECT_EQ(program.instrs().size(), 1000u);
}

// A body that adds each trip's load into an accumulator from the
// previous trip has trips that depend on each other: the hook runs
// all of them, and the outcome is full issue's. So does one whose
// trips read a value an earlier trip defined.
TEST(SteadyLoop, CarriedValueRunsEveryTrip)
{
    Buffers buf;
    auto prologue = [](TpcContext &ctx) { return ctx.v_zero(128); };
    auto body = [&](TpcContext &ctx, Vec &acc, std::int64_t) {
        acc = ctx.v_add(acc, ctx.v_ld_tnsr({0, 0, 0, 0, 0}, buf.a));
    };
    constexpr std::int64_t trips = 3000;
    const Outcome full = runLoop(trips, false, false, prologue, body);
    const Outcome hook = runLoop(trips, true, false, prologue, body);
    EXPECT_EQ(hook.result, full.result);
    EXPECT_EQ(hook.bodies, trips);
    EXPECT_EQ(hook.runs, (std::vector<TripRun>{{0, trips}}));

    // Trips that all read one value the first trip loaded record the
    // same instructions from the second trip on, and still all run.
    auto reuse = [&](TpcContext &ctx, Vec &first, std::int64_t t) {
        if (t == 0)
            first = ctx.v_ld_tnsr({0, 0, 0, 0, 0}, buf.a);
        const Vec x = ctx.v_ld_tnsr({0, 0, 0, 0, 0}, buf.a);
        ctx.v_st_tnsr({0, 0, 0, 0, 0}, buf.c, ctx.v_mul(x, first));
    };
    auto none = [](TpcContext &) { return Vec{}; };
    const Outcome reuse_full = runLoop(trips, false, false, none, reuse);
    const Outcome reuse_hook = runLoop(trips, true, false, none, reuse);
    EXPECT_EQ(reuse_hook.result, reuse_full.result);
    EXPECT_EQ(reuse_hook.runs, (std::vector<TripRun>{{0, trips}}));
}

// A memory-bound body (a load and a store, 2.2 cycles per granule)
// that also reads a value from before the loop runs for more than
// 2^20 cycles: the time, stall and flop totals each cross about 20
// binades, and the hook must restart at every crossing and still
// land on full issue's outcome bit for bit.
TEST(SteadyLoop, MemoryBoundAcrossBinadesMatchesFullIssue)
{
    Buffers buf;
    auto prologue = [](TpcContext &ctx) { return ctx.v_splat(2, 128); };
    auto body = [&](TpcContext &ctx, Vec &scale, std::int64_t) {
        const Vec x = ctx.v_ld_tnsr({0, 0, 0, 0, 0}, buf.a);
        ctx.v_st_tnsr({0, 0, 0, 0, 0}, buf.c, ctx.v_mul(x, scale));
    };
    constexpr std::int64_t trips = 250000;
    const Outcome full = runLoop(trips, false, false, prologue, body);
    const Outcome hook = runLoop(trips, true, false, prologue, body);
    EXPECT_EQ(hook.result, full.result);
    double cycles = 0;
    ASSERT_EQ(std::sscanf(full.result.c_str(), "cycles %la", &cycles), 1);
    EXPECT_GT(cycles, 0x1p20);
    // Few trips run, in one run per restart.
    EXPECT_LT(hook.bodies, trips / 50);
    EXPECT_GT(hook.runs.size(), 15u);
    std::int64_t covered = 0;
    for (const TripRun &r : hook.runs) {
        EXPECT_LT(r.begin, r.end);
        covered += r.end - r.begin;
    }
    EXPECT_EQ(covered, hook.bodies);
    EXPECT_EQ(hook.runs.front().begin, 0);
}

// While the Profiler traces, a dispatcher evaluator samples the
// tpc.stall_cycles track every 64 instructions, so nothing may be
// skipped: the hook runs every trip and the samples do not change.
TEST(SteadyLoop, ProfilerTracingRunsEveryTrip)
{
    obs::Profiler &prof = obs::Profiler::instance();
    prof.clear();
    prof.setEnabled(true);
    auto samples = [&] {
        std::string s;
        for (const obs::TrackSample &x : prof.samples())
            if (x.track == "tpc.stall_cycles")
                s += strfmt("%a %a;", x.t, x.value);
        prof.clear();
        return s;
    };
    Buffers buf;
    auto body = [&](TpcContext &ctx, int, std::int64_t) {
        ctx.v_st_tnsr({0, 0, 0, 0, 0}, buf.c,
                      ctx.v_ld_tnsr({0, 0, 0, 0, 0}, buf.a));
    };
    constexpr std::int64_t trips = 5000;
    const Outcome full = runLoop(
        trips, false, true, [](TpcContext &) { return 0; }, body);
    const std::string full_samples = samples();
    const Outcome hook = runLoop(
        trips, true, true, [](TpcContext &) { return 0; }, body);
    const std::string hook_samples = samples();
    prof.setEnabled(false);
    EXPECT_EQ(hook.result, full.result);
    EXPECT_EQ(hook.bodies, trips);
    EXPECT_EQ(hook.runs, (std::vector<TripRun>{{0, trips}}));
    EXPECT_FALSE(full_samples.empty());
    EXPECT_EQ(hook_samples, full_samples);
}

TEST(SteadyLoop, BinadeTripsStopBelowTheBinadeTop)
{
    // [1024, 2048): 1030 + 508 * 2 = 2046 is the last step inside.
    EXPECT_EQ(binadeTrips(1024, 1030, 2), 508);
    EXPECT_EQ(binadeTrips(1500, 2046, 2), 0);
    EXPECT_EQ(binadeTrips(1024, 2048, 2), 0);
    // A first value in a lower binade than the last allows nothing.
    EXPECT_EQ(binadeTrips(1000, 1030, 2), 0);
    EXPECT_EQ(binadeTrips(0, 1030, 2), 0);
    EXPECT_EQ(binadeTrips(1024, 1030, -2), 0);
    EXPECT_EQ(binadeTrips(0, 0, 0),
              std::numeric_limits<std::int64_t>::max());
}

} // namespace
} // namespace vespera::tpc
