/**
 * @file
 * Property tests of the trace analyzer over randomized programs: its
 * stall attribution is tpc::evaluatePipeline's, cause by cause, and
 * diagnostics always reference
 * valid instructions — on traces the generator never saw during
 * development.
 */

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/kernel_rules.h"
#include "common/rng.h"
#include "tpc/context.h"

namespace vespera::analysis {
namespace {

using tpc::Access;
using tpc::Int5;
using tpc::Program;
using tpc::Tensor;
using tpc::TpcContext;
using tpc::Vec;

/// Random but SSA-valid instruction soup: loads of varying width and
/// access class, arithmetic over live values, stores, local-memory
/// staging — the space of traces kernels can actually record.
Program
randomProgram(std::uint64_t seed)
{
    Rng rng(seed);
    Program p;
    tpc::MemberRange range{{0, 0, 0, 0, 0}, {1, 1, 1, 1, 1}};
    TpcContext ctx(p, range);
    Tensor a({1 << 16}, DataType::FP32);
    Tensor b({1 << 16}, DataType::FP32);
    Tensor out({1 << 16}, DataType::FP32);

    static constexpr Bytes widths[] = {64, 128, 256};
    std::vector<Vec> live;
    live.push_back(ctx.v_zero(64));
    const int steps = 20 + static_cast<int>(rng.below(180));
    for (int i = 0; i < steps; i++) {
        const auto pick = [&rng, &live]() -> const Vec & {
            return live[static_cast<std::size_t>(
                rng.below(live.size()))];
        };
        switch (rng.below(8)) {
          case 0:
          case 1: {
            // Arithmetic requires matching lane counts, so only
            // full-width loads join the live pool; narrower loads are
            // stored straight back (still visible to address rules).
            const Bytes w = widths[rng.below(3)];
            const auto at = static_cast<std::int64_t>(
                rng.below(1 << 10) * 64);
            const Access acc = rng.below(4) == 0 ? Access::Random
                                                 : Access::Stream;
            Vec v = ctx.v_ld_tnsr({at, 0, 0, 0, 0},
                                  rng.below(2) == 0 ? a : b, w, acc);
            if (w == 256)
                live.push_back(std::move(v));
            else
                ctx.v_st_tnsr({at, 0, 0, 0, 0}, out, v);
            break;
          }
          case 2:
          case 3:
            live.push_back(ctx.v_add(pick(), pick()));
            break;
          case 4:
            live.push_back(ctx.v_mul_s(pick(), 1.5f));
            break;
          case 5: {
            const auto at = static_cast<std::int64_t>(
                rng.below(1 << 10) * 64);
            ctx.v_st_tnsr({at, 0, 0, 0, 0}, out, pick());
            break;
          }
          case 6:
            ctx.v_st_local(
                static_cast<std::int64_t>(rng.below(256)) * 64,
                pick());
            break;
          case 7:
            live.push_back(ctx.v_ld_local(
                static_cast<std::int64_t>(rng.below(256)) * 64, 64));
            break;
        }
    }
    return p;
}

class AnalysisProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(AnalysisProperty, PredictionNeverExceedsMeasurement)
{
    const Program p =
        randomProgram(0xabcdull * static_cast<unsigned>(GetParam()));
    tpc::IssueTrace trace;
    const tpc::PipelineResult measured =
        tpc::evaluatePipeline(p, tpc::TpcParams::forGaudi2(), &trace);
    const Report r = analyzeProgram(p);

    // The report carries the measurement itself, and each cause's sum
    // is the issue trace's.
    EXPECT_EQ(r.measuredStallCycles, measured.stallCycles);
    EXPECT_EQ(r.cycles, measured.cycles);
    const StallSums stalls = sumStalls(trace);
    EXPECT_EQ(r.dependencyStallCycles, stalls.dependency);
    EXPECT_EQ(r.memoryStallCycles, stalls.memory);
    EXPECT_EQ(r.slotStallCycles, stalls.slot);
    EXPECT_EQ(r.drainStallCycles, trace.drainStall);
    // So the attribution accounts for every stall cycle. The two totals
    // add the same terms in different orders (per cause, then across
    // causes; or in issue order), so they agree to the last few bits,
    // not bit for bit.
    EXPECT_DOUBLE_EQ(r.predictedStallCycles, measured.stallCycles);
    EXPECT_LE(r.predictedStallCycles, measured.stallCycles + 1e-9);
}

TEST_P(AnalysisProperty, DiagnosticsReferenceValidInstructions)
{
    const Program p =
        randomProgram(0x5151ull * static_cast<unsigned>(GetParam()));
    const Report r = analyzeProgram(p);
    const auto n = static_cast<std::int64_t>(p.instrs().size());
    for (const Diagnostic &d : r.diagnostics) {
        EXPECT_GE(d.instrIndex, -1);
        EXPECT_LT(d.instrIndex, n);
        EXPECT_FALSE(d.rule.empty());
        EXPECT_FALSE(d.message.empty());
    }
    // No malformed-SSA findings: the generator is SSA-correct.
    EXPECT_EQ(r.countFor(rules::invalidSsa), 0);
}

TEST_P(AnalysisProperty, SummariesCountAtLeastEmittedDiagnostics)
{
    const Program p =
        randomProgram(0x7777ull * static_cast<unsigned>(GetParam()));
    const Report r = analyzeProgram(p);
    std::map<std::string, int> emitted;
    for (const Diagnostic &d : r.diagnostics)
        emitted[d.rule]++;
    for (const auto &[rule, count] : emitted) {
        ASSERT_NE(r.rules.find(rule), r.rules.end());
        EXPECT_GE(r.rules.at(rule).count, count);
    }
    for (const auto &[rule, summary] : r.rules)
        EXPECT_GT(summary.count, 0) << rule;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisProperty,
                         ::testing::Range(1, 25));

} // namespace
} // namespace vespera::analysis
