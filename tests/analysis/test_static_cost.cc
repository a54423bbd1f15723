/**
 * @file
 * The static pipeline against the trace analyzer and the cycle
 * simulator:
 *
 *  - the static schedule is the timing model's own, so its cycles and
 *    per-cause stalls equal tpc::evaluatePipeline's exactly on every
 *    registered kernel;
 *  - every shared rule yields the same diagnostics through both
 *    analyzers, field for field, on the registered kernels and the
 *    migration corpus — only the wording differs;
 *  - the vespera-lint-static/v1 JSON document shape.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "analysis/analyzer.h"
#include "analysis/kernel_registry.h"
#include "analysis/static/static_report.h"
#include "common/logging.h"
#include "obs/profiler.h"
#include "port/corpus.h"
#include "tpc/context.h"
#include "tpc/pipeline.h"

namespace vespera::analysis {
namespace {

using tpc::MemberRange;
using tpc::Program;
using tpc::Tensor;
using tpc::TpcContext;
using tpc::Vec;

MemberRange
oneTpc()
{
    return {{0, 0, 0, 0, 0}, {1, 1, 1, 1, 1}};
}

class StaticCostTest : public ::testing::Test
{
  protected:
    void SetUp() override { registerBuiltinKernels(); }
};

// Only dispatcher launches sample the Profiler's tpc.stall_cycles
// track. Both analyzers and a bare evaluatePipeline replay a recorded
// trace through the same timing model, but add no samples, so the
// track shows launches only.
TEST_F(StaticCostTest, AnalysisReplaysAddNoStallSamples)
{
    obs::Profiler &prof = obs::Profiler::instance();
    struct Guard
    {
        ~Guard()
        {
            obs::Profiler::instance().setEnabled(false);
            obs::Profiler::instance().clear();
        }
    } guard;
    prof.clear();
    prof.setEnabled(true);
    const auto stallSamples = [&prof] {
        std::size_t n = 0;
        for (const obs::TrackSample &s : prof.samples())
            n += s.track == "tpc.stall_cycles" ? 1 : 0;
        return n;
    };

    const auto traced = KernelRegistry::instance().traceAll("softmax");
    ASSERT_FALSE(traced.empty());
    const std::size_t launched = stallSamples();
    EXPECT_GT(launched, 0u);
    for (const TracedKernel &t : traced) {
        analyzeProgramStatic(t.program);
        analyzeProgram(t.program);
        tpc::evaluatePipeline(t.program, tpc::TpcParams::forGaudi2());
    }
    EXPECT_EQ(stallSamples(), launched);
}

// The static schedule is tpc::evaluatePipeline's, so the predicted
// cycles equal the simulator's exactly (the name predates that).
TEST_F(StaticCostTest, PredictsIssueCyclesWithinTenPercent)
{
    const auto traced = KernelRegistry::instance().traceAll();
    ASSERT_GE(traced.size(), 11u);
    for (const TracedKernel &t : traced) {
        const tpc::PipelineResult measured = tpc::evaluatePipeline(
            t.program, tpc::TpcParams::forGaudi2());
        const StaticReport predicted =
            analyzeProgramStatic(t.program);
        ASSERT_GT(measured.cycles, 0.0) << t.name;
        EXPECT_EQ(predicted.predictedCycles(), measured.cycles)
            << t.name;
    }
}

// The per-cause stall attribution equals the trace analyzer's, sum
// for sum, and the static stall total equals the measured one.
TEST_F(StaticCostTest, StallAttributionTracksSimulator)
{
    for (const TracedKernel &t :
         KernelRegistry::instance().traceAll()) {
        const Report trace = analyzeProgram(t.program);
        const StaticReport st = analyzeProgramStatic(t.program);
        EXPECT_EQ(st.report.predictedStallCycles,
                  trace.measuredStallCycles)
            << t.name;
        EXPECT_EQ(st.report.dependencyStallCycles,
                  trace.dependencyStallCycles)
            << t.name;
        EXPECT_EQ(st.report.memoryStallCycles, trace.memoryStallCycles)
            << t.name;
        EXPECT_EQ(st.report.slotStallCycles, trace.slotStallCycles)
            << t.name;
        EXPECT_EQ(st.report.drainStallCycles, trace.drainStallCycles)
            << t.name;
        EXPECT_EQ(st.report.criticalPathCycles, trace.criticalPathCycles)
            << t.name;
    }
}

/** Every diagnostic and rule summary of `r` for rules the trace
 *  analyzer also reports, with everything but the wording. */
std::string
sharedFindings(const Report &r)
{
    static const std::set<std::string> shared = {
        rules::exposedLatency,  rules::narrowAccess,
        rules::randomShouldStream, rules::slotImbalance,
        rules::deadValue,       rules::redundantReload,
        rules::localOverflow,   rules::invalidSsa};
    std::string doc;
    for (const Diagnostic &d : r.diagnostics) {
        if (shared.count(d.rule) != 0) {
            doc += strfmt("%s|%s|%s|%lld|%s|%a|%llu\n", d.rule.c_str(),
                          severityName(d.severity), d.kernel.c_str(),
                          static_cast<long long>(d.instrIndex),
                          d.opLabel.c_str(), d.costCycles,
                          static_cast<unsigned long long>(d.wastedBytes));
        }
    }
    for (const auto &[rule, summary] : r.rules) {
        if (shared.count(rule) != 0) {
            doc += strfmt("%s: %d|%a|%llu\n", rule.c_str(), summary.count,
                          summary.costCycles,
                          static_cast<unsigned long long>(
                              summary.wastedBytes));
        }
    }
    return doc;
}

// Both analyzers run one detection per shared rule, so their findings
// agree in everything but the message and fix hint: rule, severity,
// instruction, op label, cost, wasted bytes, order and rule summaries.
TEST_F(StaticCostTest, StaticTraceRuleParityOnAllKernels)
{
    std::vector<TracedKernel> traced =
        KernelRegistry::instance().traceAll();
    for (const port::CorpusEntry &e : port::migrationCorpus()) {
        TracedKernel t;
        t.name = "corpus " + e.desc.name;
        t.program = captureTrace(
            [&e] { (void)port::lowerAndRun(e.desc, e.lower); });
        traced.push_back(std::move(t));
    }
    ASSERT_GE(traced.size(), 50u);
    int findings = 0;
    for (const TracedKernel &t : traced) {
        const Report trace = analyzeProgram(t.program);
        const StaticReport st = analyzeProgramStatic(t.program);
        EXPECT_EQ(sharedFindings(st.report), sharedFindings(trace))
            << t.name;
        findings += static_cast<int>(trace.diagnostics.size());
    }
    EXPECT_GT(findings, 0);
}

// The analytic roofline terms really are lower bounds on the schedule.
TEST_F(StaticCostTest, ScheduleRespectsItsLowerBounds)
{
    for (const TracedKernel &t :
         KernelRegistry::instance().traceAll()) {
        const StaticReport st = analyzeProgramStatic(t.program);
        const StaticSchedule &s = st.schedule;
        EXPECT_GE(s.cycles, s.criticalPathBound - 1e-9) << t.name;
        EXPECT_GE(s.cycles, s.slotResourceBound - 1e-9) << t.name;
        EXPECT_GE(s.cycles, s.memoryBound - 1e-9) << t.name;
        EXPECT_DOUBLE_EQ(s.lowerBound(),
                         std::max({s.criticalPathBound,
                                   s.slotResourceBound,
                                   s.memoryBound}));
    }
}

// Exact agreement on a hand-built trace: the shared issue rules mean
// the static scheduler and the pipeline see the same machine.
TEST_F(StaticCostTest, ExactAgreementOnSerialChain)
{
    Program p;
    TpcContext ctx(p, oneTpc());
    Tensor t({1 << 16}, DataType::FP32);
    Vec acc = ctx.v_ld_tnsr({0, 0, 0, 0, 0}, t, 256);
    for (int i = 1; i <= 32; i++) {
        Vec x = ctx.v_ld_tnsr({i * 64, 0, 0, 0, 0}, t, 256);
        acc = ctx.v_add(acc, x);
    }
    ctx.v_st_tnsr({0, 0, 0, 0, 0}, t, acc);

    const tpc::PipelineResult pr =
        tpc::evaluatePipeline(p, tpc::TpcParams::forGaudi2());
    const StaticReport st = analyzeProgramStatic(p);
    EXPECT_DOUBLE_EQ(st.predictedCycles(), pr.cycles);
    EXPECT_DOUBLE_EQ(st.report.predictedStallCycles, pr.stallCycles);
}

TEST_F(StaticCostTest, StaticJsonMatchesDocumentedSchema)
{
    std::vector<StaticLintEntry> entries;
    for (TracedKernel &t : KernelRegistry::instance().traceAll()) {
        StaticLintEntry e;
        e.kernel = t.name;
        e.shape = t.shape;
        e.report = analyzeProgramStatic(t.program);
        entries.push_back(std::move(e));
    }
    const json::Value doc = staticLintReportJson(entries);

    const json::Value *schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str(), "vespera-lint-static/v1");

    const json::Value *kernels = doc.find("kernels");
    ASSERT_NE(kernels, nullptr);
    ASSERT_TRUE(kernels->isArray());
    ASSERT_EQ(kernels->array().size(), entries.size());
    for (const json::Value &k : kernels->array()) {
        for (const char *key :
             {"kernel", "shape", "ir", "cost", "rules",
              "diagnostics"}) {
            EXPECT_NE(k.find(key), nullptr) << key;
        }
        const json::Value *ir = k.find("ir");
        for (const char *key :
             {"instructions", "blocks", "loops", "max_loop_depth",
              "max_live_values", "peak_live_bytes"}) {
            EXPECT_NE(ir->find(key), nullptr) << key;
        }
        const json::Value *cost = k.find("cost");
        for (const char *key :
             {"predicted_cycles", "stall_cycles",
              "dependency_stall_cycles", "memory_stall_cycles",
              "slot_stall_cycles", "drain_stall_cycles",
              "critical_path_bound", "slot_resource_bound",
              "memory_bound"}) {
            EXPECT_NE(cost->find(key), nullptr) << key;
        }
        // Every emitted diagnostic exposes its fix hint.
        for (const json::Value &d : k.find("diagnostics")->array()) {
            ASSERT_NE(d.find("fix_hint"), nullptr);
            EXPECT_FALSE(d.find("fix_hint")->str().empty());
        }
    }
    const json::Value *totals = doc.find("totals");
    ASSERT_NE(totals, nullptr);
    for (const char *key : {"errors", "warnings", "infos"})
        EXPECT_NE(totals->find(key), nullptr) << key;

    // The baseline bridge: a static run ratchets through the same
    // machinery as the trace linter.
    const json::Value baseline =
        baselineJson(toLintEntries(entries));
    const BaselineCheck check =
        checkAgainstBaseline(toLintEntries(entries), baseline);
    EXPECT_TRUE(check.ok);
}

} // namespace
} // namespace vespera::analysis
