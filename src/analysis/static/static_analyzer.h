/**
 * @file
 * Pre-execution static analyzer over recorded TPC kernel traces.
 *
 * The sibling of analysis/analyzer.h that moves no counter: where
 * analyzeProgram charges the evaluated trace to the `tpc.*` counters,
 * analyzeProgramStatic lifts the trace to SSA IR (analysis/static/ir.h)
 * and schedules it with the same timing model (cost_model.h), then
 * adds what the IR knows: loop context, live ranges and roofline
 * bounds.
 *
 * The eight trace rules (exposed-latency, narrow-access,
 * random-should-stream, slot-imbalance, dead-value, redundant-reload,
 * local-overflow, invalid-ssa) are detected once, in kernel_rules.h, so
 * both analyzers report the same findings and differ only in wording;
 * the static wording adds loop context and a fix hint. The remaining
 * passes are static-only: register-pressure (live-range analysis
 * against the TPC local-memory budget), swp-opportunity (loops whose
 * achieved initiation interval trails their recurrence/resource bound,
 * i.e. software pipelining would pay) and the migration-aware passes.
 */

#ifndef VESPERA_ANALYSIS_STATIC_STATIC_ANALYZER_H
#define VESPERA_ANALYSIS_STATIC_STATIC_ANALYZER_H

#include "analysis/kernel_rules.h"
#include "analysis/static/cost_model.h"
#include "analysis/static/ir.h"

namespace vespera::analysis {

namespace rules {
/// Peak live SSA state near/over the TPC local-memory budget
/// (static-only: live-range analysis).
inline constexpr const char *registerPressure = "register-pressure";
/// Loop whose achieved initiation interval exceeds its
/// recurrence/resource lower bound: software pipelining would pay
/// (static-only).
inline constexpr const char *swpOpportunity = "swp-opportunity";

/// @name Migration-aware rules (ported "port:*"-labelled traces only).
/// @{
/// Predicated CUDA lanes emulated with mask + select instructions.
inline constexpr const char *divergenceEmulation =
    "divergence-emulation";
/// Warp accesses that lost coalescing in the port: shattered into
/// per-lane transactions, or vectorized below the TPC granule.
inline constexpr const char *coalescingLoss = "coalescing-loss";
/// __shared__ staging of unmodified global loads, ported verbatim.
inline constexpr const char *stagingRedundancy = "staging-redundancy";
/// Thread-order issue exposing latencies the GPU's warp scheduler
/// hid; strip-level software pipelining would recover them.
inline constexpr const char *loweredPipelining = "lowered-pipelining";
/// @}
} // namespace rules

/** Static-analyzer knobs: the trace analyzer's, plus lifting and
 *  static-only pass thresholds. `exportCounters` publishes
 *  "analysis.static.diag.<rule>". */
struct StaticAnalyzerOptions : AnalyzerOptions
{
    /// @name IR lifting.
    /// @{
    std::size_t maxLoopPeriod = 128;
    int maxLoopNesting = 3;
    /// @}

    /// @name Static-only pass thresholds.
    /// @{
    /// Peak live bytes / local memory above which register-pressure
    /// reports Info resp. Warning.
    double registerPressureInfoFrac = 0.5;
    double registerPressureWarnFrac = 0.9;
    /// Achieved II must exceed bound * this factor to flag SWP.
    double swpGapFactor = 1.2;
    /// ... and the projected saving must reach this many cycles.
    double swpMinSavedCycles = 16;
    /// @}

    /// @name Migration-aware pass thresholds (ported traces only).
    /// @{
    /// Dependency-stall fraction of total cycles above which
    /// lowered-pipelining fires on a ported program.
    double portStallFrac = 0.10;
    /// @}
};

/** Everything the static pipeline learned about one trace. */
struct StaticReport
{
    /// Diagnostics / per-rule summaries / slot counts, in the same
    /// shape the trace analyzer emits (predictedStallCycles and the
    /// per-cause stalls come from the schedule; measuredStallCycles
    /// stays 0 — no counter moved).
    Report report;
    /// The issue schedule and its roofline.
    StaticSchedule schedule;

    /// @name IR shape.
    /// @{
    std::size_t blockCount = 0;
    std::size_t loopCount = 0;
    int maxLoopDepth = 0;
    /// @}

    /// @name Live-range analysis results.
    /// @{
    std::uint64_t maxLiveValues = 0;
    Bytes peakLiveBytes = 0;
    /// @}

    /// Predicted issue cycles (schedule.cycles).
    double predictedCycles() const { return schedule.cycles; }
};

/** Analyze one recorded trace statically. Moves no counter but the
 *  "analysis.static.*" rule counts. */
StaticReport
analyzeProgramStatic(const tpc::Program &program,
                     const StaticAnalyzerOptions &options = {});

} // namespace vespera::analysis

#endif // VESPERA_ANALYSIS_STATIC_STATIC_ANALYZER_H
