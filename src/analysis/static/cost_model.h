/**
 * @file
 * Static cost model: the issue schedule of a lifted trace and its
 * roofline.
 *
 * The schedule is the timing model's own: scheduleStatic runs
 * tpc::evaluatePipeline over the trace and keeps its IssueTrace, so
 * the predicted cycles and per-instruction stalls equal the
 * simulator's by construction. Like evaluatePipeline it moves no
 * counter. What the static pipeline adds is the per-cause stall sums
 * and three analytic lower bounds (dependence height, busiest-slot
 * resource bound, memory-interface bound) whose max is the roofline
 * no schedule can beat; the gap between the schedule and that max is
 * the statically visible optimization headroom.
 */

#ifndef VESPERA_ANALYSIS_STATIC_COST_MODEL_H
#define VESPERA_ANALYSIS_STATIC_COST_MODEL_H

#include "analysis/static/ir.h"
#include "tpc/pipeline.h"

namespace vespera::analysis {

/** The issue schedule and its breakdown. */
struct StaticSchedule
{
    /// Per-instruction issue records and drain, from the timing model.
    tpc::IssueTrace issue;
    /// Total issue cycles (tpc::PipelineResult::cycles).
    double cycles = 0;
    double stallCycles = 0;
    double dependencyStallCycles = 0;
    double memoryStallCycles = 0;
    double slotStallCycles = 0;
    /// Result/memory drain past the last issue.
    double drainStallCycles = 0;

    /// @name Analytic lower bounds (roofline terms).
    /// @{
    /// Longest def-use chain height in cycles.
    double criticalPathBound = 0;
    /// Busiest VLIW slot: one issue per slot per cycle.
    double slotResourceBound = 0;
    /// Global-memory interface: granule transactions x issue interval.
    double memoryBound = 0;
    /// @}

    /// max(criticalPath, slotResource, memory) — the roofline.
    double lowerBound() const
    {
        double b = criticalPathBound;
        b = b > slotResourceBound ? b : slotResourceBound;
        b = b > memoryBound ? b : memoryBound;
        return b;
    }
};

/**
 * Schedule `ir` under the timing model. The IR must be valid (no SSA
 * violations); an empty program yields an all-zero schedule.
 */
StaticSchedule scheduleStatic(const StaticIr &ir,
                              const tpc::TpcParams &params);

} // namespace vespera::analysis

#endif // VESPERA_ANALYSIS_STATIC_COST_MODEL_H
