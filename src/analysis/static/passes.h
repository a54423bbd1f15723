/**
 * @file
 * Static-only passes over the lifted SSA IR.
 *
 * The rules shared with the trace analyzer are detected once, in
 * analysis/kernel_rules.h. These passes reason about structure the
 * issue trace alone does not expose: live ranges (register-pressure),
 * recovered loops (swp-opportunity) and the port layer's "port:*"
 * labels (the migration-aware passes).
 */

#ifndef VESPERA_ANALYSIS_STATIC_PASSES_H
#define VESPERA_ANALYSIS_STATIC_PASSES_H

#include "analysis/static/static_analyzer.h"

namespace vespera::analysis {

/** Everything a pass may read and write. */
struct PassContext
{
    const StaticIr &ir;
    const StaticSchedule &schedule;
    const StaticAnalyzerOptions &options;
    StaticReport &report; ///< For side outputs (live ranges, ...).
    DiagnosticSink &sink;
};

/// @name Static-only passes.
/// @{
/// Live-range / register-pressure estimation against the TPC
/// local-memory budget (rules::registerPressure).
void passRegisterPressure(PassContext &ctx);
/// Software-pipelining opportunity detection over recovered loops
/// (rules::swpOpportunity).
void passSwpOpportunity(PassContext &ctx);
/// @}

/// @name Migration-aware passes (passes_port.cc). Each no-ops unless
/// the trace carries "port:*" labels from port::lowerAndRun, so
/// hand-written kernels keep their finding sets byte-identical.
/// @{
/// Mask/select divergence emulation (rules::divergenceEmulation).
void passDivergenceEmulation(PassContext &ctx);
/// Shattered or sub-granule warp accesses (rules::coalescingLoss).
void passCoalescingLoss(PassContext &ctx);
/// Verbatim __shared__ staging of global loads
/// (rules::stagingRedundancy).
void passStagingRedundancy(PassContext &ctx);
/// Thread-order issue vs strip software pipelining
/// (rules::loweredPipelining).
void passLoweredPipelining(PassContext &ctx);
/// @}

} // namespace vespera::analysis

#endif // VESPERA_ANALYSIS_STATIC_PASSES_H
