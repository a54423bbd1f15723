/**
 * @file
 * Dataflow passes over the lifted SSA IR.
 *
 * Each pass re-derives one of the kernel lint rules *statically*: the
 * trace analyzer (analysis/analyzer.cc) diagnoses the same
 * anti-patterns from the simulator's IssueTrace after execution; these
 * passes reach the same verdicts from the IR and the static schedule
 * alone. Rules shared with the trace pipeline must keep finding-set
 * parity on the registered kernels (tests pin this); the two
 * static-only passes (register-pressure, swp-opportunity) have no
 * trace counterpart because they reason about structure the pipeline
 * replay does not expose.
 */

#ifndef VESPERA_ANALYSIS_STATIC_PASSES_H
#define VESPERA_ANALYSIS_STATIC_PASSES_H

#include "analysis/static/static_analyzer.h"

namespace vespera::analysis {

/** Collects findings into a StaticReport, enforcing the per-rule
 *  emission cap (the per-rule RuleSummary still counts everything). */
class DiagnosticSink
{
  public:
    DiagnosticSink(Report &report, int max_per_rule)
        : report_(report), maxPerRule_(max_per_rule)
    {
    }

    void
    add(Diagnostic d)
    {
        RuleSummary &s = report_.rules[d.rule];
        s.count++;
        s.costCycles += d.costCycles;
        s.wastedBytes += d.wastedBytes;
        if (s.count <= maxPerRule_) {
            d.kernel = report_.kernel;
            report_.diagnostics.push_back(std::move(d));
        }
    }

    /** Whether the next add() for `rule` keeps its diagnostic. */
    bool
    keeps(const std::string &rule) const
    {
        const auto it = report_.rules.find(rule);
        return it == report_.rules.end() ||
               it->second.count < maxPerRule_;
    }

  private:
    Report &report_;
    int maxPerRule_;
};

/** Everything a pass may read and write. */
struct PassContext
{
    const StaticIr &ir;
    const StaticSchedule &schedule;
    const StaticAnalyzerOptions &options;
    StaticReport &report; ///< For side outputs (live ranges, ...).
    DiagnosticSink &sink;
};

/// @name Static counterparts of the trace rules.
/// @{
/// Dependence-height analysis: predicted dependency stalls exposing
/// the latency window (rules::exposedLatency).
void passExposedLatency(PassContext &ctx);
/// Sub-granule global accesses (rules::narrowAccess).
void passNarrowAccess(PassContext &ctx);
/// Random-tagged streams with affine, contiguous strides
/// (rules::randomShouldStream).
void passRandomShouldStream(PassContext &ctx);
/// Static VLIW packing: slot saturation / ILP starvation
/// (rules::slotImbalance).
void passSlotImbalance(PassContext &ctx);
/// SSA values with empty use lists (rules::deadValue).
void passDeadValue(PassContext &ctx);
/// Re-loaded (stream, offset, size) triples (rules::redundantReload).
void passRedundantReload(PassContext &ctx);
/// Local-memory high-water vs capacity (rules::localOverflow).
void passLocalOverflow(PassContext &ctx);
/// @}

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
