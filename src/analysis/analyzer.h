/**
 * @file
 * Static analyzer over recorded tpc::Program traces.
 *
 * The paper's programmability study (Section 4, Table 4) attributes
 * most of Gaudi-2's kernel-level performance loss to a small set of
 * authoring mistakes: global accesses below the 256 B granularity,
 * dependency chains that expose the 4-cycle vector-instruction
 * latency, under-unrolled loops that starve the four VLIW slots, and
 * random-access patterns where streaming would do. Because our kernels
 * record SSA instruction traces, every one of those anti-patterns is
 * detectable from the trace — this module checks its SSA form, runs
 * the timing model to attribute each stall cycle to its cause, and
 * reports diagnostics with severity, instruction index, source kernel,
 * and an estimated cycle/byte cost. The rules themselves are detected
 * in kernel_rules.h, shared with the static pipeline.
 */

#ifndef VESPERA_ANALYSIS_ANALYZER_H
#define VESPERA_ANALYSIS_ANALYZER_H

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "tpc/pipeline.h"
#include "tpc/program.h"

namespace vespera::analysis {

/** Diagnostic severity. Errors gate CI; warnings are baselined. */
enum class Severity : std::uint8_t {
    Info,
    Warning,
    Error,
};

const char *severityName(Severity s);

/** Lint-rule identifiers (stable strings used in reports/baselines). */
namespace rules {
/// Dependency chain shorter than the latency window: issue stalled
/// waiting on a source value (paper: 4-cycle vector latency).
inline constexpr const char *exposedLatency = "exposed-latency";
/// Global load/store below the 256 B access granularity.
inline constexpr const char *narrowAccess = "narrow-access";
/// Random-access stream whose addresses are in fact sequential.
inline constexpr const char *randomShouldStream = "random-should-stream";
/// VLIW slot-pressure imbalance (saturated or starved issue slots).
inline constexpr const char *slotImbalance = "slot-imbalance";
/// SSA value produced but never consumed.
inline constexpr const char *deadValue = "dead-value";
/// Global re-load of bytes already loaded by the same trace.
inline constexpr const char *redundantReload = "redundant-reload";
/// Local-memory working set near/over the TPC's capacity.
inline constexpr const char *localOverflow = "local-overflow";
/// Malformed trace: source value used before/without definition.
inline constexpr const char *invalidSsa = "invalid-ssa";

/// @name Graph-level rules (implemented in graph/lint.h).
/// @{
/// Elementwise chain the compiler's fusion pass would fold away.
inline constexpr const char *unfusedElementwise = "unfused-elementwise";
/// Consecutive GEMMs forcing MME geometry reconfiguration.
inline constexpr const char *mmeGeometryThrash = "mme-geometry-thrash";
/// Vector op consuming a GEMM without MME-TPC pipelining.
inline constexpr const char *unpipelinedConsumer =
    "unpipelined-mme-consumer";
/// @}
} // namespace rules

/** One finding. */
struct Diagnostic
{
    std::string rule;
    Severity severity = Severity::Info;
    /// Offending kernel (Program::kernelName; may be ""). Graph-level
    /// lints put the node name here.
    std::string kernel;
    /// Instruction index within the trace; -1 for trace-wide findings.
    std::int64_t instrIndex = -1;
    /// Op label of the offending instruction (intrinsic or phase tag).
    std::string opLabel;
    std::string message;
    /// One-line suggested remediation ("" when the message says it
    /// all). The static pipeline fills this for every finding; the
    /// vespera-lint-static/v1 JSON exposes it as "fix_hint".
    std::string fixHint;
    /// Estimated cycles this finding costs (0 when inapplicable).
    double costCycles = 0;
    /// Estimated bus/HBM bytes wasted (0 when inapplicable).
    Bytes wastedBytes = 0;
};

/** Aggregate per-rule totals (counts every instance, even those not
 *  emitted as individual diagnostics). */
struct RuleSummary
{
    int count = 0;
    double costCycles = 0;
    Bytes wastedBytes = 0;
};

/** Analyzer knobs, shared by both analyzers (StaticAnalyzerOptions
 *  extends them). Defaults match the simulated Gaudi-2 TPC. */
struct AnalyzerOptions
{
    tpc::TpcParams params = tpc::TpcParams::forGaudi2();
    /// TPC vector local memory capacity (TpcContext default: 80 KB).
    Bytes localMemoryBytes = 80 * 1024;
    /// Individual diagnostics emitted per rule; totals count them all.
    int maxDiagnosticsPerRule = 8;
    /// Dependency stall (cycles) below which no per-instruction
    /// exposed-latency diagnostic is emitted.
    double minStallCycles = 3.0;
    /// Minimum run of address-sequential random accesses to flag.
    int minSequentialRun = 4;
    /// Publish per-rule counts to obs::CounterRegistry
    /// ("analysis.diag.<rule>", "analysis.static.diag.<rule>").
    bool exportCounters = true;
};

/** Everything the analyzer learned about one trace. */
struct Report
{
    std::string kernel;
    std::vector<Diagnostic> diagnostics;
    std::map<std::string, RuleSummary> rules;

    std::uint64_t instructions = 0;
    double cycles = 0;
    /// Stall cycles as measured by tpc::evaluatePipeline.
    double measuredStallCycles = 0;
    /// Analyzer's attribution total (per-cause stalls + drain). It adds
    /// the same stalls as measuredStallCycles in another order, so the
    /// two agree up to the last few bits; tests enforce that.
    double predictedStallCycles = 0;
    double dependencyStallCycles = 0;
    double memoryStallCycles = 0;
    double slotStallCycles = 0;
    double drainStallCycles = 0;
    /// Longest def-use chain through the trace, in cycles (a lower
    /// bound on execution no amount of unrolling removes).
    double criticalPathCycles = 0;
    /// Instructions issued per VLIW slot (load, store, vector, scalar).
    std::array<std::uint64_t, tpc::numSlots> slotCounts{};
    /// Local-memory working set observed in the trace.
    Bytes localBytesUsed = 0;

    /** True when any diagnostic has severity >= `s`. */
    bool hasSeverity(Severity s) const;

    /** Count of findings for `rule` (0 when the rule never fired). */
    int countFor(const std::string &rule) const;
};

/** Analyze one recorded trace. Never mutates the program. */
Report analyzeProgram(const tpc::Program &program,
                      const AnalyzerOptions &options = {});

} // namespace vespera::analysis

#endif // VESPERA_ANALYSIS_ANALYZER_H
