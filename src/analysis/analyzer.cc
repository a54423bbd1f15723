#include "analysis/analyzer.h"

#include "analysis/kernel_rules.h"
#include "common/logging.h"

namespace vespera::analysis {

namespace {

/** The trace analyzer's wording: measured stalls, the fix folded into
 *  the message. */
class TraceText final : public RuleText
{
  public:
    explicit TraceText(const AnalyzerOptions &options) : options_(options)
    {
    }

    void
    exposedLatency(const LatencyFinding &f, Diagnostic &d) const override
    {
        d.message = strfmt(
            "issue stalled %.0f cycles waiting on %s; the dependency "
            "chain is shorter than the %d-cycle latency window — "
            "interleave independent work (unroll / more accumulators)",
            f.stall, f.producer.c_str(), options_.params.vectorLatency);
    }

    void
    narrowAccess(const NarrowFinding &f, Diagnostic &d) const override
    {
        d.message = strfmt(
            "%d global %s access%s of %llu B each, below the %llu B "
            "granularity: %.0f%% of the bus moved is discarded — widen "
            "the access or batch neighbours",
            f.count, slotName(f.slot), f.count == 1 ? "" : "es",
            static_cast<unsigned long long>(f.bytes),
            static_cast<unsigned long long>(options_.params.granule),
            100.0 * f.wasteFrac);
    }

    void
    randomShouldStream(const SequentialFinding &f,
                       Diagnostic &d) const override
    {
        d.message = strfmt(
            "%d Random-tagged accesses on stream #%u walk sequential "
            "addresses (longest run %d); tagging them Stream enables "
            "prefetch, saving up to %d cycles of latency per access",
            f.accesses, f.stream, f.longestRun, f.savedPerAccess);
    }

    void
    slotImbalance(const SlotFinding &f, Diagnostic &d) const override
    {
        if (f.saturated) {
            d.message = strfmt(
                "%s slot is saturated (%.0f%% occupancy) while %s "
                "slot%s idle — move work across slots or accept the "
                "%s-bound roofline",
                slotName(f.busiest), 100.0 * f.occupancy, f.idle.c_str(),
                f.idle.find(',') == std::string::npos ? " is" : "s are",
                slotName(f.busiest));
        } else {
            d.message = strfmt(
                "no VLIW slot exceeds %.0f%% occupancy while %.0f%% of "
                "cycles stall: the loop body exposes too little ILP — "
                "unroll deeper or add independent accumulator chains",
                100.0 * f.occupancy, 100.0 * f.stallFrac);
        }
    }

    void
    deadValue(const DeadFinding &f, Diagnostic &d) const override
    {
        d.message = strfmt(
            "%d %s result%s never consumed%s", f.count,
            d.opLabel.empty() ? "instruction" : d.opLabel.c_str(),
            f.count == 1 ? "" : "s",
            f.isLoad ? " (prefetch staging, or a wasted load)"
                     : " — dead compute occupies a VLIW slot for "
                       "nothing");
    }

    void
    redundantReload(const ReloadFinding &f, Diagnostic &d) const override
    {
        d.message = strfmt(
            "%d loads re-read %llu B already loaded from stream #%u "
            "(unique working set %llu B %s the %llu B local memory) — "
            "%s",
            f.reloads, static_cast<unsigned long long>(f.reloadedBytes),
            f.stream, static_cast<unsigned long long>(f.uniqueBytes),
            f.fits ? "fits in" : "exceeds",
            static_cast<unsigned long long>(options_.localMemoryBytes),
            f.fits ? "stage it once in local memory"
                   : "tile the working set through local memory");
    }

    void
    localOverflow(const OverflowFinding &f, Diagnostic &d) const override
    {
        d.message = strfmt(
            "local-memory working set %llu B %s the %llu B capacity "
            "(%.0f%%) — %s",
            static_cast<unsigned long long>(f.highWater),
            f.frac > 1.0 ? "exceeds" : "approaches",
            static_cast<unsigned long long>(options_.localMemoryBytes),
            100.0 * f.frac,
            f.frac > 1.0 ? "the kernel would fault on hardware; tile "
                           "the staging buffer"
                         : "leave headroom or spills will follow the "
                           "next shape bump");
    }

  private:
    const AnalyzerOptions &options_;
};

} // namespace

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Info:
        return "info";
      case Severity::Warning:
        return "warning";
      case Severity::Error:
        return "error";
    }
    return "?";
}

bool
Report::hasSeverity(Severity s) const
{
    for (const Diagnostic &d : diagnostics) {
        if (d.severity >= s)
            return true;
    }
    return false;
}

int
Report::countFor(const std::string &rule) const
{
    auto it = rules.find(rule);
    return it == rules.end() ? 0 : it->second.count;
}

Report
analyzeProgram(const tpc::Program &program,
               const AnalyzerOptions &options)
{
    Report report;
    report.kernel = program.kernelName();
    report.instructions = program.instrs().size();
    for (const tpc::Instr &instr : program.instrs())
        report.slotCounts[static_cast<std::size_t>(instr.slot)]++;
    DiagnosticSink sink(report, options.maxDiagnosticsPerRule);
    const TraceText text(options);

    // A malformed trace cannot be replayed; report and bail.
    std::vector<std::int64_t> def_index;
    const std::vector<SsaViolation> violations =
        checkSsa(program, def_index);
    if (!violations.empty()) {
        reportSsaViolations(program, violations, text, sink);
        exportRuleCounters(report, options, "analysis.");
        return report;
    }

    tpc::IssueTrace trace;
    tpc::PipelineResult pr;
    if (!program.empty()) {
        pr = tpc::evaluatePipeline(program, options.params, &trace);
        tpc::chargePipeline(pr);
        report.cycles = pr.cycles;
        report.measuredStallCycles = pr.stallCycles;
        const StallSums stalls = sumStalls(trace);
        report.dependencyStallCycles = stalls.dependency;
        report.memoryStallCycles = stalls.memory;
        report.slotStallCycles = stalls.slot;
        report.drainStallCycles = trace.drainStall;
        report.predictedStallCycles =
            report.dependencyStallCycles + report.memoryStallCycles +
            report.slotStallCycles + report.drainStallCycles;
        report.criticalPathCycles = criticalPath(program, options.params);
    }

    runSharedRules({program, def_index, trace, pr.cycles, pr.stallCycles},
                   options, text, report, sink);
    exportRuleCounters(report, options, "analysis.");
    return report;
}

} // namespace vespera::analysis
