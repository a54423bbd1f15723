#include "analysis/static/static_analyzer.h"

#include "analysis/static/passes.h"
#include "common/logging.h"

namespace vespera::analysis {

namespace {

/** The static pipeline's wording: predicted stalls, loop context from
 *  the IR, and a fix hint per finding. */
class StaticText final : public RuleText
{
  public:
    StaticText(const StaticIr &ir, const StaticAnalyzerOptions &options)
        : ir_(ir), options_(options)
    {
    }

    void
    exposedLatency(const LatencyFinding &f, Diagnostic &d) const override
    {
        std::string where;
        if (const Loop *loop = loopAt(d)) {
            where = strfmt(" inside loop #%d",
                           static_cast<int>(loop->id));
        }
        d.message = strfmt(
            "predicted %.0f-cycle dependence stall waiting on %s%s; "
            "the chain is shorter than the %d-cycle latency window",
            f.stall, f.producer.c_str(), where.c_str(),
            options_.params.vectorLatency);
        d.fixHint = "interleave independent work: unroll deeper or "
                    "rotate across more accumulators";
    }

    void
    narrowAccess(const NarrowFinding &f, Diagnostic &d) const override
    {
        std::string where;
        if (const Loop *loop = loopAt(d)) {
            where = strfmt(" in loop #%d (body %zu instrs, %lld trips)",
                           static_cast<int>(loop->id), loop->bodyLength,
                           static_cast<long long>(loop->tripCount));
        }
        const auto granule =
            static_cast<unsigned long long>(options_.params.granule);
        d.message = strfmt(
            "%d global %s access%s of %llu B each%s, below the %llu B "
            "granularity: %.0f%% of the bus traffic is discarded",
            f.count, slotName(f.slot), f.count == 1 ? "" : "es",
            static_cast<unsigned long long>(f.bytes), where.c_str(),
            granule, 100.0 * f.wasteFrac);
        d.fixHint = strfmt(
            "widen the access to the %llu B granule or batch "
            "neighbouring elements into one load/store",
            granule);
    }

    void
    randomShouldStream(const SequentialFinding &f,
                       Diagnostic &d) const override
    {
        // Symbolic confirmation: when the run sits in a recovered loop
        // whose stride analysis proved the walk affine and contiguous,
        // say so — the fix is then provably safe.
        std::string affine_note;
        if (const Loop *loop = loopAt(d)) {
            for (const AffineAccess &a : loop->accesses) {
                if (a.stream == f.stream && a.affine &&
                    a.stride == static_cast<std::int64_t>(a.bytes)) {
                    affine_note = strfmt(
                        "; loop #%d walks it at a provably affine "
                        "+%lld B/trip stride",
                        static_cast<int>(loop->id),
                        static_cast<long long>(a.stride));
                    break;
                }
            }
        }
        d.message = strfmt(
            "%d Random-tagged accesses on stream #%u walk sequential "
            "addresses (longest run %d)%s",
            f.accesses, f.stream, f.longestRun, affine_note.c_str());
        d.fixHint = strfmt(
            "tag the access Access::Stream so hardware prefetch "
            "applies, saving up to %d cycles of latency per access",
            f.savedPerAccess);
    }

    void
    slotImbalance(const SlotFinding &f, Diagnostic &d) const override
    {
        if (f.saturated) {
            d.message = strfmt(
                "static packing predicts the %s slot saturated "
                "(%.0f%% occupancy) while %s slot%s idle",
                slotName(f.busiest), 100.0 * f.occupancy, f.idle.c_str(),
                f.idle.find(',') == std::string::npos ? " is" : "s are");
            d.fixHint = strfmt(
                "move work across slots or accept the %s-bound roofline",
                slotName(f.busiest));
        } else {
            d.message = strfmt(
                "no VLIW slot exceeds %.0f%% predicted occupancy while "
                "%.0f%% of cycles stall: the body exposes too little ILP",
                100.0 * f.occupancy, 100.0 * f.stallFrac);
            d.fixHint = "unroll deeper or add independent accumulator "
                        "chains";
        }
    }

    void
    deadValue(const DeadFinding &f, Diagnostic &d) const override
    {
        d.message = strfmt(
            "%d %s result%s with an empty use list%s", f.count,
            d.opLabel.empty() ? "instruction" : d.opLabel.c_str(),
            f.count == 1 ? "" : "s",
            f.isLoad ? " (prefetch staging, or a wasted load)"
                     : " — dead compute occupies a VLIW slot for "
                       "nothing");
        d.fixHint = f.isLoad
                        ? "drop the load, or consume it — prefetch "
                          "staging should feed a later iteration"
                        : "delete the computation or store its result";
    }

    void
    redundantReload(const ReloadFinding &f, Diagnostic &d) const override
    {
        d.message = strfmt(
            "%d loads re-read %llu B already loaded from stream #%u "
            "(unique working set %llu B %s the %llu B local memory)",
            f.reloads, static_cast<unsigned long long>(f.reloadedBytes),
            f.stream, static_cast<unsigned long long>(f.uniqueBytes),
            f.fits ? "fits in" : "exceeds",
            static_cast<unsigned long long>(options_.localMemoryBytes));
        d.fixHint = f.fits ? "stage the reused block once in local memory"
                           : "tile the working set through local memory";
    }

    void
    localOverflow(const OverflowFinding &f, Diagnostic &d) const override
    {
        d.message = strfmt(
            "local-memory working set %llu B %s the %llu B capacity "
            "(%.0f%%)",
            static_cast<unsigned long long>(f.highWater),
            f.frac > 1.0 ? "exceeds" : "approaches",
            static_cast<unsigned long long>(options_.localMemoryBytes),
            100.0 * f.frac);
        d.fixHint = f.frac > 1.0
                        ? "the kernel would fault on hardware; tile the "
                          "staging buffer"
                        : "leave headroom or spills will follow the next "
                          "shape bump";
    }

    void
    invalidSsa(const SsaViolation &v, Diagnostic &d) const override
    {
        switch (v.kind) {
          case SsaViolation::Kind::UseBeforeDef:
            d.fixHint = "record the producing instruction before its "
                        "consumer";
            break;
          case SsaViolation::Kind::Redefinition:
            d.fixHint = "every definition needs a fresh SSA id";
            break;
          case SsaViolation::Kind::UseOutOfRange:
          case SsaViolation::Kind::DefOutOfRange:
            d.fixHint = "allocate SSA ids through Program::newValue";
            break;
        }
    }

  private:
    /** Innermost recovered loop around the finding's instruction. */
    const Loop *
    loopAt(const Diagnostic &d) const
    {
        return ir_.innermostLoopAt(static_cast<std::size_t>(d.instrIndex));
    }

    const StaticIr &ir_;
    const StaticAnalyzerOptions &options_;
};

} // namespace

StaticReport
analyzeProgramStatic(const tpc::Program &program,
                     const StaticAnalyzerOptions &options)
{
    StaticReport out;
    Report &report = out.report;
    report.kernel = program.kernelName();
    report.instructions = program.instrs().size();
    for (const tpc::Instr &instr : program.instrs())
        report.slotCounts[static_cast<std::size_t>(instr.slot)]++;
    DiagnosticSink sink(report, options.maxDiagnosticsPerRule);

    LiftOptions lift;
    lift.maxLoopPeriod = options.maxLoopPeriod;
    lift.maxLoopNesting = options.maxLoopNesting;
    const StaticIr ir = liftProgram(program, lift);
    const StaticText text(ir, options);
    if (!ir.valid()) {
        // Malformed traces get the SSA errors and nothing else — the
        // timing model indexes ready-time state by value id and must
        // not run on them.
        reportSsaViolations(program, ir.violations, text, sink);
        exportRuleCounters(report, options, "analysis.static.");
        return out;
    }

    out.blockCount = ir.blocks.size();
    out.loopCount = ir.loops.size();
    out.maxLoopDepth = ir.maxLoopDepth();

    out.schedule = scheduleStatic(ir, options.params);
    const StaticSchedule &s = out.schedule;
    report.cycles = s.cycles;
    report.predictedStallCycles = s.stallCycles;
    report.dependencyStallCycles = s.dependencyStallCycles;
    report.memoryStallCycles = s.memoryStallCycles;
    report.slotStallCycles = s.slotStallCycles;
    report.drainStallCycles = s.drainStallCycles;
    report.criticalPathCycles = s.criticalPathBound;
    // measuredStallCycles stays 0: no counter moved.

    runSharedRules({program, ir.defIndex, s.issue, s.cycles, s.stallCycles},
                   options, text, report, sink);
    PassContext ctx{ir, out.schedule, options, out, sink};
    passRegisterPressure(ctx);
    passSwpOpportunity(ctx);
    passDivergenceEmulation(ctx);
    passCoalescingLoss(ctx);
    passStagingRedundancy(ctx);
    passLoweredPipelining(ctx);

    exportRuleCounters(report, options, "analysis.static.");
    return out;
}

} // namespace vespera::analysis
