#include "analysis/analyzer.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "common/logging.h"
#include "obs/counters.h"

namespace vespera::analysis {

namespace {

__attribute__((format(printf, 1, 2))) std::string
strfmt(const char *fmt, ...)
{
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

const char *
slotName(tpc::Slot slot)
{
    switch (slot) {
      case tpc::Slot::Load:
        return "load";
      case tpc::Slot::Store:
        return "store";
      case tpc::Slot::Vector:
        return "vector";
      case tpc::Slot::Scalar:
        return "scalar";
    }
    return "?";
}

bool
isGlobalMem(const tpc::Instr &i)
{
    return tpc::isGlobalMemAccess(i);
}

/** Collects per-rule findings, enforcing the per-rule emission cap. */
class Sink
{
  public:
    Sink(Report &report, const AnalyzerOptions &options)
        : report_(report), options_(options)
    {
    }

    void
    add(Diagnostic d)
    {
        RuleSummary &s = report_.rules[d.rule];
        s.count++;
        s.costCycles += d.costCycles;
        s.wastedBytes += d.wastedBytes;
        if (s.count <= options_.maxDiagnosticsPerRule) {
            d.kernel = report_.kernel;
            report_.diagnostics.push_back(std::move(d));
        }
    }

  private:
    Report &report_;
    const AnalyzerOptions &options_;
};

/**
 * SSA well-formedness: every source id was defined by an earlier
 * instruction, no id is defined twice. Returns false (after emitting
 * Error diagnostics) when violated — the pipeline replay indexes its
 * ready-time array by value id and must not run on such traces.
 */
bool
checkSsa(const tpc::Program &program, Sink &sink)
{
    const std::int32_t num_values = program.numValues();
    std::vector<char> defined(static_cast<std::size_t>(num_values), 0);
    bool ok = true;
    for (std::size_t i = 0; i < program.instrs().size(); i++) {
        const tpc::Instr &instr = program.instrs()[i];
        for (std::int32_t src : {instr.src0, instr.src1, instr.src2}) {
            if (src < 0)
                continue;
            if (src >= num_values ||
                !defined[static_cast<std::size_t>(src)]) {
                ok = false;
                Diagnostic d;
                d.rule = rules::invalidSsa;
                d.severity = Severity::Error;
                d.instrIndex = static_cast<std::int64_t>(i);
                d.opLabel = program.label(instr.opLabel);
                d.message = strfmt("source value v%d used %s",
                                   static_cast<int>(src),
                                   src >= num_values
                                       ? "but never allocated"
                                       : "before its definition");
                sink.add(std::move(d));
            }
        }
        if (instr.dst >= 0) {
            if (instr.dst >= num_values ||
                defined[static_cast<std::size_t>(instr.dst)]) {
                ok = false;
                Diagnostic d;
                d.rule = rules::invalidSsa;
                d.severity = Severity::Error;
                d.instrIndex = static_cast<std::int64_t>(i);
                d.opLabel = program.label(instr.opLabel);
                d.message = strfmt(
                    "destination value v%d %s (SSA requires fresh ids)",
                    static_cast<int>(instr.dst),
                    instr.dst >= num_values ? "out of range"
                                            : "redefined");
                sink.add(std::move(d));
            } else {
                defined[static_cast<std::size_t>(instr.dst)] = 1;
            }
        }
    }
    return ok;
}

/** Longest def-use chain in cycles (infinite-resource schedule). */
double
criticalPath(const tpc::Program &program, const tpc::TpcParams &params)
{
    std::vector<double> finish(
        static_cast<std::size_t>(program.numValues()), 0.0);
    double longest = 0;
    for (const tpc::Instr &instr : program.instrs()) {
        double start = 0;
        for (std::int32_t src : {instr.src0, instr.src1, instr.src2}) {
            if (src >= 0)
                start = std::max(start,
                                 finish[static_cast<std::size_t>(src)]);
        }
        const double done =
            start + std::max(tpc::resultLatency(instr, params), 1.0);
        if (instr.dst >= 0)
            finish[static_cast<std::size_t>(instr.dst)] = done;
        longest = std::max(longest, done);
    }
    return longest;
}

/** Rule 1: dependency stalls — chains exposing the latency window. */
void
findExposedLatency(const tpc::Program &program,
                   const tpc::IssueTrace &trace,
                   const std::vector<std::int64_t> &def_index,
                   const AnalyzerOptions &options, Sink &sink)
{
    struct Candidate
    {
        std::size_t index;
        double stall;
        std::int32_t src;
    };
    std::vector<Candidate> candidates;
    for (std::size_t i = 0; i < trace.instrs.size(); i++) {
        const tpc::IssuedInstr &rec = trace.instrs[i];
        if (rec.cause == tpc::StallCause::Dependency &&
            rec.stallCycles >= options.minStallCycles) {
            candidates.push_back({i, rec.stallCycles, rec.criticalSrc});
        }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.stall > b.stall;
              });
    for (const Candidate &c : candidates) {
        const tpc::Instr &instr =
            program.instrs()[static_cast<std::size_t>(c.index)];
        Diagnostic d;
        d.rule = rules::exposedLatency;
        d.severity = Severity::Warning;
        d.instrIndex = static_cast<std::int64_t>(c.index);
        d.opLabel = program.label(instr.opLabel);
        d.costCycles = c.stall;
        std::string producer = "an earlier value";
        if (c.src >= 0 &&
            def_index[static_cast<std::size_t>(c.src)] >= 0) {
            const auto def =
                def_index[static_cast<std::size_t>(c.src)];
            producer = strfmt(
                "v%d (%s @ %lld)", static_cast<int>(c.src),
                program
                    .label(program.instrs()[static_cast<std::size_t>(
                                                def)]
                               .opLabel)
                    .c_str(),
                static_cast<long long>(def));
        }
        d.message = strfmt(
            "issue stalled %.0f cycles waiting on %s; the dependency "
            "chain is shorter than the %d-cycle latency window — "
            "interleave independent work (unroll / more accumulators)",
            c.stall, producer.c_str(), options.params.vectorLatency);
        sink.add(std::move(d));
    }
}

/** Rule 2a: global accesses below the 256 B granule waste bus bytes. */
void
findNarrowAccess(const tpc::Program &program,
                 const AnalyzerOptions &options, Sink &sink)
{
    const Bytes granule = options.params.granule;
    struct Group
    {
        std::int64_t first = -1;
        int count = 0;
        Bytes wasted = 0;
        tpc::Slot slot = tpc::Slot::Load;
    };
    // Group by (label, size): one diagnostic per distinct call site
    // shape rather than one per executed access.
    std::map<std::pair<std::int16_t, Bytes>, Group> groups;
    for (std::size_t i = 0; i < program.instrs().size(); i++) {
        const tpc::Instr &instr = program.instrs()[i];
        if (!isGlobalMem(instr) || instr.memBytes >= granule)
            continue;
        Group &g = groups[{instr.opLabel, instr.memBytes}];
        if (g.first < 0) {
            g.first = static_cast<std::int64_t>(i);
            g.slot = instr.slot;
        }
        g.count++;
        g.wasted += granule - instr.memBytes;
    }
    for (const auto &[key, g] : groups) {
        const Bytes bytes = key.second;
        Diagnostic d;
        d.rule = rules::narrowAccess;
        d.severity = Severity::Warning;
        d.instrIndex = g.first;
        d.opLabel = program.label(key.first);
        d.wastedBytes = g.wasted;
        // Each access still occupies one full-granule bus transaction.
        d.costCycles = g.count * options.params.memIssueIntervalCycles *
                       (1.0 - static_cast<double>(bytes) /
                                  static_cast<double>(granule));
        d.message = strfmt(
            "%d global %s access%s of %llu B each, below the %llu B "
            "granularity: %.0f%% of the bus moved is discarded — widen "
            "the access or batch neighbours",
            g.count, slotName(g.slot), g.count == 1 ? "" : "es",
            static_cast<unsigned long long>(bytes),
            static_cast<unsigned long long>(granule),
            100.0 * (1.0 - static_cast<double>(bytes) /
                               static_cast<double>(granule)));
        sink.add(std::move(d));
    }
}

/** Rule 2b: Random-tagged streams whose addresses are sequential. */
void
findRandomShouldStream(const tpc::Program &program,
                       const AnalyzerOptions &options, Sink &sink)
{
    struct Run
    {
        std::int64_t first = -1;
        int length = 0;
    };
    struct StreamState
    {
        std::int64_t nextOffset = -1;
        Run current;
        Run best;
        int sequential = 0; ///< Total sequential accesses (all runs).
    };
    std::map<std::uint32_t, StreamState> streams;
    for (std::size_t i = 0; i < program.instrs().size(); i++) {
        const tpc::Instr &instr = program.instrs()[i];
        if (!isGlobalMem(instr) ||
            instr.access != tpc::Access::Random ||
            instr.memOffset < 0 || instr.memStream == 0) {
            continue;
        }
        StreamState &st = streams[instr.memStream];
        if (st.nextOffset == instr.memOffset && st.current.length > 0) {
            st.current.length++;
            st.sequential++;
        } else {
            if (st.current.length > st.best.length)
                st.best = st.current;
            st.current = {static_cast<std::int64_t>(i), 1};
        }
        st.nextOffset =
            instr.memOffset + static_cast<std::int64_t>(instr.memBytes);
    }
    for (auto &[id, st] : streams) {
        if (st.current.length > st.best.length)
            st.best = st.current;
        if (st.best.length < options.minSequentialRun)
            continue;
        const tpc::Instr &first = program.instrs()[static_cast<
            std::size_t>(st.best.first)];
        Diagnostic d;
        d.rule = rules::randomShouldStream;
        d.severity = Severity::Warning;
        d.instrIndex = st.best.first;
        d.opLabel = program.label(first.opLabel);
        d.costCycles =
            static_cast<double>(st.best.length) *
            (options.params.loadLatencyRandom -
             options.params.loadLatencyStream);
        d.message = strfmt(
            "%d Random-tagged accesses on stream #%u walk sequential "
            "addresses (longest run %d); tagging them Stream enables "
            "prefetch, saving up to %d cycles of latency per access",
            st.sequential + 1, id, st.best.length,
            options.params.loadLatencyRandom -
                options.params.loadLatencyStream);
        sink.add(std::move(d));
    }
}

/** Rule 3: VLIW slot-pressure imbalance / ILP starvation. */
void
findSlotImbalance(const Report &report, const AnalyzerOptions &options,
                  Sink &sink)
{
    // Occupancy and stall fractions are meaningless on empty or
    // single-instruction traces (a lone store "stalls" for its whole
    // drain), and report.cycles would be a degenerate denominator —
    // bail before the divide.
    if (report.cycles <= 0 || report.instructions < 2)
        return;
    (void)options;
    double best_occ = 0;
    int best_slot = 0;
    for (int s = 0; s < tpc::numSlots; s++) {
        const double occ =
            static_cast<double>(
                report.slotCounts[static_cast<std::size_t>(s)]) /
            report.cycles;
        if (occ > best_occ) {
            best_occ = occ;
            best_slot = s;
        }
    }
    const double stall_frac =
        report.measuredStallCycles / report.cycles;

    if (best_occ > 0.85) {
        // One slot is the bottleneck; name the idle ones.
        std::string idle;
        for (int s = 0; s < tpc::numSlots; s++) {
            const double occ =
                static_cast<double>(
                    report.slotCounts[static_cast<std::size_t>(s)]) /
                report.cycles;
            if (s != best_slot && occ < 0.25 * best_occ) {
                if (!idle.empty())
                    idle += ", ";
                idle += slotName(static_cast<tpc::Slot>(s));
            }
        }
        if (!idle.empty()) {
            Diagnostic d;
            d.rule = rules::slotImbalance;
            d.severity = Severity::Info;
            d.message = strfmt(
                "%s slot is saturated (%.0f%% occupancy) while %s "
                "slot%s idle%s — move work across slots or accept the "
                "%s-bound roofline",
                slotName(static_cast<tpc::Slot>(best_slot)),
                100.0 * best_occ, idle.c_str(),
                idle.find(',') == std::string::npos ? " is" : "s are",
                "", slotName(static_cast<tpc::Slot>(best_slot)));
            sink.add(std::move(d));
        }
    } else if (stall_frac > 0.3 && best_occ < 0.5) {
        Diagnostic d;
        d.rule = rules::slotImbalance;
        d.severity = Severity::Warning;
        d.costCycles = report.measuredStallCycles;
        d.message = strfmt(
            "no VLIW slot exceeds %.0f%% occupancy while %.0f%% of "
            "cycles stall: the loop body exposes too little ILP — "
            "unroll deeper or add independent accumulator chains",
            100.0 * best_occ, 100.0 * stall_frac);
        sink.add(std::move(d));
    }
}

/** Rule 4a: SSA values produced but never consumed. */
void
findDeadValues(const tpc::Program &program, Sink &sink)
{
    std::vector<char> used(
        static_cast<std::size_t>(program.numValues()), 0);
    for (const tpc::Instr &instr : program.instrs()) {
        for (std::int32_t src : {instr.src0, instr.src1, instr.src2}) {
            if (src >= 0)
                used[static_cast<std::size_t>(src)] = 1;
        }
    }
    struct Group
    {
        std::int64_t first = -1;
        int count = 0;
        bool isLoad = false;
    };
    std::map<std::int16_t, Group> groups;
    for (std::size_t i = 0; i < program.instrs().size(); i++) {
        const tpc::Instr &instr = program.instrs()[i];
        if (instr.dst < 0 || used[static_cast<std::size_t>(instr.dst)])
            continue;
        Group &g = groups[instr.opLabel];
        if (g.first < 0) {
            g.first = static_cast<std::int64_t>(i);
            g.isLoad = instr.slot == tpc::Slot::Load ||
                       (instr.slot == tpc::Slot::Scalar &&
                        instr.memBytes > 0);
        }
        g.count++;
    }
    for (const auto &[label, g] : groups) {
        Diagnostic d;
        d.rule = rules::deadValue;
        // Unused loads are often intentional prefetch staging; unused
        // compute is pure waste.
        d.severity = g.isLoad ? Severity::Info : Severity::Warning;
        d.instrIndex = g.first;
        d.opLabel = program.label(label);
        d.message = strfmt(
            "%d %s result%s never consumed%s", g.count,
            program.label(label).empty() ? "instruction"
                                         : program.label(label).c_str(),
            g.count == 1 ? "" : "s",
            g.isLoad ? " (prefetch staging, or a wasted load)"
                     : " — dead compute occupies a VLIW slot for "
                       "nothing");
        sink.add(std::move(d));
    }
}

/** Rule 4b: global loads that re-read bytes already loaded. */
void
findRedundantReloads(const tpc::Program &program,
                     const AnalyzerOptions &options, Sink &sink)
{
    struct StreamState
    {
        std::map<std::pair<std::int64_t, Bytes>, int> loads;
        Bytes uniqueBytes = 0;
        Bytes reloadedBytes = 0;
        int reloads = 0;
        std::int64_t firstReload = -1;
        std::int16_t label = -1;
    };
    std::map<std::uint32_t, StreamState> streams;
    for (std::size_t i = 0; i < program.instrs().size(); i++) {
        const tpc::Instr &instr = program.instrs()[i];
        if (instr.slot != tpc::Slot::Load || !isGlobalMem(instr) ||
            instr.memOffset < 0 || instr.memStream == 0) {
            continue;
        }
        StreamState &st = streams[instr.memStream];
        int &count = st.loads[{instr.memOffset, instr.memBytes}];
        if (count == 0) {
            st.uniqueBytes += instr.memBytes;
        } else {
            st.reloadedBytes += instr.memBytes;
            st.reloads++;
            if (st.firstReload < 0) {
                st.firstReload = static_cast<std::int64_t>(i);
                st.label = instr.opLabel;
            }
        }
        count++;
    }
    for (const auto &[id, st] : streams) {
        if (st.reloads == 0)
            continue;
        const bool fits = st.uniqueBytes <= options.localMemoryBytes;
        Diagnostic d;
        d.rule = rules::redundantReload;
        d.severity = fits ? Severity::Warning : Severity::Info;
        d.instrIndex = st.firstReload;
        d.opLabel = program.label(st.label);
        d.wastedBytes = st.reloadedBytes;
        d.costCycles =
            static_cast<double>((st.reloadedBytes +
                                 options.params.granule - 1) /
                                options.params.granule) *
            options.params.memIssueIntervalCycles;
        d.message = strfmt(
            "%d loads re-read %llu B already loaded from stream #%u "
            "(unique working set %llu B %s the %llu B local memory) — "
            "%s",
            st.reloads,
            static_cast<unsigned long long>(st.reloadedBytes), id,
            static_cast<unsigned long long>(st.uniqueBytes),
            fits ? "fits in" : "exceeds",
            static_cast<unsigned long long>(options.localMemoryBytes),
            fits ? "stage it once in local memory"
                 : "tile the working set through local memory");
        sink.add(std::move(d));
    }
}

/** Rule 5: local-memory working set vs capacity. */
void
findLocalOverflow(const tpc::Program &program, Report &report,
                  const AnalyzerOptions &options, Sink &sink)
{
    Bytes high_water = 0;
    std::int64_t worst = -1;
    std::int16_t label = -1;
    for (std::size_t i = 0; i < program.instrs().size(); i++) {
        const tpc::Instr &instr = program.instrs()[i];
        if (instr.access != tpc::Access::Local || instr.memOffset < 0)
            continue;
        const Bytes end =
            static_cast<Bytes>(instr.memOffset) + instr.memBytes;
        if (end > high_water) {
            high_water = end;
            worst = static_cast<std::int64_t>(i);
            label = instr.opLabel;
        }
    }
    report.localBytesUsed = high_water;
    if (high_water == 0)
        return;
    const double frac = static_cast<double>(high_water) /
                        static_cast<double>(options.localMemoryBytes);
    if (frac <= 0.9)
        return;
    Diagnostic d;
    d.rule = rules::localOverflow;
    d.severity = frac > 1.0 ? Severity::Error : Severity::Warning;
    d.instrIndex = worst;
    d.opLabel = program.label(label);
    d.wastedBytes = high_water > options.localMemoryBytes
                        ? high_water - options.localMemoryBytes
                        : 0;
    d.message = strfmt(
        "local-memory working set %llu B %s the %llu B capacity "
        "(%.0f%%) — %s",
        static_cast<unsigned long long>(high_water),
        frac > 1.0 ? "exceeds" : "approaches",
        static_cast<unsigned long long>(options.localMemoryBytes),
        100.0 * frac,
        frac > 1.0 ? "the kernel would fault on hardware; tile the "
                     "staging buffer"
                   : "leave headroom or spills will follow the next "
                     "shape bump");
    sink.add(std::move(d));
}

/** Publish per-rule totals into the process-wide counter registry. */
void
exportRuleCounters(const Report &report, const AnalyzerOptions &options)
{
    if (!options.exportCounters)
        return;
    obs::CounterRegistry &reg = obs::CounterRegistry::instance();
    reg.counter("analysis.programs").add(1.0);
    for (const auto &[rule, summary] : report.rules) {
        reg.counter(std::string("analysis.diag.") + rule)
            .add(summary.count);
    }
}

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
    Sink sink(report, options);

    // Def-use indices (value id -> defining instruction).
    std::vector<std::int64_t> def_index(
        static_cast<std::size_t>(program.numValues()), -1);
    for (std::size_t i = 0; i < program.instrs().size(); i++) {
        const tpc::Instr &instr = program.instrs()[i];
        if (instr.dst >= 0 && instr.dst < program.numValues() &&
            def_index[static_cast<std::size_t>(instr.dst)] < 0) {
            def_index[static_cast<std::size_t>(instr.dst)] =
                static_cast<std::int64_t>(i);
        }
        report.slotCounts[static_cast<std::size_t>(instr.slot)]++;
    }

    // A malformed trace cannot be replayed; report and bail.
    if (!checkSsa(program, sink)) {
        exportRuleCounters(report, options);
        return report;
    }

    if (!program.empty()) {
        tpc::IssueTrace trace;
        const tpc::PipelineResult pr =
            tpc::evaluatePipeline(program, options.params, &trace);
        tpc::chargePipeline(pr);
        report.cycles = pr.cycles;
        report.measuredStallCycles = pr.stallCycles;
        for (const tpc::IssuedInstr &rec : trace.instrs) {
            switch (rec.cause) {
              case tpc::StallCause::Dependency:
                report.dependencyStallCycles += rec.stallCycles;
                break;
              case tpc::StallCause::Memory:
                report.memoryStallCycles += rec.stallCycles;
                break;
              case tpc::StallCause::SlotBusy:
                report.slotStallCycles += rec.stallCycles;
                break;
              case tpc::StallCause::None:
                break;
            }
        }
        report.drainStallCycles = trace.drainStall;
        report.predictedStallCycles =
            report.dependencyStallCycles + report.memoryStallCycles +
            report.slotStallCycles + report.drainStallCycles;
        report.criticalPathCycles = criticalPath(program, options.params);

        findExposedLatency(program, trace, def_index, options, sink);
    }

    findNarrowAccess(program, options, sink);
    findRandomShouldStream(program, options, sink);
    findSlotImbalance(report, options, sink);
    findDeadValues(program, sink);
    findRedundantReloads(program, options, sink);
    findLocalOverflow(program, report, options, sink);

    exportRuleCounters(report, options);
    return report;
}

} // namespace vespera::analysis
