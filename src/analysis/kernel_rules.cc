#include "analysis/kernel_rules.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "obs/counters.h"

namespace vespera::analysis {

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

void
DiagnosticSink::add(Diagnostic d)
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

bool
DiagnosticSink::keeps(const std::string &rule) const
{
    const auto it = report_.rules.find(rule);
    return it == report_.rules.end() || it->second.count < maxPerRule_;
}

StallSums
sumStalls(const tpc::IssueTrace &issue)
{
    StallSums sums;
    for (const tpc::IssuedInstr &rec : issue.instrs) {
        switch (rec.cause) {
          case tpc::StallCause::Dependency:
            sums.dependency += rec.stallCycles;
            break;
          case tpc::StallCause::Memory:
            sums.memory += rec.stallCycles;
            break;
          case tpc::StallCause::SlotBusy:
            sums.slot += rec.stallCycles;
            break;
          case tpc::StallCause::None:
            break;
        }
    }
    return sums;
}

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

void
exportRuleCounters(const Report &report, const AnalyzerOptions &options,
                   const char *prefix)
{
    if (!options.exportCounters)
        return;
    obs::CounterRegistry &reg = obs::CounterRegistry::instance();
    reg.counter(std::string(prefix) + "programs").add(1.0);
    for (const auto &[rule, summary] : report.rules) {
        reg.counter(std::string(prefix) + "diag." + rule)
            .add(summary.count);
    }
}

void
RuleText::invalidSsa(const SsaViolation &, Diagnostic &) const
{
}

void
reportSsaViolations(const tpc::Program &program,
                    const std::vector<SsaViolation> &violations,
                    const RuleText &text, DiagnosticSink &sink)
{
    for (const SsaViolation &v : violations) {
        Diagnostic d;
        d.rule = rules::invalidSsa;
        d.severity = Severity::Error;
        d.instrIndex = static_cast<std::int64_t>(v.instrIndex);
        d.opLabel = program.label(program.instrs()[v.instrIndex].opLabel);
        const int value = static_cast<int>(v.value);
        switch (v.kind) {
          case SsaViolation::Kind::UseBeforeDef:
            d.message = strfmt("source value v%d used before its "
                               "definition", value);
            break;
          case SsaViolation::Kind::UseOutOfRange:
            d.message = strfmt("source value v%d used but never "
                               "allocated", value);
            break;
          case SsaViolation::Kind::Redefinition:
            d.message = strfmt("destination value v%d redefined (SSA "
                               "requires fresh ids)", value);
            break;
          case SsaViolation::Kind::DefOutOfRange:
            d.message = strfmt("destination value v%d out of range "
                               "(SSA requires fresh ids)", value);
            break;
        }
        text.invalidSsa(v, d);
        sink.add(std::move(d));
    }
}

namespace {

/** Dependency stalls that expose the latency window, worst first. */
void
findExposedLatency(const RuleInput &in, const AnalyzerOptions &options,
                   const RuleText &text, DiagnosticSink &sink)
{
    const tpc::Program &program = in.program;
    struct Candidate
    {
        std::size_t index;
        double stall;
        std::int32_t src;
    };
    std::vector<Candidate> candidates;
    for (std::size_t i = 0; i < in.issue.instrs.size(); i++) {
        const tpc::IssuedInstr &rec = in.issue.instrs[i];
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
        Diagnostic d;
        d.rule = rules::exposedLatency;
        d.severity = Severity::Warning;
        d.instrIndex = static_cast<std::int64_t>(c.index);
        d.costCycles = c.stall;
        // Past the per-rule cap the sink only tallies count and cost:
        // skip the strings it would discard.
        if (!sink.keeps(d.rule)) {
            sink.add(std::move(d));
            continue;
        }
        d.opLabel = program.label(program.instrs()[c.index].opLabel);
        LatencyFinding f;
        f.stall = c.stall;
        f.producer = "an earlier value";
        if (c.src >= 0 &&
            in.defIndex[static_cast<std::size_t>(c.src)] >= 0) {
            const auto def = in.defIndex[static_cast<std::size_t>(c.src)];
            f.producer = strfmt(
                "v%d (%s @ %lld)", static_cast<int>(c.src),
                program
                    .label(program.instrs()[static_cast<std::size_t>(def)]
                               .opLabel)
                    .c_str(),
                static_cast<long long>(def));
        }
        text.exposedLatency(f, d);
        sink.add(std::move(d));
    }
}

/** Global accesses below the granule: one finding per (label, size)
 *  call-site shape rather than one per executed access. */
void
findNarrowAccess(const tpc::Program &program,
                 const AnalyzerOptions &options, const RuleText &text,
                 DiagnosticSink &sink)
{
    const Bytes granule = options.params.granule;
    struct Group
    {
        std::int64_t first = -1;
        int count = 0;
        Bytes wasted = 0;
        tpc::Slot slot = tpc::Slot::Load;
    };
    std::map<std::pair<std::int16_t, Bytes>, Group> groups;
    for (std::size_t i = 0; i < program.instrs().size(); i++) {
        const tpc::Instr &instr = program.instrs()[i];
        if (!tpc::isGlobalMemAccess(instr) || instr.memBytes >= granule)
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
        NarrowFinding f;
        f.count = g.count;
        f.slot = g.slot;
        f.bytes = key.second;
        f.wasteFrac = 1.0 - static_cast<double>(f.bytes) /
                                static_cast<double>(granule);
        Diagnostic d;
        d.rule = rules::narrowAccess;
        d.severity = Severity::Warning;
        d.instrIndex = g.first;
        d.opLabel = program.label(key.first);
        d.wastedBytes = g.wasted;
        // Each access still occupies one full-granule bus transaction.
        d.costCycles = g.count * options.params.memIssueIntervalCycles *
                       f.wasteFrac;
        if (sink.keeps(d.rule))
            text.narrowAccess(f, d);
        sink.add(std::move(d));
    }
}

/** Random-tagged streams whose addresses are in fact sequential. */
void
findRandomShouldStream(const tpc::Program &program,
                       const AnalyzerOptions &options,
                       const RuleText &text, DiagnosticSink &sink)
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
        if (!tpc::isGlobalMemAccess(instr) ||
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
        SequentialFinding f;
        f.stream = id;
        f.accesses = st.sequential + 1;
        f.longestRun = st.best.length;
        f.savedPerAccess = options.params.loadLatencyRandom -
                           options.params.loadLatencyStream;
        Diagnostic d;
        d.rule = rules::randomShouldStream;
        d.severity = Severity::Warning;
        d.instrIndex = st.best.first;
        d.opLabel = program.label(
            program.instrs()[static_cast<std::size_t>(st.best.first)]
                .opLabel);
        d.costCycles =
            static_cast<double>(st.best.length) * f.savedPerAccess;
        if (sink.keeps(d.rule))
            text.randomShouldStream(f, d);
        sink.add(std::move(d));
    }
}

/** VLIW slot-pressure imbalance / ILP starvation. */
void
findSlotImbalance(const RuleInput &in, const Report &report,
                  const RuleText &text, DiagnosticSink &sink)
{
    // Occupancy and stall fractions are meaningless on empty or
    // single-instruction traces (a lone store "stalls" for its whole
    // drain), and the cycle count would be a degenerate denominator —
    // bail before the divide.
    if (in.cycles <= 0 || report.instructions < 2)
        return;
    const auto occupancy = [&](int s) {
        return static_cast<double>(
                   report.slotCounts[static_cast<std::size_t>(s)]) /
               in.cycles;
    };
    SlotFinding f;
    int best_slot = 0;
    for (int s = 0; s < tpc::numSlots; s++) {
        if (occupancy(s) > f.occupancy) {
            f.occupancy = occupancy(s);
            best_slot = s;
        }
    }
    f.busiest = static_cast<tpc::Slot>(best_slot);
    f.stallFrac = in.stallCycles / in.cycles;

    Diagnostic d;
    d.rule = rules::slotImbalance;
    if (f.occupancy > 0.85) {
        // One slot is the bottleneck; name the idle ones.
        for (int s = 0; s < tpc::numSlots; s++) {
            if (s != best_slot && occupancy(s) < 0.25 * f.occupancy) {
                if (!f.idle.empty())
                    f.idle += ", ";
                f.idle += slotName(static_cast<tpc::Slot>(s));
            }
        }
        if (f.idle.empty())
            return;
        f.saturated = true;
        d.severity = Severity::Info;
    } else if (f.stallFrac > 0.3 && f.occupancy < 0.5) {
        d.severity = Severity::Warning;
        d.costCycles = in.stallCycles;
    } else {
        return;
    }
    if (sink.keeps(d.rule))
        text.slotImbalance(f, d);
    sink.add(std::move(d));
}

/** SSA values produced but never consumed, one finding per label. */
void
findDeadValues(const tpc::Program &program, const RuleText &text,
               DiagnosticSink &sink)
{
    std::vector<char> used(static_cast<std::size_t>(program.numValues()),
                           0);
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
        if (sink.keeps(d.rule))
            text.deadValue({g.count, g.isLoad}, d);
        sink.add(std::move(d));
    }
}

/** Global loads that re-read bytes the same stream already loaded. */
void
findRedundantReloads(const tpc::Program &program,
                     const AnalyzerOptions &options,
                     const RuleText &text, DiagnosticSink &sink)
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
        if (instr.slot != tpc::Slot::Load ||
            !tpc::isGlobalMemAccess(instr) || instr.memOffset < 0 ||
            instr.memStream == 0) {
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
        ReloadFinding f;
        f.stream = id;
        f.reloads = st.reloads;
        f.reloadedBytes = st.reloadedBytes;
        f.uniqueBytes = st.uniqueBytes;
        f.fits = st.uniqueBytes <= options.localMemoryBytes;
        Diagnostic d;
        d.rule = rules::redundantReload;
        d.severity = f.fits ? Severity::Warning : Severity::Info;
        d.instrIndex = st.firstReload;
        d.opLabel = program.label(st.label);
        d.wastedBytes = st.reloadedBytes;
        d.costCycles =
            static_cast<double>((st.reloadedBytes +
                                 options.params.granule - 1) /
                                options.params.granule) *
            options.params.memIssueIntervalCycles;
        if (sink.keeps(d.rule))
            text.redundantReload(f, d);
        sink.add(std::move(d));
    }
}

/** Local-memory working set against the TPC's capacity. */
void
findLocalOverflow(const tpc::Program &program,
                  const AnalyzerOptions &options, const RuleText &text,
                  Report &report, DiagnosticSink &sink)
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
    const OverflowFinding f{
        high_water, static_cast<double>(high_water) /
                        static_cast<double>(options.localMemoryBytes)};
    if (f.frac <= 0.9)
        return;
    Diagnostic d;
    d.rule = rules::localOverflow;
    d.severity = f.frac > 1.0 ? Severity::Error : Severity::Warning;
    d.instrIndex = worst;
    d.opLabel = program.label(label);
    d.wastedBytes = high_water > options.localMemoryBytes
                        ? high_water - options.localMemoryBytes
                        : 0;
    if (sink.keeps(d.rule))
        text.localOverflow(f, d);
    sink.add(std::move(d));
}

} // namespace

void
runSharedRules(const RuleInput &in, const AnalyzerOptions &options,
               const RuleText &text, Report &report,
               DiagnosticSink &sink)
{
    findExposedLatency(in, options, text, sink);
    findNarrowAccess(in.program, options, text, sink);
    findRandomShouldStream(in.program, options, text, sink);
    findSlotImbalance(in, report, text, sink);
    findDeadValues(in.program, text, sink);
    findRedundantReloads(in.program, options, text, sink);
    findLocalOverflow(in.program, options, text, report, sink);
}

} // namespace vespera::analysis
