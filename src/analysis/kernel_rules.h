/**
 * @file
 * Detection of the kernel lint rules both analyzers report.
 *
 * The trace analyzer (analyzer.h) and the static pipeline
 * (static/static_analyzer.h) report eight rules over the same
 * timing model: each evaluates the trace with tpc::evaluatePipeline
 * and reads its IssueTrace. What differs is only the wording: the
 * static pipeline adds loop context from its IR and a fix hint per
 * finding. So each rule is detected here, once, and each analyzer
 * hands in a RuleText that words the findings the sink keeps.
 */

#ifndef VESPERA_ANALYSIS_KERNEL_RULES_H
#define VESPERA_ANALYSIS_KERNEL_RULES_H

#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/static/ir.h"

namespace vespera::analysis {

/** "load", "store", "vector" or "scalar". */
const char *slotName(tpc::Slot slot);

/** Collects findings into a Report, enforcing the per-rule emission
 *  cap (the per-rule RuleSummary still counts everything). */
class DiagnosticSink
{
  public:
    DiagnosticSink(Report &report, int max_per_rule)
        : report_(report), maxPerRule_(max_per_rule)
    {
    }

    void add(Diagnostic d);

    /** Whether the next add() for `rule` keeps its diagnostic. */
    bool keeps(const std::string &rule) const;

  private:
    Report &report_;
    int maxPerRule_;
};

/** An issue trace's per-instruction stall cycles summed by cause. */
struct StallSums
{
    double dependency = 0;
    double memory = 0;
    double slot = 0;
};

/** Sum `issue`'s stalls by cause, each in issue order. */
StallSums sumStalls(const tpc::IssueTrace &issue);

/** Longest def-use chain in cycles (infinite-resource schedule). */
double criticalPath(const tpc::Program &program,
                    const tpc::TpcParams &params);

/** Publish per-rule totals as "<prefix>programs" and
 *  "<prefix>diag.<rule>" when options.exportCounters is set. */
void exportRuleCounters(const Report &report,
                        const AnalyzerOptions &options,
                        const char *prefix);

/// @name What a shared rule found, as handed to an analyzer's wording.
/// Index, op label, cost and wasted bytes are already on the
/// Diagnostic; these carry the rest of what a message may quote.
/// @{
struct LatencyFinding
{
    double stall = 0;
    /// "v7 (v_add @ 12)", or "an earlier value" when unknown.
    std::string producer;
};

struct NarrowFinding
{
    int count = 0;
    tpc::Slot slot = tpc::Slot::Load;
    Bytes bytes = 0;
    double wasteFrac = 0;
};

struct SequentialFinding
{
    std::uint32_t stream = 0;
    int accesses = 0;
    int longestRun = 0;
    int savedPerAccess = 0;
};

struct SlotFinding
{
    /// One slot saturated while others idle (Info); otherwise too
    /// little ILP overall (Warning).
    bool saturated = false;
    tpc::Slot busiest = tpc::Slot::Load;
    double occupancy = 0;
    /// Idle slots, comma-separated (saturated findings only).
    std::string idle;
    double stallFrac = 0;
};

struct DeadFinding
{
    int count = 0;
    bool isLoad = false;
};

struct ReloadFinding
{
    std::uint32_t stream = 0;
    int reloads = 0;
    Bytes reloadedBytes = 0;
    Bytes uniqueBytes = 0;
    bool fits = false;
};

struct OverflowFinding
{
    Bytes highWater = 0;
    double frac = 0;
};
/// @}

/**
 * An analyzer's wording of the shared rules: each hook fills
 * `d.message` (and `d.fixHint` if the analyzer gives one). Hooks run
 * only for diagnostics the sink keeps.
 */
class RuleText
{
  public:
    virtual ~RuleText() = default;
    virtual void exposedLatency(const LatencyFinding &f,
                                Diagnostic &d) const = 0;
    virtual void narrowAccess(const NarrowFinding &f,
                              Diagnostic &d) const = 0;
    virtual void randomShouldStream(const SequentialFinding &f,
                                    Diagnostic &d) const = 0;
    virtual void slotImbalance(const SlotFinding &f,
                               Diagnostic &d) const = 0;
    virtual void deadValue(const DeadFinding &f, Diagnostic &d) const = 0;
    virtual void redundantReload(const ReloadFinding &f,
                                 Diagnostic &d) const = 0;
    virtual void localOverflow(const OverflowFinding &f,
                               Diagnostic &d) const = 0;
    /** invalid-ssa's message is the same in both analyzers; this adds
     *  what else an analyzer says (none by default). */
    virtual void invalidSsa(const SsaViolation &v, Diagnostic &d) const;
};

/** Report every SSA violation as an invalid-ssa error. */
void reportSsaViolations(const tpc::Program &program,
                         const std::vector<SsaViolation> &violations,
                         const RuleText &text, DiagnosticSink &sink);

/** One SSA-valid trace and its evaluation, as the shared rules read
 *  them. */
struct RuleInput
{
    const tpc::Program &program;
    /// Value id -> defining instruction (checkSsa).
    const std::vector<std::int64_t> &defIndex;
    /// tpc::evaluatePipeline's issue schedule (empty for an empty
    /// program).
    const tpc::IssueTrace &issue;
    double cycles = 0;
    double stallCycles = 0;
};

/**
 * Run the seven shared rules past invalid-ssa, in report order:
 * exposed-latency, narrow-access, random-should-stream,
 * slot-imbalance, dead-value, redundant-reload, local-overflow. Reads
 * `report.instructions`/`slotCounts` and sets `report.localBytesUsed`.
 */
void runSharedRules(const RuleInput &in, const AnalyzerOptions &options,
                    const RuleText &text, Report &report,
                    DiagnosticSink &sink);

} // namespace vespera::analysis

#endif // VESPERA_ANALYSIS_KERNEL_RULES_H
