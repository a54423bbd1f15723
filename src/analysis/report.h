/**
 * @file
 * Rendering of analyzer results: human-readable text, machine-readable
 * JSON (schema "vespera-lint/v1"), and the warnings baseline that lets
 * CI gate on *new* findings without first driving the existing kernel
 * set to zero warnings.
 */

#ifndef VESPERA_ANALYSIS_REPORT_H
#define VESPERA_ANALYSIS_REPORT_H

#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "common/json.h"

namespace vespera::analysis {

/** One analyzed trace in a lint run (kernel x shape). */
struct LintEntry
{
    /// Registry kernel name (or graph name for graph-level lints).
    std::string kernel;
    /// Human-readable shape tag ("rows=48 cols=1024"); may be "".
    std::string shape;
    Report report;
};

/** Full lint run as JSON (schema "vespera-lint/v1"). */
json::Value lintReportJson(const std::vector<LintEntry> &entries);

/** Human-readable report. `verbose` includes per-trace stats even for
 *  clean traces; otherwise clean traces get one summary line. */
std::string lintReportText(const std::vector<LintEntry> &entries,
                           bool verbose);

/**
 * Warnings baseline (schema "vespera-lint-baseline/v1"): for each
 * kernel, the number of Warning-severity findings per rule, aggregated
 * across shapes. Errors are never baselined — they always fail.
 */
json::Value baselineJson(const std::vector<LintEntry> &entries);

/** Outcome of comparing a run against a checked-in baseline. */
struct BaselineCheck
{
    bool ok = true;
    /// One line per violation (new error, warning count regression).
    std::vector<std::string> failures;
    /// Set, as "<field>: <problem>", when the baseline document does
    /// not follow its schema; nothing was compared then.
    std::string malformed;
};

/**
 * Compare a run against `baseline` (a parsed baselineJson document).
 * Fails on any Error-severity finding, and on any (kernel, rule) whose
 * Warning count exceeds the baselined count (absent kernels or rules
 * baseline at zero). Improvements (fewer warnings) pass, so the
 * baseline can be ratcheted down by regenerating it. A document that
 * is not a warnings baseline (wrong schema, a count that is not a
 * non-negative integer) fails with `malformed` set.
 */
BaselineCheck checkAgainstBaseline(const std::vector<LintEntry> &entries,
                                   const json::Value &baseline);

} // namespace vespera::analysis

#endif // VESPERA_ANALYSIS_REPORT_H
