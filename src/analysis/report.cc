#include "analysis/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>

namespace vespera::analysis {

namespace {

json::Value
num(double v)
{
    return json::Value::makeNumber(v);
}

json::Value
str(std::string s)
{
    return json::Value::makeString(std::move(s));
}

json::Value
diagnosticJson(const Diagnostic &d)
{
    std::map<std::string, json::Value> m;
    m["rule"] = str(d.rule);
    m["severity"] = str(severityName(d.severity));
    m["kernel"] = str(d.kernel);
    m["instr"] = num(static_cast<double>(d.instrIndex));
    m["op"] = str(d.opLabel);
    m["message"] = str(d.message);
    m["cost_cycles"] = num(d.costCycles);
    m["wasted_bytes"] = num(static_cast<double>(d.wastedBytes));
    return json::Value::makeObject(std::move(m));
}

json::Value
reportJson(const Report &r)
{
    std::map<std::string, json::Value> m;
    m["instructions"] = num(static_cast<double>(r.instructions));
    m["cycles"] = num(r.cycles);
    m["stall_cycles"] = num(r.measuredStallCycles);
    m["predicted_stall_cycles"] = num(r.predictedStallCycles);
    m["dependency_stall_cycles"] = num(r.dependencyStallCycles);
    m["memory_stall_cycles"] = num(r.memoryStallCycles);
    m["slot_stall_cycles"] = num(r.slotStallCycles);
    m["drain_stall_cycles"] = num(r.drainStallCycles);
    m["critical_path_cycles"] = num(r.criticalPathCycles);
    m["local_bytes_used"] = num(static_cast<double>(r.localBytesUsed));
    {
        std::map<std::string, json::Value> slots;
        static const char *const names[tpc::numSlots] = {
            "load", "store", "vector", "scalar"};
        for (int s = 0; s < tpc::numSlots; s++) {
            slots[names[s]] = num(static_cast<double>(
                r.slotCounts[static_cast<std::size_t>(s)]));
        }
        m["slot_counts"] = json::Value::makeObject(std::move(slots));
    }
    {
        std::map<std::string, json::Value> rules;
        for (const auto &[rule, summary] : r.rules) {
            std::map<std::string, json::Value> s;
            s["count"] = num(summary.count);
            s["cost_cycles"] = num(summary.costCycles);
            s["wasted_bytes"] =
                num(static_cast<double>(summary.wastedBytes));
            rules[rule] = json::Value::makeObject(std::move(s));
        }
        m["rules"] = json::Value::makeObject(std::move(rules));
    }
    {
        std::vector<json::Value> diags;
        diags.reserve(r.diagnostics.size());
        for (const Diagnostic &d : r.diagnostics)
            diags.push_back(diagnosticJson(d));
        m["diagnostics"] = json::Value::makeArray(std::move(diags));
    }
    return json::Value::makeObject(std::move(m));
}

/** Count diagnostics at exactly `sev` across a whole run. */
int
countSeverity(const std::vector<LintEntry> &entries, Severity sev)
{
    int n = 0;
    for (const LintEntry &e : entries) {
        for (const Diagnostic &d : e.report.diagnostics) {
            if (d.severity == sev)
                n++;
        }
    }
    return n;
}

} // namespace

json::Value
lintReportJson(const std::vector<LintEntry> &entries)
{
    std::map<std::string, json::Value> root;
    root["schema"] = str("vespera-lint/v1");
    std::vector<json::Value> traces;
    traces.reserve(entries.size());
    for (const LintEntry &e : entries) {
        std::map<std::string, json::Value> m;
        m["kernel"] = str(e.kernel);
        m["shape"] = str(e.shape);
        m["report"] = reportJson(e.report);
        traces.push_back(json::Value::makeObject(std::move(m)));
    }
    root["traces"] = json::Value::makeArray(std::move(traces));
    {
        std::map<std::string, json::Value> totals;
        totals["errors"] =
            num(countSeverity(entries, Severity::Error));
        totals["warnings"] =
            num(countSeverity(entries, Severity::Warning));
        totals["infos"] = num(countSeverity(entries, Severity::Info));
        root["totals"] = json::Value::makeObject(std::move(totals));
    }
    return json::Value::makeObject(std::move(root));
}

std::string
lintReportText(const std::vector<LintEntry> &entries, bool verbose)
{
    std::ostringstream os;
    for (const LintEntry &e : entries) {
        const Report &r = e.report;
        const bool clean = r.diagnostics.empty();
        if (clean && !verbose) {
            os << "  OK  " << e.kernel;
            if (!e.shape.empty())
                os << " [" << e.shape << "]";
            os << "\n";
            continue;
        }
        os << "==== " << e.kernel;
        if (!e.shape.empty())
            os << " [" << e.shape << "]";
        os << " ====\n";
        char line[256];
        std::snprintf(line, sizeof(line),
                      "  %llu instrs, %.0f cycles (%.0f stalled: "
                      "dep %.0f, mem %.0f, slot %.0f, drain %.0f), "
                      "critical path %.0f\n",
                      static_cast<unsigned long long>(r.instructions),
                      r.cycles, r.measuredStallCycles,
                      r.dependencyStallCycles, r.memoryStallCycles,
                      r.slotStallCycles, r.drainStallCycles,
                      r.criticalPathCycles);
        os << line;
        for (const Diagnostic &d : r.diagnostics) {
            os << "  " << severityName(d.severity) << ": [" << d.rule
               << "]";
            if (d.instrIndex >= 0)
                os << " @" << d.instrIndex;
            if (!d.opLabel.empty())
                os << " (" << d.opLabel << ")";
            os << " " << d.message;
            if (d.costCycles > 0) {
                std::snprintf(line, sizeof(line), " [~%.0f cycles]",
                              d.costCycles);
                os << line;
            }
            if (d.wastedBytes > 0)
                os << " [" << d.wastedBytes << " B wasted]";
            os << "\n";
        }
        // Rules that overflowed the per-rule emission cap.
        for (const auto &[rule, summary] : r.rules) {
            const int shown = static_cast<int>(std::count_if(
                r.diagnostics.begin(), r.diagnostics.end(),
                [&rule = rule](const Diagnostic &d) {
                    return d.rule == rule;
                }));
            if (summary.count > shown) {
                os << "  ... [" << rule << "] "
                   << summary.count - shown << " more finding"
                   << (summary.count - shown == 1 ? "" : "s")
                   << " suppressed\n";
            }
        }
    }
    char totals[128];
    std::snprintf(totals, sizeof(totals),
                  "%zu traces: %d errors, %d warnings, %d infos\n",
                  entries.size(),
                  countSeverity(entries, Severity::Error),
                  countSeverity(entries, Severity::Warning),
                  countSeverity(entries, Severity::Info));
    os << totals;
    return os.str();
}

json::Value
baselineJson(const std::vector<LintEntry> &entries)
{
    // kernel -> rule -> warning count, aggregated across shapes.
    std::map<std::string, std::map<std::string, int>> counts;
    for (const LintEntry &e : entries) {
        for (const Diagnostic &d : e.report.diagnostics) {
            if (d.severity == Severity::Warning)
                counts[e.kernel][d.rule]++;
        }
    }
    std::map<std::string, json::Value> kernels;
    for (const auto &[kernel, rules] : counts) {
        std::map<std::string, json::Value> m;
        for (const auto &[rule, count] : rules)
            m[rule] = json::Value::makeNumber(count);
        kernels[kernel] = json::Value::makeObject(std::move(m));
    }
    std::map<std::string, json::Value> root;
    root["schema"] = json::Value::makeString("vespera-lint-baseline/v1");
    root["warnings"] = json::Value::makeObject(std::move(kernels));
    return json::Value::makeObject(std::move(root));
}

namespace {

/** Why `doc` is not a warnings baseline ("" when it is one). */
std::string
warningsBaselineError(const json::Value &doc)
{
    if (!doc.isObject())
        return "document: expected an object";
    const json::Value *schema = doc.find("schema");
    if (schema == nullptr || !schema->isString() ||
        schema->str() != "vespera-lint-baseline/v1")
        return "schema: expected \"vespera-lint-baseline/v1\"";
    const json::Value *warnings = doc.find("warnings");
    if (warnings == nullptr || !warnings->isObject())
        return "warnings: expected an object";
    for (const auto &[kernel, rules] : warnings->object()) {
        if (!rules.isObject())
            return "warnings." + kernel + ": expected an object";
        for (const auto &[rule, n] : rules.object()) {
            if (!n.isNumber() || !(n.number() >= 0) ||
                n.number() > std::numeric_limits<int>::max() ||
                n.number() != std::floor(n.number()))
                return "warnings." + kernel + "." + rule +
                       ": expected a non-negative integer count";
        }
    }
    return {};
}

} // namespace

BaselineCheck
checkAgainstBaseline(const std::vector<LintEntry> &entries,
                     const json::Value &baseline)
{
    BaselineCheck check;
    check.malformed = warningsBaselineError(baseline);
    if (!check.malformed.empty()) {
        check.ok = false;
        return check;
    }
    const json::Value &allowed = *baseline.find("warnings");

    // Errors are never baselined.
    for (const LintEntry &e : entries) {
        for (const Diagnostic &d : e.report.diagnostics) {
            if (d.severity == Severity::Error) {
                check.ok = false;
                check.failures.push_back(
                    "error-severity finding in " + e.kernel + ": [" +
                    d.rule + "] " + d.message);
            }
        }
    }

    // Warning counts may not regress past the baseline.
    std::map<std::string, std::map<std::string, int>> counts;
    for (const LintEntry &e : entries) {
        for (const Diagnostic &d : e.report.diagnostics) {
            if (d.severity == Severity::Warning)
                counts[e.kernel][d.rule]++;
        }
    }
    for (const auto &[kernel, rules] : counts) {
        const json::Value *base = allowed.find(kernel);
        for (const auto &[rule, count] : rules) {
            int budget = 0;
            if (base != nullptr) {
                if (const json::Value *v = base->find(rule))
                    budget = static_cast<int>(v->number());
            }
            if (count > budget) {
                check.ok = false;
                check.failures.push_back(
                    kernel + ": [" + rule + "] " +
                    std::to_string(count) + " warnings exceed the " +
                    std::to_string(budget) + " baselined");
            }
        }
    }
    return check;
}

} // namespace vespera::analysis
