#include "analysis/migrate/migrate_report.h"

#include <cstdio>
#include <sstream>

#include "common/logging.h"

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
findingJson(const Diagnostic &d)
{
    std::map<std::string, json::Value> m;
    m["rule"] = str(d.rule);
    m["severity"] = str(severityName(d.severity));
    m["instr"] = num(static_cast<double>(d.instrIndex));
    m["op"] = str(d.opLabel);
    m["message"] = str(d.message);
    m["fix_hint"] = str(d.fixHint);
    m["cost_cycles"] = num(d.costCycles);
    m["wasted_bytes"] = num(static_cast<double>(d.wastedBytes));
    m["migration"] = json::Value::makeBool(isMigrationRule(d.rule));
    return json::Value::makeObject(std::move(m));
}

/** "73.0%" with one decimal. */
std::string
pct(double frac)
{
    return strfmt("%.1f%%", 100.0 * frac);
}

} // namespace

bool
isMigrationRule(const std::string &rule)
{
    return rule == rules::divergenceEmulation ||
           rule == rules::coalescingLoss ||
           rule == rules::stagingRedundancy ||
           rule == rules::loweredPipelining;
}

json::Value
migrateReportJson(const std::vector<MigrateEntry> &entries)
{
    std::map<std::string, json::Value> root;
    root["schema"] = str("vespera-lint-migrate/v1");
    std::vector<json::Value> kernels;
    kernels.reserve(entries.size());
    int parity_failures = 0;
    for (const MigrateEntry &e : entries) {
        std::map<std::string, json::Value> m;
        m["kernel"] = str(e.kernel);
        m["shape"] = str(e.shape);
        m["notes"] = str(e.notes);
        m["parity"] = json::Value::makeBool(e.parity);
        m["max_rel_error"] = num(e.maxRelError);
        m["ported_time"] = num(e.portedTime);
        m["ported_cycles"] = num(e.portedCycles);
        m["hand_time"] = num(e.handTime);
        m["achieved_fraction"] = num(e.achievedFraction);
        m["a100_time"] = num(e.a100Time);
        m["slowdown_vs_a100"] = num(e.slowdownVsA100);
        {
            std::vector<json::Value> findings;
            const auto &diags = e.analysis.report.diagnostics;
            findings.reserve(diags.size());
            int migration = 0;
            for (const Diagnostic &d : diags) {
                findings.push_back(findingJson(d));
                migration += isMigrationRule(d.rule) ? 1 : 0;
            }
            m["findings"] = json::Value::makeArray(std::move(findings));
            m["migration_findings"] = num(migration);
        }
        if (!e.parity)
            parity_failures++;
        kernels.push_back(json::Value::makeObject(std::move(m)));
    }
    root["kernels"] = json::Value::makeArray(std::move(kernels));
    {
        std::map<std::string, json::Value> totals;
        totals["kernels"] = num(static_cast<double>(entries.size()));
        totals["parity_failures"] = num(parity_failures);
        root["totals"] = json::Value::makeObject(std::move(totals));
    }
    return json::Value::makeObject(std::move(root));
}

std::string
migrateReportText(const std::vector<MigrateEntry> &entries,
                  bool verbose)
{
    std::ostringstream os;
    int parity_failures = 0;
    for (const MigrateEntry &e : entries) {
        if (!e.parity)
            parity_failures++;
        char line[320];
        std::snprintf(
            line, sizeof(line),
            "%s %-20s [%s] %s of hand (ported %.2f us, hand %.2f "
            "us); %.2fx vs A100 est\n",
            e.parity ? " OK " : "FAIL", e.kernel.c_str(),
            e.shape.c_str(), pct(e.achievedFraction).c_str(),
            1e6 * e.portedTime, 1e6 * e.handTime, e.slowdownVsA100);
        os << line;
        if (!e.parity) {
            std::snprintf(line, sizeof(line),
                          "      parity FAILED: max rel error %.3e\n",
                          e.maxRelError);
            os << line;
        }
        // The gap explanation: migration-aware findings always shown;
        // generic analyzer findings only with --verbose.
        for (const Diagnostic &d : e.analysis.report.diagnostics) {
            if (!verbose && !isMigrationRule(d.rule))
                continue;
            os << "      " << severityName(d.severity) << ": ["
               << d.rule << "] " << d.message;
            if (d.costCycles > 0) {
                std::snprintf(line, sizeof(line), " [~%.0f cycles]",
                              d.costCycles);
                os << line;
            }
            os << "\n";
            if (!d.fixHint.empty())
                os << "        fix: " << d.fixHint << "\n";
        }
        if (verbose && !e.notes.empty())
            os << "      notes: " << e.notes << "\n";
    }
    char totals[160];
    std::snprintf(totals, sizeof(totals),
                  "%zu kernels migrated: %d parity failure%s\n",
                  entries.size(), parity_failures,
                  parity_failures == 1 ? "" : "s");
    os << totals;
    return os.str();
}

json::Value
migrateBaselineJson(const std::vector<MigrateEntry> &entries)
{
    std::map<std::string, json::Value> kernels;
    for (const MigrateEntry &e : entries) {
        std::map<std::string, json::Value> m;
        m["parity"] = json::Value::makeBool(e.parity);
        m["achieved_fraction"] = num(e.achievedFraction);
        kernels[e.kernel] = json::Value::makeObject(std::move(m));
    }
    std::map<std::string, json::Value> root;
    root["schema"] = str("vespera-lint-migrate-baseline/v1");
    root["kernels"] = json::Value::makeObject(std::move(kernels));
    return json::Value::makeObject(std::move(root));
}

namespace {

/** Why `doc` is not a migrate baseline ("" when it is one). */
std::string
migrateBaselineError(const json::Value &doc)
{
    if (!doc.isObject())
        return "document: expected an object";
    const json::Value *schema = doc.find("schema");
    if (schema == nullptr || !schema->isString() ||
        schema->str() != "vespera-lint-migrate-baseline/v1")
        return "schema: expected \"vespera-lint-migrate-baseline/v1\"";
    const json::Value *kernels = doc.find("kernels");
    if (kernels == nullptr || !kernels->isObject())
        return "kernels: expected an object";
    for (const auto &[kernel, base] : kernels->object()) {
        const std::string field = "kernels." + kernel;
        if (!base.isObject())
            return field + ": expected an object";
        const json::Value *parity = base.find("parity");
        if (parity == nullptr || !parity->isBool())
            return field + ".parity: expected true or false";
        const json::Value *frac = base.find("achieved_fraction");
        if (frac == nullptr || !frac->isNumber())
            return field + ".achieved_fraction: expected a number";
    }
    return {};
}

} // namespace

BaselineCheck
checkMigrateBaseline(const std::vector<MigrateEntry> &entries,
                     const json::Value &baseline,
                     double fractionSlack)
{
    BaselineCheck out;
    out.malformed = migrateBaselineError(baseline);
    if (!out.malformed.empty()) {
        out.ok = false;
        return out;
    }
    const json::Value &kernels = *baseline.find("kernels");
    for (const MigrateEntry &e : entries) {
        const json::Value *base = kernels.find(e.kernel);
        if (base == nullptr) {
            // New corpus entries must land functionally correct.
            if (!e.parity) {
                out.ok = false;
                out.failures.push_back(strfmt(
                    "%s: new kernel fails parity (max rel error %.3e)",
                    e.kernel.c_str(), e.maxRelError));
            }
            continue;
        }
        if (base->find("parity")->boolean() && !e.parity) {
            out.ok = false;
            out.failures.push_back(
                strfmt("%s: parity regressed (max rel error %.3e)",
                       e.kernel.c_str(), e.maxRelError));
        }
        const double frac = base->find("achieved_fraction")->number();
        if (e.achievedFraction < frac - fractionSlack) {
            out.ok = false;
            out.failures.push_back(strfmt(
                "%s: achieved fraction regressed %.3f -> %.3f "
                "(baseline allows -%.2f)",
                e.kernel.c_str(), frac, e.achievedFraction,
                fractionSlack));
        }
    }
    return out;
}

} // namespace vespera::analysis
