/**
 * @file
 * Tests of lint-report rendering (text + JSON) and the warnings
 * baseline used to gate CI.
 */

#include <gtest/gtest.h>

#include "analysis/report.h"
#include "common/json.h"

namespace vespera::analysis {
namespace {

Diagnostic
makeDiag(const char *rule, Severity sev, const char *kernel)
{
    Diagnostic d;
    d.rule = rule;
    d.severity = sev;
    d.kernel = kernel;
    d.instrIndex = 3;
    d.opLabel = "v_add";
    d.message = "test finding";
    d.costCycles = 5;
    d.wastedBytes = 128;
    return d;
}

LintEntry
makeEntry(const char *kernel,
          std::vector<Diagnostic> diags = {})
{
    LintEntry e;
    e.kernel = kernel;
    e.shape = "n=8";
    e.report.kernel = kernel;
    e.report.instructions = 10;
    e.report.cycles = 100;
    for (Diagnostic &d : diags) {
        e.report.rules[d.rule].count++;
        e.report.diagnostics.push_back(std::move(d));
    }
    return e;
}

TEST(Report, JsonRoundTripsThroughParser)
{
    std::vector<LintEntry> entries;
    entries.push_back(makeEntry(
        "k1", {makeDiag(rules::narrowAccess, Severity::Warning, "k1"),
               makeDiag(rules::deadValue, Severity::Info, "k1")}));
    entries.push_back(makeEntry("k2"));

    const std::string doc =
        json::serialize(lintReportJson(entries));
    json::Value v;
    std::string error;
    ASSERT_TRUE(json::parse(doc, v, &error)) << error;

    ASSERT_NE(v.find("schema"), nullptr);
    EXPECT_EQ(v.find("schema")->str(), "vespera-lint/v1");
    ASSERT_NE(v.find("traces"), nullptr);
    EXPECT_EQ(v.find("traces")->array().size(), 2u);
    EXPECT_DOUBLE_EQ(v.findPath("totals.warnings")->number(), 1.0);
    EXPECT_DOUBLE_EQ(v.findPath("totals.infos")->number(), 1.0);
    EXPECT_DOUBLE_EQ(v.findPath("totals.errors")->number(), 0.0);

    const json::Value &trace = v.find("traces")->array().front();
    const json::Value *diags =
        trace.find("report")->find("diagnostics");
    ASSERT_NE(diags, nullptr);
    ASSERT_EQ(diags->array().size(), 2u);
    EXPECT_EQ(diags->array()[0].find("rule")->str(),
              rules::narrowAccess);
    EXPECT_DOUBLE_EQ(diags->array()[0].find("wasted_bytes")->number(),
                     128.0);
}

TEST(Report, TextMentionsFindingsAndTotals)
{
    std::vector<LintEntry> entries;
    entries.push_back(makeEntry(
        "softmax",
        {makeDiag(rules::exposedLatency, Severity::Warning,
                  "softmax")}));
    entries.push_back(makeEntry("clean_kernel"));
    const std::string text = lintReportText(entries, false);
    EXPECT_NE(text.find("softmax"), std::string::npos);
    EXPECT_NE(text.find(rules::exposedLatency), std::string::npos);
    EXPECT_NE(text.find("OK  clean_kernel"), std::string::npos);
    EXPECT_NE(text.find("1 warnings"), std::string::npos);
}

TEST(Report, BaselineAcceptsItself)
{
    std::vector<LintEntry> entries;
    entries.push_back(makeEntry(
        "k", {makeDiag(rules::narrowAccess, Severity::Warning, "k"),
              makeDiag(rules::narrowAccess, Severity::Warning, "k")}));
    const json::Value baseline = baselineJson(entries);
    const BaselineCheck check =
        checkAgainstBaseline(entries, baseline);
    EXPECT_TRUE(check.ok) << check.failures.front();
}

TEST(Report, BaselineRejectsNewWarnings)
{
    std::vector<LintEntry> old_run;
    old_run.push_back(makeEntry(
        "k", {makeDiag(rules::narrowAccess, Severity::Warning, "k")}));
    const json::Value baseline = baselineJson(old_run);

    std::vector<LintEntry> new_run;
    new_run.push_back(makeEntry(
        "k", {makeDiag(rules::narrowAccess, Severity::Warning, "k"),
              makeDiag(rules::narrowAccess, Severity::Warning, "k")}));
    const BaselineCheck check =
        checkAgainstBaseline(new_run, baseline);
    EXPECT_FALSE(check.ok);
    ASSERT_EQ(check.failures.size(), 1u);
    EXPECT_NE(check.failures.front().find("narrow-access"),
              std::string::npos);
}

TEST(Report, BaselineRejectsUnknownKernel)
{
    const json::Value baseline = baselineJson({});
    std::vector<LintEntry> run;
    run.push_back(makeEntry(
        "brand_new",
        {makeDiag(rules::deadValue, Severity::Warning, "brand_new")}));
    EXPECT_FALSE(checkAgainstBaseline(run, baseline).ok);
}

TEST(Report, ErrorsAreNeverBaselined)
{
    std::vector<LintEntry> run;
    run.push_back(makeEntry(
        "k", {makeDiag(rules::invalidSsa, Severity::Error, "k")}));
    // Even a baseline generated from this very run fails it: errors
    // must be fixed, not ratcheted.
    const BaselineCheck check =
        checkAgainstBaseline(run, baselineJson(run));
    EXPECT_FALSE(check.ok);
}

TEST(Report, FewerWarningsThanBaselinePasses)
{
    std::vector<LintEntry> old_run;
    old_run.push_back(makeEntry(
        "k", {makeDiag(rules::narrowAccess, Severity::Warning, "k"),
              makeDiag(rules::narrowAccess, Severity::Warning, "k")}));
    const json::Value baseline = baselineJson(old_run);
    std::vector<LintEntry> improved;
    improved.push_back(makeEntry(
        "k", {makeDiag(rules::narrowAccess, Severity::Warning, "k")}));
    EXPECT_TRUE(checkAgainstBaseline(improved, baseline).ok);
}

// A document that is not a warnings baseline is an error naming the
// offending field, never a comparison against zero budgets.
TEST(Report, MalformedBaselineNamesTheField)
{
    struct Case
    {
        const char *doc;
        const char *malformed;
    };
    const Case cases[] = {
        {"[]", "document: expected an object"},
        {R"({"warnings":{}})",
         "schema: expected \"vespera-lint-baseline/v1\""},
        {R"({"schema":"vespera-lint-baseline/v1","warnings":[]})",
         "warnings: expected an object"},
        {R"({"schema":"vespera-lint-baseline/v1","warnings":{"k":1}})",
         "warnings.k: expected an object"},
    };
    for (const Case &c : cases) {
        json::Value doc;
        ASSERT_TRUE(json::parse(c.doc, doc)) << c.doc;
        const BaselineCheck check = checkAgainstBaseline({}, doc);
        EXPECT_FALSE(check.ok) << c.doc;
        EXPECT_EQ(check.malformed, c.malformed) << c.doc;
    }
    for (const char *count : {"-1", "1.5", "1e300", "\"2\"", "null"}) {
        const std::string text =
            std::string(R"({"schema":"vespera-lint-baseline/v1",)") +
            R"("warnings":{"k":{"narrow-access":)" + count + "}}}";
        json::Value doc;
        ASSERT_TRUE(json::parse(text, doc)) << text;
        EXPECT_EQ(checkAgainstBaseline({}, doc).malformed,
                  "warnings.k.narrow-access: expected a non-negative "
                  "integer count")
            << text;
    }
}

} // namespace
} // namespace vespera::analysis
