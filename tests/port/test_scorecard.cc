/**
 * @file
 * Tier-1 tests of the migration scorecard (analysis/migrate/): golden
 * parity / achieved-fraction pins for three representative kernels,
 * the ISSUE acceptance invariants over the full scorecard JSON
 * (>= 15 kernels at parity; every kernel under 90% of hand performance
 * carries at least one migration-aware finding with a fix hint), and
 * the baseline ratchet's regression semantics.
 */

#include <gtest/gtest.h>

#include <string>

#include "analysis/migrate/migrate_report.h"
#include "analysis/migrate/scorecard.h"
#include "common/json.h"

namespace vespera::analysis {
namespace {

MigrateEntry
migrateByName(const char *name)
{
    const port::CorpusEntry *e = port::findCorpusEntry(name);
    EXPECT_NE(e, nullptr) << name;
    MigrateOptions opt;
    opt.exportCounters = false;
    return migrateKernel(*e, opt);
}

// Golden pins: the scorecard's headline numbers for three kernels that
// span the migration-quality range. The bands are wide enough to
// absorb cost-model tweaks but tight enough that a lowering or
// comparator regression moves a kernel out of its band.
TEST(Scorecard, GoldenSaxpy)
{
    const MigrateEntry e = migrateByName("port_saxpy");
    EXPECT_TRUE(e.parity);
    EXPECT_EQ(e.maxRelError, 0.0);
    EXPECT_GT(e.achievedFraction, 0.60);
    EXPECT_LT(e.achievedFraction, 0.85);
    EXPECT_GT(e.portedCycles, 0.0);
}

TEST(Scorecard, GoldenGather)
{
    // Data-dependent addressing shatters into per-lane transactions:
    // the worst migration outcome in the corpus.
    const MigrateEntry e = migrateByName("port_gather");
    EXPECT_TRUE(e.parity);
    EXPECT_LT(e.achievedFraction, 0.30);
}

TEST(Scorecard, GoldenTunedSaxpyReachesHandParity)
{
    const MigrateEntry e = migrateByName("port_saxpy_tuned");
    EXPECT_TRUE(e.parity);
    EXPECT_GT(e.achievedFraction, 0.97);
    // Nothing left for the migration passes to flag.
    int migration = 0;
    for (const Diagnostic &d : e.analysis.report.diagnostics)
        migration += isMigrationRule(d.rule) ? 1 : 0;
    EXPECT_EQ(migration, 0);
}

// The ISSUE acceptance criteria, enforced over the JSON document the
// CI job publishes (not over internal structs), so the schema carries
// everything the invariant needs.
TEST(Scorecard, AcceptanceInvariantsOverJson)
{
    MigrateOptions opt;
    opt.exportCounters = false;
    const std::vector<MigrateEntry> entries = runMigrationCorpus(opt);
    const json::Value doc = migrateReportJson(entries);

    const json::Value *schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str(), "vespera-lint-migrate/v1");

    const json::Value *kernels = doc.find("kernels");
    ASSERT_NE(kernels, nullptr);
    ASSERT_TRUE(kernels->isArray());
    EXPECT_GE(kernels->array().size(), 15u);

    int parity_passes = 0;
    for (const json::Value &k : kernels->array()) {
        const std::string name = k.find("kernel")->str();
        const bool parity = k.find("parity")->boolean();
        const double fraction =
            k.find("achieved_fraction")->number();
        const double migration =
            k.find("migration_findings")->number();
        if (parity)
            parity_passes++;
        if (fraction < 0.9) {
            EXPECT_GE(migration, 1.0)
                << name << " is at " << fraction
                << " of hand performance with no migration-aware "
                   "finding explaining the gap";
        }
        // Every migration finding must carry a usable fix hint.
        for (const json::Value &f : k.find("findings")->array()) {
            if (f.find("migration")->boolean()) {
                EXPECT_FALSE(f.find("fix_hint")->str().empty())
                    << name << ": " << f.find("rule")->str();
            }
        }
    }
    EXPECT_GE(parity_passes, 15);

    const json::Value *totals = doc.find("totals");
    ASSERT_NE(totals, nullptr);
    EXPECT_EQ(totals->find("kernels")->number(),
              static_cast<double>(entries.size()));
    EXPECT_EQ(totals->find("parity_failures")->number(), 0.0);
}

// The ratchet: a self-baseline passes; losing parity or dropping the
// achieved fraction beyond the slack fails with the kernel named.
TEST(Scorecard, BaselineRatchetSemantics)
{
    std::vector<MigrateEntry> entries;
    MigrateEntry a;
    a.kernel = "k_a";
    a.parity = true;
    a.achievedFraction = 0.80;
    MigrateEntry b;
    b.kernel = "k_b";
    b.parity = true;
    b.achievedFraction = 0.95;
    entries = {a, b};
    const json::Value baseline = migrateBaselineJson(entries);

    EXPECT_TRUE(checkMigrateBaseline(entries, baseline).ok);

    // Improvements pass.
    entries[0].achievedFraction = 0.90;
    EXPECT_TRUE(checkMigrateBaseline(entries, baseline).ok);

    // A drop inside the slack passes; beyond it fails.
    entries[0].achievedFraction = 0.79;
    EXPECT_TRUE(checkMigrateBaseline(entries, baseline).ok);
    entries[0].achievedFraction = 0.70;
    BaselineCheck check = checkMigrateBaseline(entries, baseline);
    EXPECT_FALSE(check.ok);
    ASSERT_EQ(check.failures.size(), 1u);
    EXPECT_NE(check.failures[0].find("k_a"), std::string::npos);

    // Parity loss fails regardless of fraction.
    entries[0].achievedFraction = 0.80;
    entries[0].parity = false;
    EXPECT_FALSE(checkMigrateBaseline(entries, baseline).ok);

    // A kernel absent from the baseline must at least pass parity.
    MigrateEntry fresh;
    fresh.kernel = "k_new";
    fresh.parity = false;
    entries = {a, b, fresh};
    EXPECT_FALSE(checkMigrateBaseline(entries, baseline).ok);
    entries[2].parity = true;
    EXPECT_TRUE(checkMigrateBaseline(entries, baseline).ok);
}

// A document that is not a migrate baseline is an error naming the
// offending field, never a run with every kernel treated as new.
TEST(Scorecard, MalformedBaselineNamesTheField)
{
    const char *schema = R"("schema":"vespera-lint-migrate-baseline/v1")";
    struct Case
    {
        std::string doc;
        const char *malformed;
    };
    const Case cases[] = {
        {R"({"kernels":{}})",
         "schema: expected \"vespera-lint-migrate-baseline/v1\""},
        {std::string("{") + schema + "}", "kernels: expected an object"},
        {std::string("{") + schema + R"(,"kernels":{"k":[]}})",
         "kernels.k: expected an object"},
        {std::string("{") + schema +
             R"(,"kernels":{"k":{"achieved_fraction":0.5}}})",
         "kernels.k.parity: expected true or false"},
        {std::string("{") + schema +
             R"(,"kernels":{"k":{"parity":true,"achieved_fraction":"x"}}})",
         "kernels.k.achieved_fraction: expected a number"},
    };
    for (const Case &c : cases) {
        json::Value doc;
        ASSERT_TRUE(json::parse(c.doc, doc)) << c.doc;
        const BaselineCheck check = checkMigrateBaseline({}, doc);
        EXPECT_FALSE(check.ok) << c.doc;
        EXPECT_EQ(check.malformed, c.malformed) << c.doc;
    }
}

} // namespace
} // namespace vespera::analysis
