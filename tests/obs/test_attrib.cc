#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hw/gemm_cost.h"
#include "kern/gemm.h"
#include "mem/hbm.h"
#include "obs/attrib.h"
#include "obs/capture.h"
#include "obs/counters.h"
#include "obs/profiler.h"
#include "runtime/pool.h"
#include "runtime/sweep.h"

namespace vespera::obs {
namespace {

TEST(Attrib, CategoryNamesAreStable)
{
    // Exported as metric-name components; renames break baselines.
    EXPECT_STREQ(attribCatName(AttribCat::Compute), "compute");
    EXPECT_STREQ(attribCatName(AttribCat::MemoryBw), "memory_bw");
    EXPECT_STREQ(attribCatName(AttribCat::ExposedLat),
                 "exposed_latency");
    EXPECT_STREQ(attribCatName(AttribCat::Reconfig), "reconfig");
    EXPECT_STREQ(attribCatName(AttribCat::Idle), "idle");
}

TEST(Attrib, SettleSumsBitwiseExactly)
{
    // The core invariant: after settle(), sum() == total to the bit,
    // no matter how awkward the floating-point residues are.
    Rng rng(19);
    for (int trial = 0; trial < 2000; trial++) {
        AttribBreakdown b;
        b[AttribCat::Compute] = rng.uniform(0, 1e-2);
        b[AttribCat::MemoryBw] = rng.uniform(0, 1e-3);
        if (trial % 3 == 0)
            b[AttribCat::Idle] = rng.uniform(0, 1e-5);
        const double slack = rng.uniform(0, 1e-6);
        const double total = b.sum() + slack;
        b.settle(AttribCat::ExposedLat, total);
        ASSERT_EQ(b.sum(), total) << "trial " << trial;
        for (double c : b.seconds)
            ASSERT_GE(c, 0.0) << "trial " << trial;
    }
}

TEST(Attrib, SettleAbsorbsOvershootResidue)
{
    // Components can overshoot total by fp residue (sums computed two
    // ways); the residual clamps to 0 and the excess folds into the
    // largest component. This total is rounding-adversarial (not a sum
    // of the components), so the guarantee is the documented weaker
    // one: within one ulp. Model-produced totals settle bitwise
    // (SettleSumsBitwiseExactly, Fig5SweepSpansSumExactlyToDuration).
    AttribBreakdown b;
    b[AttribCat::Compute] = 0.1;
    b[AttribCat::MemoryBw] = 0.3;
    const double total = (0.1 + 0.3) * (1 - 1e-16);
    b.settle(AttribCat::ExposedLat, total);
    EXPECT_NEAR(b.sum(), total, total * 1e-15);
    EXPECT_EQ(b[AttribCat::ExposedLat], 0.0);
    EXPECT_GE(b[AttribCat::Compute], 0.0);
    EXPECT_GE(b[AttribCat::MemoryBw], 0.0);
}

TEST(Attrib, ScopeRegistrationIsIdempotent)
{
    auto &ledger = AttributionLedger::instance();
    const int a = ledger.scope("test_scope_a");
    EXPECT_EQ(ledger.scope("test_scope_a"), a);
    const int b = ledger.scope("test_scope_b");
    EXPECT_NE(a, b);
    const auto names = ledger.scopeNames();
    EXPECT_EQ(names[static_cast<std::size_t>(a)], "test_scope_a");
    EXPECT_EQ(names[static_cast<std::size_t>(b)], "test_scope_b");
    // Counters exist before any charge, so metrics docs are
    // shape-stable across runs that never hit a scope.
    auto &reg = CounterRegistry::instance();
    EXPECT_NE(reg.find("attrib.test_scope_a.compute"), nullptr);
    EXPECT_NE(reg.find("attrib.test_scope_a.ops"), nullptr);
}

TEST(Attrib, ChargeFeedsCountersWithoutProfiler)
{
    auto &ledger = AttributionLedger::instance();
    auto &reg = CounterRegistry::instance();
    Profiler::instance().setEnabled(false);
    ledger.clearRecords();

    const int sc = ledger.scope("test_scope_c");
    const double before = reg.counter("attrib.test_scope_c.compute").value();
    AttribBreakdown b;
    b[AttribCat::Compute] = 2e-3;
    b.settle(AttribCat::ExposedLat, 2.5e-3);
    ledger.charge(sc, "op", b);

    EXPECT_EQ(reg.counter("attrib.test_scope_c.compute").value() - before,
              2e-3);
    EXPECT_GE(reg.counter("attrib.test_scope_c.ops").value(), 1.0);
    // Per-op spans are trace-only; nothing recorded while disabled.
    for (const auto &rec : ledger.records())
        EXPECT_NE(rec.scope, sc);
}

// Under a sweep worker's capture the span is recorded at charge time;
// only the attrib.* counters, which the determinism contract covers,
// wait for the log's replay.
TEST(Attrib, ChargeUnderCaptureRecordsSpanAndDefersCounters)
{
    auto &ledger = AttributionLedger::instance();
    auto &reg = CounterRegistry::instance();
    Profiler &profiler = Profiler::instance();
    profiler.clear();
    profiler.setEnabled(true);
    ledger.clearRecords();

    const int sc = ledger.scope("test_scope_capture");
    Counter &compute = reg.counter("attrib.test_scope_capture.compute");
    Counter &ops = reg.counter("attrib.test_scope_capture.ops");
    const double compute0 = compute.value();
    const double ops0 = ops.value();
    AttribBreakdown b;
    b[AttribCat::Compute] = 3e-3;
    b.settle(AttribCat::ExposedLat, 4e-3);

    SideEffectLog log;
    {
        ScopedCapture capture(log);
        ledger.charge(sc, "captured op", b);
    }
    profiler.setEnabled(false);

    const auto recs = ledger.records();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].scope, sc);
    EXPECT_EQ(recs[0].name, "captured op");
    EXPECT_EQ(recs[0].start, 0.0);
    EXPECT_EQ(recs[0].duration, b.sum());
    int lane_spans = 0;
    for (const auto &sp : profiler.spans())
        lane_spans += sp.category == "attrib.test_scope_capture" ? 1 : 0;
    EXPECT_EQ(lane_spans, 1);
    EXPECT_EQ(compute.value(), compute0);
    EXPECT_EQ(ops.value(), ops0);

    log.replay();
    EXPECT_EQ(compute.value() - compute0, 3e-3);
    EXPECT_EQ(ops.value() - ops0, 1.0);
    EXPECT_EQ(ledger.records().size(), 1u);
    profiler.clear();
    ledger.clearRecords();
}

// The Fig. 5 sweep: every shape the figure evaluates, on both the MME
// (Gaudi-2) and tensor-core (A100) models. Acceptance criterion: for
// every attributed span the categories sum bitwise-exactly to the
// span's duration.
std::vector<hw::GemmShape>
fig5Shapes()
{
    const std::vector<std::int64_t> sizes = {512,  1024, 2048,
                                             4096, 8192, 16384};
    std::vector<hw::GemmShape> shapes;
    for (auto s : sizes)
        shapes.push_back({s, s, s}); // Fig. 5(a) square sweep.
    for (auto m : sizes)
        for (auto k : {m / 2, m})
            shapes.push_back({m, k, 16}); // Fig. 5(b) irregular, N=16.
    return shapes;
}

TEST(Attrib, Fig5SweepSpansSumExactlyToDuration)
{
    auto &ledger = AttributionLedger::instance();
    Profiler &profiler = Profiler::instance();
    profiler.clear();
    profiler.setEnabled(true);
    ledger.clearRecords();

    for (const auto &shape : fig5Shapes()) {
        (void)kern::runGemm(DeviceKind::Gaudi2, shape, DataType::BF16);
        (void)kern::runGemm(DeviceKind::A100, shape, DataType::BF16);
    }
    profiler.setEnabled(false);

    const auto recs = ledger.records();
    const auto names = ledger.scopeNames();
    // 18 shapes x 2 devices; GEMMs may also touch HBM scopes, so at
    // least the 36 matrix-engine ops must be present.
    ASSERT_GE(recs.size(), 36u);
    std::map<std::string, int> per_scope;
    for (const auto &rec : recs) {
        ASSERT_GE(rec.scope, 0);
        ASSERT_LT(static_cast<std::size_t>(rec.scope), names.size());
        per_scope[names[static_cast<std::size_t>(rec.scope)]]++;
        // THE invariant, bitwise: attributed categories == wall time.
        EXPECT_EQ(rec.breakdown.sum(), rec.duration) << rec.name;
        EXPECT_GT(rec.duration, 0.0) << rec.name;
        for (double c : rec.breakdown.seconds)
            EXPECT_GE(c, 0.0) << rec.name;
    }
    EXPECT_EQ(per_scope["mme"], 18);
    EXPECT_EQ(per_scope["tc"], 18);

    // Each record also landed on a profiler Device lane with the same
    // duration (the trace view and the ledger must agree).
    std::multimap<std::string, double> span_durs;
    for (const auto &sp : profiler.spans())
        if (sp.category.rfind("attrib.", 0) == 0)
            span_durs.insert({sp.name, sp.duration});
    for (const auto &rec : recs) {
        auto [lo, hi] = span_durs.equal_range(rec.name);
        bool matched = false;
        for (auto it = lo; it != hi; ++it)
            matched = matched || it->second == rec.duration;
        EXPECT_TRUE(matched) << rec.name;
    }
    profiler.clear();
    ledger.clearRecords();
}

TEST(Attrib, SweepChargesAreThreadCountInvariant)
{
    // Aggregate attribution rides the counter capture/replay contract:
    // the same sweep at 1 and 4 workers must add identical bits.
    auto &reg = CounterRegistry::instance();
    Profiler::instance().setEnabled(false);
    const auto shapes = fig5Shapes();

    auto run_once = [&]() {
        runtime::SweepRunner sweep("test.attrib.sweep");
        (void)sweep.map(shapes, [](const hw::GemmShape &s) {
            return kern::runGemm(DeviceKind::Gaudi2, s, DataType::BF16)
                .time;
        });
    };

    Counter &compute = reg.counter("attrib.mme.compute");
    Counter &reconfig = reg.counter("attrib.mme.reconfig");

    // Bitwise comparison needs both runs to start from the same bits:
    // fp addition rounds differently on different bases.
    auto zero = [&]() {
        compute.set(0);
        reconfig.set(0);
    };

    runtime::Pool::setGlobalThreads(1);
    zero();
    run_once();
    const double dc_serial = compute.value();
    const double dr_serial = reconfig.value();

    runtime::Pool::setGlobalThreads(4);
    zero();
    run_once();
    const double dc_par = compute.value();
    const double dr_par = reconfig.value();
    runtime::Pool::setGlobalThreads(1);

    EXPECT_GT(dc_serial, 0.0);
    EXPECT_EQ(dc_serial, dc_par);
    EXPECT_EQ(dr_serial, dr_par);
}

TEST(Attrib, HbmRandomAccessChargesExposedLatency)
{
    auto &ledger = AttributionLedger::instance();
    Profiler &profiler = Profiler::instance();
    profiler.clear();
    profiler.setEnabled(true);
    ledger.clearRecords();

    mem::HbmModel hbm(hw::deviceSpec(DeviceKind::Gaudi2));
    mem::RandomAccessWorkload w;
    w.accessSize = 64;
    w.numAccesses = 4096;
    w.concurrency = 24;
    (void)hbm.randomAccess(w);

    profiler.setEnabled(false);
    const auto recs = ledger.records();
    const auto names = ledger.scopeNames();
    bool saw_hbm = false;
    for (const auto &rec : recs) {
        if (names[static_cast<std::size_t>(rec.scope)] != "hbm")
            continue;
        saw_hbm = true;
        EXPECT_EQ(rec.breakdown.sum(), rec.duration);
        // The access-ramp latency shows up as exposed latency.
        EXPECT_GT(rec.breakdown[AttribCat::ExposedLat], 0.0);
    }
    EXPECT_TRUE(saw_hbm);
    profiler.clear();
    ledger.clearRecords();
}

} // namespace
} // namespace vespera::obs
