#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "kern/gemm.h"
#include "obs/hist.h"
#include "obs/timeline.h"

namespace vespera::obs {
namespace {

// The timeline contract: virtual-time series are a pure function of
// the simulated schedule — fixed-memory rings, windowed reset
// semantics, first-violation SLO stamps, by-value run payloads — and
// cost one relaxed atomic load per run when off. Publication order
// across a parallel sweep is covered by EngineGolden.*
// (tests/serve/test_engine.cc).

class TimelineTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto &tl = Timeline::instance();
        tl.setEnabled(false);
        tl.reset();
        tl.clearSlos();
        tl.setInterval(1.0);
        tl.setCapacity(512);
    }

    void
    TearDown() override
    {
        SetUp(); // leave the singleton as other suites expect it
    }
};

TEST_F(TimelineTest, SeriesRingKeepsLatestAndCountsDrops)
{
    TimelineSeries s("g", 3);
    for (int i = 0; i < 5; i++)
        s.append(i * 0.5, i * 10.0);
    EXPECT_EQ(s.size(), 3u);
    EXPECT_EQ(s.total(), 5u);
    EXPECT_EQ(s.dropped(), 2u);
    const auto kept = s.samples();
    ASSERT_EQ(kept.size(), 3u);
    // Oldest-first, and the *oldest* samples are the ones dropped.
    EXPECT_DOUBLE_EQ(kept[0].t, 1.0);
    EXPECT_DOUBLE_EQ(kept[0].value, 20.0);
    EXPECT_DOUBLE_EQ(kept[2].t, 2.0);
    EXPECT_DOUBLE_EQ(kept[2].value, 40.0);
}

TEST_F(TimelineTest, RecorderWindowResetSemantics)
{
    TimelineRecorder rec(0.5, 64, {});
    const int g_set = rec.gaugeId("level");
    const int g_add = rec.gaugeId("delta");
    const int g_max = rec.gaugeId("high_water");
    rec.set(g_set, 7.0);
    rec.add(g_add, 2.0);
    rec.add(g_add, 3.0);
    rec.max(g_max, 4.0);
    rec.max(g_max, 1.0); // below the running max: ignored
    rec.closeWindow();
    // Second window: nothing recorded at all.
    rec.closeWindow();

    const auto data = rec.snapshot();
    ASSERT_EQ(data.series.size(), 3u);
    auto find = [&](const std::string &name) {
        for (const auto &s : data.series)
            if (s.gauge == name)
                return s;
        ADD_FAILURE() << "missing series " << name;
        return data.series[0];
    };
    const auto level = find("level");
    ASSERT_EQ(level.samples.size(), 2u);
    EXPECT_DOUBLE_EQ(level.samples[0].t, 0.5); // stamped at window end
    EXPECT_DOUBLE_EQ(level.samples[0].value, 7.0);
    EXPECT_DOUBLE_EQ(level.samples[1].value, 7.0); // Keep: carries
    const auto delta = find("delta");
    EXPECT_DOUBLE_EQ(delta.samples[0].value, 5.0);
    EXPECT_DOUBLE_EQ(delta.samples[1].value, 0.0); // Zero: cleared
    const auto hw = find("high_water");
    EXPECT_DOUBLE_EQ(hw.samples[0].value, 4.0);
    EXPECT_DOUBLE_EQ(hw.samples[1].value, 0.0);
}

TEST_F(TimelineTest, RecorderTrailingPartialWindow)
{
    TimelineRecorder rec(1.0, 64, {});
    const int g = rec.gaugeId("g");
    rec.set(g, 1.0);
    rec.closeWindow();
    // Run ends mid-window: the partial window is emitted at the actual
    // end time, not at the never-reached boundary.
    rec.set(g, 2.0);
    rec.closeFinal(1.25);
    const auto data = rec.snapshot();
    ASSERT_EQ(data.series[0].samples.size(), 2u);
    EXPECT_DOUBLE_EQ(data.series[0].samples[1].t, 1.25);
    EXPECT_DOUBLE_EQ(data.series[0].samples[1].value, 2.0);

    // A run ending exactly on a boundary adds no empty extra window.
    TimelineRecorder exact(1.0, 64, {});
    exact.gaugeId("g");
    exact.closeWindow();
    exact.closeFinal(1.0);
    EXPECT_EQ(exact.snapshot().series[0].samples.size(), 1u);
}

TEST_F(TimelineTest, SloRecordsFirstViolationOnly)
{
    TimelineRecorder rec(1.0, 64, {SloSpec{"lat", 2.0}});
    const int g = rec.gaugeId("lat");
    rec.set(g, 1.5);
    rec.closeWindow(); // under the bound
    rec.set(g, 2.5);
    rec.closeWindow(); // first violation, t=2
    rec.set(g, 9.0);
    rec.closeWindow(); // worse, but not *first*
    const auto data = rec.snapshot();
    ASSERT_EQ(data.slos.size(), 1u);
    EXPECT_TRUE(data.slos[0].violated);
    EXPECT_DOUBLE_EQ(data.slos[0].firstViolationT, 2.0);
    EXPECT_DOUBLE_EQ(data.slos[0].firstViolationValue, 2.5);

    // Exactly at the bound is not a violation (bound is inclusive).
    TimelineRecorder ok(1.0, 64, {SloSpec{"lat", 2.0}});
    ok.set(ok.gaugeId("lat"), 2.0);
    ok.closeWindow();
    EXPECT_FALSE(ok.snapshot().slos[0].violated);
}

TEST_F(TimelineTest, SingletonFloodGuardDropsWholeSeries)
{
    auto &tl = Timeline::instance();
    tl.setEnabled(true);
    TimelineRunData data;
    data.interval = 1.0;
    data.series.push_back({"g", 0, {{1.0, 1.0}}});
    for (std::size_t i = 0; i < Timeline::kMaxSeries + 5; i++)
        tl.publishRun("", data);
    EXPECT_EQ(tl.series().size(), Timeline::kMaxSeries);
    EXPECT_EQ(tl.droppedSeries(), 5u);
    tl.reset();
    EXPECT_FALSE(tl.hasData());
    EXPECT_EQ(tl.droppedSeries(), 0u);
}

// ---------------------------------------------------------------------------
// Histogram::diff — the delta behind the windowed p99 gauges.

TEST_F(TimelineTest, HistogramDiffIsTheWindowDelta)
{
    Histogram now("ttft"), earlier("ttft.prev");
    for (int i = 1; i <= 20; i++)
        earlier.add(i * 1e-3);
    now.merge(earlier);
    for (int i = 1; i <= 10; i++)
        now.add(i * 1e-2); // this window's samples
    const Histogram d = now.diff(earlier);
    EXPECT_EQ(d.count(), 10u);
    EXPECT_NEAR(d.sum(), 0.55, 1e-12);
    // The delta's percentile sees only the new samples: p99 of the
    // window is near 0.1s, far above the 20ms tail of the old ones.
    EXPECT_GT(d.percentile(99), 0.05);
    // Empty delta (no new samples): a well-formed zero histogram.
    const Histogram z = now.diff(now);
    EXPECT_EQ(z.count(), 0u);
    EXPECT_DOUBLE_EQ(z.percentile(99), 0.0);
}

TEST(TimelineDeathTest, HistogramDiffMismatchedLayoutsFails)
{
    Histogram def("default.layout");
    Histogram coarse("coarse.layout", Histogram::Layout{1e-6, 4, 32});
    EXPECT_DEATH(def.diff(coarse), "mismatched bucket layouts");
}

TEST(TimelineDeathTest, HistogramDiffRequiresEarlierSnapshot)
{
    // `earlier` holds samples `now` never saw: not a snapshot, and the
    // subtraction would go negative — must fail loudly.
    Histogram now("now"), earlier("earlier");
    now.add(1e-3);
    earlier.add(1e-3);
    earlier.add(2e-3);
    EXPECT_DEATH(now.diff(earlier), "not an earlier snapshot");
}

// ---------------------------------------------------------------------------
// Disabled cost: one relaxed atomic load, bounded against real work
// (same harness as SelfProfTest.DisabledTimerCostIsNegligible).

TEST_F(TimelineTest, DisabledCheckCostIsNegligible)
{
    ASSERT_FALSE(Timeline::instance().enabled());
    const hw::GemmShape shape{1024, 1024, 1024};
    constexpr int kChecks = 1000000;
    constexpr int kGemms = 200;
    constexpr int kTrials = 5;

    auto min_over_trials = [&](auto body) {
        double best = 1e300;
        for (int t = 0; t < kTrials; t++) {
            const auto t0 = std::chrono::steady_clock::now();
            body();
            const auto t1 = std::chrono::steady_clock::now();
            best = std::min(
                best, std::chrono::duration<double>(t1 - t0).count());
        }
        return best;
    };

    volatile int sink = 0;
    const double check_loop = min_over_trials([&] {
        int n = 0;
        for (int i = 0; i < kChecks; i++)
            n += Timeline::instance().enabled() ? 1 : 0;
        sink = n;
    });
    const double gemm_loop = min_over_trials([&] {
        for (int i = 0; i < kGemms; i++) {
            auto c = kern::runGemm(DeviceKind::Gaudi2, shape,
                                   DataType::BF16);
            (void)c;
        }
    });

    const double per_check = check_loop / kChecks;
    const double per_gemm = gemm_loop / kGemms;
    EXPECT_LT(per_check, 0.01 * per_gemm)
        << "disabled Timeline check costs " << per_check * 1e9
        << " ns vs GEMM eval " << per_gemm * 1e9 << " ns";
}

} // namespace
} // namespace vespera::obs
