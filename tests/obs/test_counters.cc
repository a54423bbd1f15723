#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/capture.h"
#include "obs/counters.h"

namespace vespera::obs {
namespace {

TEST(Counter, AddAccumulatesAndTracksPeak)
{
    Counter c("x");
    c.add();
    c.add(2.5);
    EXPECT_DOUBLE_EQ(c.value(), 3.5);
    EXPECT_DOUBLE_EQ(c.peak(), 3.5);
    EXPECT_EQ(c.updates(), 2u);
    EXPECT_EQ(c.name(), "x");
}

TEST(Counter, SetIsGaugeWithHighWaterMark)
{
    Counter c("gauge");
    c.set(10);
    c.set(4);
    EXPECT_DOUBLE_EQ(c.value(), 4.0);
    EXPECT_DOUBLE_EQ(c.peak(), 10.0);
    c.set(12);
    EXPECT_DOUBLE_EQ(c.peak(), 12.0);
}

TEST(Counter, ResetZeroesEverything)
{
    Counter c("r");
    c.add(7);
    c.reset();
    EXPECT_DOUBLE_EQ(c.value(), 0.0);
    EXPECT_DOUBLE_EQ(c.peak(), 0.0);
    EXPECT_EQ(c.updates(), 0u);
}

/** value, peak and update count, for whole-state comparisons. */
std::vector<double>
state(const Counter &c)
{
    return {c.value(), c.peak(), static_cast<double>(c.updates())};
}

// add(v, n) and set(v, n) stand for n single calls: the same value,
// peak and update count, whatever counter state they start from.
TEST(Counter, BatchedUpdatesEqualSingleCalls)
{
    Counter single("single"), batched("batched");
    for (Counter *c : {&single, &batched}) {
        c->set(50);
        c->set(20);
    }
    for (double v : {3.0, 0.0, 5.0, 1.0})
        single.add(v);
    batched.add(9, 4);
    EXPECT_EQ(state(batched), state(single));

    // A gauge series published as set(max, n-1) then set(last, 1).
    for (double v : {40.0, 70.0, 65.0, 30.0})
        single.set(v);
    batched.set(70, 3);
    batched.set(30, 1);
    EXPECT_EQ(state(batched), state(single));
    EXPECT_EQ(batched.peak(), 70.0);

    // n = 0 records nothing, not even a peak.
    batched.set(1000, 0);
    batched.add(1000, 0);
    EXPECT_EQ(state(batched), state(single));
}

TEST(Counter, DefaultCountIsOneUpdate)
{
    Counter c("d");
    c.add(2);
    c.set(1);
    EXPECT_EQ(c.updates(), 2u);
    EXPECT_EQ(c.value(), 1.0);
    EXPECT_EQ(c.peak(), 2.0);
}

// The update count rides the capture op, so a replayed batch, nested
// or not, lands exactly like a live one.
TEST(Counter, BatchedUpdatesReplayThroughNestedCaptures)
{
    Counter live("live"), replayed("replayed");
    auto publish = [](Counter &c) {
        c.add(12, 3);
        c.set(4, 2);
        c.add(6, 0);
        c.set(9, 1);
    };
    publish(live);

    SideEffectLog outer;
    {
        ScopedCapture outer_capture(outer);
        SideEffectLog inner;
        {
            ScopedCapture inner_capture(inner);
            publish(replayed);
        }
        inner.replay(); // Lands in the outer log, counts intact.
        EXPECT_EQ(replayed.updates(), 0u);
    }
    EXPECT_EQ(replayed.updates(), 0u);
    outer.replay();
    EXPECT_EQ(state(replayed), state(live));
    EXPECT_EQ(live.updates(), 6u);
    EXPECT_EQ(live.peak(), 12.0);
    EXPECT_EQ(live.value(), 9.0);
}

TEST(Counter, ConcurrentAddLosesNothing)
{
    Counter c("hot");
    constexpr int numThreads = 8;
    constexpr int perThread = 10000;
    std::vector<std::thread> threads;
    for (int i = 0; i < numThreads; i++) {
        threads.emplace_back([&c] {
            for (int j = 0; j < perThread; j++)
                c.add(1.0);
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_DOUBLE_EQ(c.value(), double(numThreads) * perThread);
    EXPECT_EQ(c.updates(), std::uint64_t(numThreads) * perThread);
}

TEST(RateMeter, RateIsTotalOverElapsed)
{
    RateMeter m("bw");
    EXPECT_DOUBLE_EQ(m.rate(), 0.0);
    m.add(100.0, 2.0);
    m.add(50.0, 1.0);
    EXPECT_DOUBLE_EQ(m.total(), 150.0);
    EXPECT_DOUBLE_EQ(m.elapsed(), 3.0);
    EXPECT_DOUBLE_EQ(m.rate(), 50.0);
    m.reset();
    EXPECT_DOUBLE_EQ(m.rate(), 0.0);
}

TEST(CounterRegistry, GetOrCreateReturnsStableReference)
{
    CounterRegistry reg;
    Counter &a = reg.counter("mme.flops");
    Counter &b = reg.counter("mme.flops");
    EXPECT_EQ(&a, &b);
    a.add(5);
    EXPECT_DOUBLE_EQ(reg.counter("mme.flops").value(), 5.0);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(CounterRegistry, FindDoesNotCreate)
{
    CounterRegistry reg;
    EXPECT_EQ(reg.find("nope"), nullptr);
    EXPECT_EQ(reg.findRate("nope"), nullptr);
    reg.counter("yes").add(1);
    ASSERT_NE(reg.find("yes"), nullptr);
    EXPECT_DOUBLE_EQ(reg.find("yes")->value(), 1.0);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(CounterRegistry, RollupSumsDottedSubtree)
{
    CounterRegistry reg;
    reg.counter("mme").add(1);
    reg.counter("mme.flops").add(10);
    reg.counter("mme.cfg.reconfigs").add(100);
    reg.counter("mmex.other").add(1000); // Not in the subtree.
    reg.counter("tpc.cycles").add(7);
    EXPECT_DOUBLE_EQ(reg.rollup("mme"), 111.0);
    EXPECT_DOUBLE_EQ(reg.rollup("mme.cfg"), 100.0);
    EXPECT_DOUBLE_EQ(reg.rollup("absent"), 0.0);
}

TEST(CounterRegistry, SnapshotIsNameOrdered)
{
    CounterRegistry reg;
    reg.counter("b").add(2);
    reg.counter("a").add(1);
    reg.counter("c").set(3);
    auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "a");
    EXPECT_EQ(snap[1].name, "b");
    EXPECT_EQ(snap[2].name, "c");
    EXPECT_DOUBLE_EQ(snap[1].value, 2.0);
    EXPECT_EQ(snap[0].updates, 1u);
}

TEST(CounterRegistry, ResetZeroesButKeepsNames)
{
    CounterRegistry reg;
    Counter &c = reg.counter("kv.blocks_in_use");
    c.set(42);
    reg.rate("hbm.bw").add(10, 1);
    reg.reset();
    EXPECT_EQ(&reg.counter("kv.blocks_in_use"), &c);
    EXPECT_DOUBLE_EQ(c.value(), 0.0);
    EXPECT_DOUBLE_EQ(c.peak(), 0.0);
    ASSERT_NE(reg.findRate("hbm.bw"), nullptr);
    EXPECT_DOUBLE_EQ(reg.findRate("hbm.bw")->total(), 0.0);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(CounterRegistry, ConcurrentRegistrationAndAddIsSafe)
{
    CounterRegistry reg;
    constexpr int numThreads = 8;
    constexpr int perThread = 2000;
    std::vector<std::thread> threads;
    for (int i = 0; i < numThreads; i++) {
        threads.emplace_back([&reg] {
            for (int j = 0; j < perThread; j++)
                reg.counter("shared.hits").add(1.0);
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_DOUBLE_EQ(reg.counter("shared.hits").value(),
                     double(numThreads) * perThread);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(CounterRegistry, ProcessWideInstanceIsSingleton)
{
    EXPECT_EQ(&CounterRegistry::instance(), &CounterRegistry::instance());
}

} // namespace
} // namespace vespera::obs
