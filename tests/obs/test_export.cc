#include <gtest/gtest.h>

#include <cstdio>

#include "common/io.h"
#include "common/json.h"
#include "obs/export.h"

namespace vespera::obs {
namespace {

TEST(MetricsJson, RoundTripsThroughParser)
{
    CounterRegistry reg;
    reg.counter("mme.flops").add(1e12);
    reg.counter("kv.blocks_in_use").set(42);
    reg.counter("kv.blocks_in_use").set(17);
    reg.rate("hbm.stream_bytes_per_sec").add(2.4e9, 1e-3);

    MetricsMeta meta;
    meta.tool = "test_export";

    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(metricsJson(reg, meta), doc, &err)) << err;

    const json::Value *schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str(), metricsSchema);
    EXPECT_EQ(doc.find("tool")->str(), "test_export");

    const json::Value *flops =
        doc.findPath("counters.mme.flops");
    ASSERT_NE(flops, nullptr);
    EXPECT_DOUBLE_EQ(flops->find("value")->number(), 1e12);
    EXPECT_EQ(flops->find("updates")->number(), 1.0);

    const json::Value *kv =
        doc.findPath("counters.kv.blocks_in_use");
    ASSERT_NE(kv, nullptr);
    EXPECT_DOUBLE_EQ(kv->find("value")->number(), 17.0);
    EXPECT_DOUBLE_EQ(kv->find("peak")->number(), 42.0);

    const json::Value *rate =
        doc.findPath("rates.hbm.stream_bytes_per_sec");
    ASSERT_NE(rate, nullptr);
    EXPECT_DOUBLE_EQ(rate->find("total")->number(), 2.4e9);
    EXPECT_DOUBLE_EQ(rate->find("rate")->number(), 2.4e9 / 1e-3);
}

TEST(MetricsJson, EmptyRegistryStillSchemaValid)
{
    CounterRegistry reg;
    MetricsMeta meta;
    meta.tool = "empty";
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(metricsJson(reg, meta), doc, &err)) << err;
    EXPECT_EQ(doc.find("schema")->str(), metricsSchema);
    ASSERT_NE(doc.find("counters"), nullptr);
    EXPECT_TRUE(doc.find("counters")->isObject());
    EXPECT_TRUE(doc.find("counters")->object().empty());
}

TEST(ChromeTrace, SpansSamplesAndMetadataParse)
{
    Profiler p;
    p.nameTrack(TrackGroup::Device, 1, "MME");
    p.recordSpan("mm", "mme", 1, 1e-3, 2e-3);
    p.sample("mme.utilization", 1e-3, 85.0);

    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(chromeTraceJson(p), doc, &err)) << err;
    const json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    int numSpans = 0, numCounters = 0, numMeta = 0;
    for (const json::Value &e : events->array()) {
        const std::string &ph = e.find("ph")->str();
        if (ph == "X") {
            numSpans++;
            // Simulated seconds exported as microseconds.
            EXPECT_DOUBLE_EQ(e.find("ts")->number(), 1000.0);
            EXPECT_DOUBLE_EQ(e.find("dur")->number(), 2000.0);
            EXPECT_EQ(e.find("name")->str(), "mm");
        } else if (ph == "C") {
            numCounters++;
            EXPECT_EQ(e.find("name")->str(), "mme.utilization");
            EXPECT_DOUBLE_EQ(e.findPath("args.value")->number(), 85.0);
        } else if (ph == "M") {
            numMeta++;
        }
    }
    EXPECT_EQ(numSpans, 1);
    EXPECT_EQ(numCounters, 1);
    EXPECT_GE(numMeta, 2); // process_name + the "MME" thread_name.
}

TEST(ChromeTrace, HostSpansLandOnHostTrackGroup)
{
    Profiler p;
    SpanEvent host;
    host.name = "engine.run";
    host.category = "host";
    host.group = TrackGroup::Host;
    host.track = 7;
    host.start = 0;
    host.duration = 0.25;
    p.recordSpan(host);

    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(chromeTraceJson(p), doc, &err)) << err;
    bool found = false;
    for (const json::Value &e : doc.find("traceEvents")->array()) {
        if (e.find("ph")->str() != "X")
            continue;
        found = true;
        EXPECT_EQ(int(e.find("pid")->number()), int(TrackGroup::Host));
        EXPECT_EQ(int(e.find("tid")->number()), 7);
    }
    EXPECT_TRUE(found);
}

/**
 * Golden-file round trip: write the metrics document to disk, read it
 * back, parse, re-serialize, parse again — both parses must agree on
 * the values. Guards against exporter/parser drift.
 */
TEST(MetricsJson, GoldenFileRoundTrip)
{
    CounterRegistry reg;
    reg.counter("engine.steps").add(9);
    reg.counter("tpc.stall_cycles").add(1234.5);
    MetricsMeta meta;
    meta.tool = "golden";

    const std::string path = "/tmp/vespera_test_metrics.json";
    ASSERT_TRUE(writeFile(path, metricsJson(reg, meta)));
    std::string back;
    ASSERT_TRUE(readFile(path, back));
    std::remove(path.c_str());

    json::Value first;
    ASSERT_TRUE(json::parse(back, first, nullptr));
    json::Value second;
    ASSERT_TRUE(json::parse(json::serialize(first), second, nullptr));
    EXPECT_DOUBLE_EQ(
        second.findPath("counters.engine.steps")->find("value")->number(),
        9.0);
    EXPECT_DOUBLE_EQ(second.findPath("counters.tpc.stall_cycles")
                         ->find("value")
                         ->number(),
                     1234.5);
    EXPECT_EQ(second.find("schema")->str(), metricsSchema);
}

/// printCounterSummary's output for `reg`.
std::string
summaryText(const CounterRegistry &reg)
{
    std::FILE *f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    if (f == nullptr)
        return {};
    printCounterSummary(reg, f);
    std::rewind(f);
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

TEST(CounterSummary, PrintsNonzeroCountersOnly)
{
    CounterRegistry reg;
    reg.counter("visible.count").add(3);
    reg.counter("zero.count"); // Never updated; must be omitted.

    const std::string text = summaryText(reg);

    EXPECT_NE(text.find("visible.count"), std::string::npos);
    EXPECT_EQ(text.find("zero.count"), std::string::npos);
}

// Host telemetry varies with --threads; the summary's device table
// leaves it out through the same predicate the metrics document uses.
TEST(CounterSummary, OmitsHostTelemetry)
{
    EXPECT_TRUE(isHostTelemetry("runtime.tasks"));
    EXPECT_TRUE(isHostTelemetry("replay.step.hits"));
    EXPECT_FALSE(isHostTelemetry("tpc.cycles"));
    EXPECT_FALSE(isHostTelemetry("engine.replay.steps"));

    CounterRegistry reg;
    reg.counter("tpc.cycles").add(3);
    reg.counter("runtime.tasks").add(5);
    reg.counter("replay.step.hits").add(7);

    const std::string text = summaryText(reg);

    EXPECT_NE(text.find("tpc.cycles"), std::string::npos);
    EXPECT_EQ(text.find("runtime.tasks"), std::string::npos);
    EXPECT_EQ(text.find("replay.step.hits"), std::string::npos);
}

} // namespace
} // namespace vespera::obs
