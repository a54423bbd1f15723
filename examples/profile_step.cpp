/**
 * @file
 * Profiler scenario: the counter-annotated Perfetto view the paper's
 * authors reasoned from (Section 3.2). One run produces a single trace
 * containing
 *   - op-level spans of a Llama decode step (MME/TPC/comm lanes),
 *   - engine iteration spans of a short serving run,
 *   - counter tracks: MME utilization, achieved HBM bandwidth, KV
 *     blocks in use, decode batch size, and TPC stall cycles,
 *   - host-side ScopedSpan timings of the simulator itself,
 * plus a vespera-metrics/v2 JSON document of all device counters.
 *
 * Run: ./build/examples/profile_step
 * Then open /tmp/vespera_profile.json at ui.perfetto.dev.
 */

#include <cstdio>

#include "common/io.h"
#include "common/table.h"
#include "kern/stream.h"
#include "obs/export.h"
#include "serve/tracing.h"

using namespace vespera;

namespace {

void
printTimeline(const char *title, const graph::ExecutionReport &rep)
{
    printHeading(title);
    Table t({"Op", "Engine", "Start (us)", "Duration (us)"});
    for (const auto &e : rep.timeline) {
        const char *engine = "";
        switch (e.kind) {
          case graph::OpKind::MatMul:
            engine = "MME";
            break;
          case graph::OpKind::Elementwise:
          case graph::OpKind::Normalization:
            engine = "TPC";
            break;
          case graph::OpKind::AllReduce:
            engine = "RoCE";
            break;
          case graph::OpKind::Custom:
            engine = "MME+TPC";
            break;
          case graph::OpKind::Input:
            continue;
        }
        t.addRow({e.name, engine, Table::num(e.start * 1e6, 1),
                  Table::num(e.duration * 1e6, 1)});
    }
    t.print();
    std::printf("Total %.1f us; %.1f us hidden by MME-TPC pipelining\n",
                rep.time * 1e6, rep.overlapSaved * 1e6);
}

} // namespace

int
main()
{
    obs::Profiler &profiler = obs::Profiler::instance();
    profiler.setEnabled(true);

    models::LlamaModel model(models::LlamaConfig::llama31_8b());
    models::LlamaServingConfig cfg;
    cfg.tpDevices = 2;

    // One decoder layer + LM head, decode step, batch 32, ctx 2048.
    // The executor samples mme.utilization and hbm.bandwidth_gbps
    // counter tracks while it places the op spans.
    graph::ExecutionReport rep;
    {
        obs::ScopedSpan span("llama.stepReport");
        rep = model.stepReport(DeviceKind::Gaudi2, 32, 1, 2048, false,
                               cfg);
    }
    printTimeline("Llama-8B decode step (batch 32, ctx 2048, TP=2)",
                  rep);
    serve::recordTimeline(profiler, rep.timeline);

    // A short serving run: engine iteration spans plus the
    // kv.blocks_in_use and engine.decode_batch counter tracks.
    serve::EngineConfig ecfg;
    ecfg.device = DeviceKind::Gaudi2;
    ecfg.maxDecodeBatch = 8;
    ecfg.chunkedPrefillTokens = 256;
    ecfg.recordEvents = true;
    serve::Engine engine(model, ecfg);
    Rng rng(3);
    serve::TraceConfig tc;
    tc.numRequests = 12;
    tc.maxOutputLen = 64;
    serve::ServingMetrics metrics;
    {
        obs::ScopedSpan span("engine.run");
        metrics = engine.run(serve::makeDynamicTrace(tc, rng));
    }
    serve::publish(metrics);
    std::printf("\nServing run: %zu engine iterations, %.0f tok/s, "
                "mean TTFT %.2f s\n",
                engine.events().size(),
                metrics.throughputTokensPerSec, metrics.meanTtft);
    serve::recordEngineEvents(profiler, engine.events());

    // A STREAM TRIAD kernel on one simulated TPC: the VLIW pipeline
    // samples its cumulative tpc.stall_cycles counter track.
    {
        obs::ScopedSpan span("tpc.stream_triad");
        kern::StreamConfig sc;
        sc.op = kern::StreamOp::Triad;
        sc.numElements = 1u << 16;
        sc.numTpcs = 1;
        (void)kern::runStreamGaudi(sc);
    }

    profiler.setEnabled(false);

    const char *trace_path = "/tmp/vespera_profile.json";
    if (!writeFile(trace_path, obs::chromeTraceJson(profiler)))
        std::fprintf(stderr, "cannot write %s\n", trace_path);
    std::printf("\nCounter tracks recorded:");
    for (const std::string &track : profiler.sampledTracks())
        std::printf(" %s", track.c_str());
    std::printf("\nWrote %s (open at ui.perfetto.dev)\n", trace_path);

    const char *metrics_path = "/tmp/vespera_metrics.json";
    obs::MetricsMeta meta;
    meta.tool = "profile_step";
    if (!writeFile(metrics_path,
                   obs::metricsJson(obs::CounterRegistry::instance(),
                                    meta))) {
        std::fprintf(stderr, "cannot write %s\n", metrics_path);
    }
    std::printf("Wrote %s\n", metrics_path);

    obs::printCounterSummary(obs::CounterRegistry::instance());
    return 0;
}
