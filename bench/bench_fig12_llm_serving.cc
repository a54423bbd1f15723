/**
 * @file
 * Regenerates Figure 12: (a) Gaudi-2's speedup over A100 serving
 * Llama-3.1-8B on one device and Llama-3.1-70B over 2/4/8 devices
 * with tensor parallelism, across batch sizes and output lengths
 * (input fixed at 100); (b) prefill/decode latency breakdown for the
 * 8B model at batch 64.
 *
 * Paper anchors: 8B single-device average speedup 1.47x (max 1.70x);
 * 70B TP=2/4/8 averages 1.29/1.32/1.35x, growing with device count.
 */

#include <cstdio>

#include "common/stats.h"
#include "common/logging.h"
#include "common/table.h"
#include "common/units.h"
#include "models/llama.h"
#include "obs/timeline.h"
#include "runtime/sweep.h"
#include "serve/engine.h"
#include "serve/trace.h"

#include "bench_common.h"

using namespace vespera;

namespace {

double
speedupHeatmap(const models::LlamaConfig &cfg, int tp)
{
    models::LlamaModel model(cfg);
    printHeading(strfmt("Figure 12(a): %s speedup, TP=%d",
                        cfg.name.c_str(), tp));
    Table t({"Batch \\ OutLen", "25", "50", "100", "200", "400"});
    const std::vector<int> batches = {1, 4, 16, 64};
    const std::vector<int> outs = {25, 50, 100, 200, 400};
    runtime::SweepRunner sweepr(strfmt("fig12a.tp%d", tp));
    auto speedups = sweepr.mapIndex(
        batches.size() * outs.size(), [&](std::size_t i) {
            models::LlamaServingConfig s;
            s.batch = batches[i / outs.size()];
            s.inputLen = 100;
            s.outputLen = outs[i % outs.size()];
            s.tpDevices = tp;
            auto g = model.serve(DeviceKind::Gaudi2, s);
            auto a = model.serve(DeviceKind::A100, s);
            return a.totalTime / g.totalTime;
        });
    Accumulator acc;
    for (std::size_t b = 0; b < batches.size(); b++) {
        std::vector<std::string> row = {Table::integer(batches[b])};
        for (std::size_t o = 0; o < outs.size(); o++) {
            const double sp = speedups[b * outs.size() + o];
            acc.add(sp);
            row.push_back(Table::num(sp, 2));
        }
        t.addRow(std::move(row));
    }
    t.print();
    std::printf("Average speedup: %.2fx, max %.2fx\n", acc.mean(),
                acc.max());
    return acc.mean();
}

void
latencyBreakdown()
{
    models::LlamaModel model(models::LlamaConfig::llama31_8b());
    printHeading("Figure 12(b): Llama-8B latency breakdown, batch 64");

    Table t1({"Output len (in=100)", "Prefill (ms)", "Decode (ms)",
              "Decode share"});
    const std::vector<int> outs = {25, 50, 100, 200, 400};
    runtime::SweepRunner sweep_out("fig12b.out_len");
    auto by_out = sweep_out.map(outs, [&](int out) {
        models::LlamaServingConfig s;
        s.batch = 64;
        s.inputLen = 100;
        s.outputLen = out;
        return model.serve(DeviceKind::Gaudi2, s);
    });
    for (std::size_t i = 0; i < outs.size(); i++) {
        const auto &r = by_out[i];
        t1.addRow({Table::integer(outs[i]),
                   Table::num(r.prefillTime * 1e3, 1),
                   Table::num(r.decodeTime * 1e3, 1),
                   Table::pct(r.decodeTime / r.totalTime)});
    }
    t1.print();

    Table t2({"Input len (out=100)", "Prefill (ms)", "Decode (ms)",
              "Prefill share"});
    const std::vector<int> ins = {100, 200, 400, 800, 1600};
    runtime::SweepRunner sweep_in("fig12b.in_len");
    auto by_in = sweep_in.map(ins, [&](int in) {
        models::LlamaServingConfig s;
        s.batch = 64;
        s.inputLen = in;
        s.outputLen = 100;
        return model.serve(DeviceKind::Gaudi2, s);
    });
    for (std::size_t i = 0; i < ins.size(); i++) {
        const auto &r = by_in[i];
        t2.addRow({Table::integer(ins[i]),
                   Table::num(r.prefillTime * 1e3, 1),
                   Table::num(r.decodeTime * 1e3, 1),
                   Table::pct(r.prefillTime / r.totalTime)});
    }
    t2.print();
}

/**
 * Virtual-time serving timeline (--timeline-interval only): one
 * continuous-batching engine run over a bursty Dynamic-Sonnet-like
 * trace, recorded as windowed gauges with a p99-TTFT SLO monitor. The
 * run is deterministic (fixed seed, simulated time only), so the
 * exported "timeline" section is diffable across commits with
 * `vespera-stat timeline` — CI gates it against
 * tools/bench_baseline/bench_fig12_llm_serving.timeline.json.
 */
void
servingTimeline()
{
    obs::Timeline &timeline = obs::Timeline::instance();
    if (!timeline.enabled())
        return;
    printHeading("Serving timeline (virtual-time gauges)");
    // The SLO monitor records the first window whose p99 TTFT exceeds
    // the bound; the bound sits inside this trace's dynamic range so
    // the violation path is exercised (and its first-violation
    // timestamp baselined).
    timeline.addSlo({"ttft_p99_seconds", 2.0});

    models::LlamaModel model(models::LlamaConfig::llama31_8b());
    serve::EngineConfig ec;
    ec.maxDecodeBatch = 32;
    ec.kvCacheBytes = 16ull << 30;
    ec.timelineLabel = "fig12.serve";
    serve::Engine engine(model, ec);

    serve::TraceConfig tc;
    tc.numRequests = 96;
    tc.arrivalRate = 24; // bursty enough that queue depth moves
    Rng rng(2025);
    const auto m = engine.run(serve::makeDynamicTrace(tc, rng));
    serve::publish(m);
    std::printf("makespan %.2fs  p99 TTFT %.3fs  goodput %.0f tok/s  "
                "windows every %.3gs\n",
                m.makespan, m.p99Ttft, m.throughputTokensPerSec,
                timeline.interval());
    for (const auto &r : timeline.sloResults()) {
        std::printf("SLO %s <= %g: %s\n", r.gauge.c_str(), r.bound,
                    r.violated
                        ? strfmt("first violated at t=%.3fs (%.3f)",
                                 r.firstViolationT,
                                 r.firstViolationValue)
                              .c_str()
                        : "never violated");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = bench::parseArgs(argc, argv, "bench_fig12_llm_serving");
    const double s8 =
        speedupHeatmap(models::LlamaConfig::llama31_8b(), 1);
    double s70[3];
    int i = 0;
    for (int tp : {2, 4, 8})
        s70[i++] = speedupHeatmap(models::LlamaConfig::llama31_70b(),
                                  tp);

    latencyBreakdown();
    servingTimeline();

    printHeading("Summary vs paper");
    std::printf("8B  single-device avg: %.2fx (paper 1.47x)\n", s8);
    std::printf("70B TP=2/4/8 avg: %.2f / %.2f / %.2fx "
                "(paper 1.29 / 1.32 / 1.35x)\n",
                s70[0], s70[1], s70[2]);
    return bench::finish(opts);
}
