/**
 * @file
 * Regenerates Figure 17: the vLLM case study (Section 4.2).
 *
 *  (a) vLLM_opt's PagedAttention speedup over vLLM_base across
 *      sequence lengths and batch sizes (0% padding);
 *  (b) the same at seq=4K, batch=32, sweeping the zero-padded index
 *      fraction from 10% to 90%;
 *  (c) vLLM_opt vs A100 PagedAttention throughput;
 *  (d) end-to-end serving throughput vs max decode batch size;
 *  (e) mean TTFT and TPOT vs max decode batch size.
 *
 * Paper anchors: 7.4x average at 0% padding; up to 55.7x (avg 21x)
 * with padding; 45% of A100's PagedAttention throughput; end-to-end
 * parity with A100 on the Dynamic-Sonnet-style workload.
 */

#include <cstdio>

#include "common/stats.h"
#include "common/logging.h"
#include "common/table.h"
#include "common/units.h"
#include "kern/paged_attention.h"
#include "runtime/sweep.h"
#include "serve/engine.h"

#include "bench_common.h"

using namespace vespera;
using kern::PagedAttentionConfig;
using kern::PagedAttentionImpl;

namespace {

void
optVsBase()
{
    printHeading("Figure 17(a): vLLM_opt speedup over vLLM_base "
                 "(0% padding)");
    Table t({"SeqLen", "Batch 8", "Batch 16", "Batch 32", "Batch 64"});
    Accumulator acc;
    const std::vector<std::int64_t> seqs = {1024, 2048, 4096};
    const std::vector<int> batches = {8, 16, 32, 64};
    runtime::SweepRunner sweepr("fig17a.opt_vs_base");
    auto speedups = sweepr.mapIndex(
        seqs.size() * batches.size(), [&](std::size_t i) {
            PagedAttentionConfig c;
            c.batch = batches[i % batches.size()];
            c.seqLen = seqs[i / batches.size()];
            auto base =
                kern::runPagedAttention(c, PagedAttentionImpl::GaudiBase);
            auto opt =
                kern::runPagedAttention(c, PagedAttentionImpl::GaudiOpt);
            return base.time / opt.time;
        });
    for (std::size_t s = 0; s < seqs.size(); s++) {
        std::vector<std::string> row = {Table::integer(seqs[s])};
        for (std::size_t b = 0; b < batches.size(); b++) {
            const double sp = speedups[s * batches.size() + b];
            acc.add(sp);
            row.push_back(Table::num(sp, 1));
        }
        t.addRow(std::move(row));
    }
    t.print();
    std::printf("Average speedup: %.1fx (paper: 7.4x)\n", acc.mean());
}

void
paddingSweep()
{
    printHeading("Figure 17(b): effect of zero-padded BlockTable "
                 "indices (seq 4K, batch 32)");
    Table t({"Padded fraction", "vLLM_opt speedup over vLLM_base"});
    Accumulator acc;
    double max_speedup = 0;
    const std::vector<double> pads = {0.1, 0.3, 0.5, 0.7, 0.9};
    runtime::SweepRunner sweepr("fig17b.padding");
    auto speedups = sweepr.map(pads, [](double pad) {
        PagedAttentionConfig c;
        c.batch = 32;
        c.seqLen = 4096;
        c.paddedFraction = pad;
        auto base =
            kern::runPagedAttention(c, PagedAttentionImpl::GaudiBase);
        c.paddedFraction = 0;
        auto opt =
            kern::runPagedAttention(c, PagedAttentionImpl::GaudiOpt);
        return base.time / opt.time;
    });
    for (std::size_t i = 0; i < pads.size(); i++) {
        const double sp = speedups[i];
        acc.add(sp);
        max_speedup = std::max(max_speedup, sp);
        t.addRow({Table::pct(pads[i], 0), Table::num(sp, 1)});
    }
    t.print();
    std::printf("Average %.1fx (paper 21x), max %.1fx (paper 55.7x)\n",
                acc.mean(), max_speedup);
}

void
vsA100()
{
    printHeading("Figure 17(c): vLLM_opt (Gaudi-2) vs vLLM (A100) "
                 "PagedAttention throughput");
    Table t({"SeqLen", "Batch", "Gaudi-2/A100 throughput"});
    Accumulator acc;
    const std::vector<std::int64_t> seqs = {1024, 4096};
    const std::vector<int> batches = {8, 32, 64};
    runtime::SweepRunner sweepr("fig17c.vs_a100");
    auto rels = sweepr.mapIndex(
        seqs.size() * batches.size(), [&](std::size_t i) {
            PagedAttentionConfig c;
            c.batch = batches[i % batches.size()];
            c.seqLen = seqs[i / batches.size()];
            auto opt =
                kern::runPagedAttention(c, PagedAttentionImpl::GaudiOpt);
            auto a100 = kern::runPagedAttention(
                c, PagedAttentionImpl::A100Fused);
            return a100.time / opt.time;
        });
    for (std::size_t s = 0; s < seqs.size(); s++) {
        for (std::size_t b = 0; b < batches.size(); b++) {
            const double rel = rels[s * batches.size() + b];
            acc.add(rel);
            t.addRow({Table::integer(seqs[s]),
                      Table::integer(batches[b]), Table::pct(rel)});
        }
    }
    t.print();
    std::printf("Average: %.0f%% of A100 (paper: 45%%)\n",
                acc.mean() * 100);
}

void
endToEnd()
{
    models::LlamaModel model(models::LlamaConfig::llama31_8b());

    printHeading("Figure 17(d,e): end-to-end serving vs max decode "
                 "batch (Dynamic-Sonnet-like trace)");
    Table t({"Max batch", "Gaudi tok/s", "A100 tok/s", "Gaudi/A100",
             "Gaudi TTFT (s)", "A100 TTFT (s)", "Gaudi TPOT (ms)",
             "A100 TPOT (ms)"});

    serve::TraceConfig tc;
    tc.numRequests = 128;

    const std::vector<int> max_batches = {4, 8, 16, 32, 64};
    struct PointResult
    {
        serve::ServingMetrics gaudi;
        serve::ServingMetrics a100;
    };
    runtime::SweepRunner sweepr("fig17de.end_to_end");
    auto points = sweepr.map(max_batches, [&](int max_batch) {
        Rng rng(99);
        auto trace = serve::makeDynamicTrace(tc, rng);

        serve::EngineConfig gcfg;
        gcfg.device = DeviceKind::Gaudi2;
        gcfg.maxDecodeBatch = max_batch;
        gcfg.attention = models::AttentionBackend::VllmOpt;
        serve::Engine gaudi(model, gcfg);

        serve::EngineConfig acfg = gcfg;
        acfg.device = DeviceKind::A100;
        serve::Engine a100(model, acfg);

        PointResult pr;
        pr.gaudi = gaudi.run(trace);
        pr.a100 = a100.run(trace);
        return pr;
    });
    for (const PointResult &pr : points) {
        serve::publish(pr.gaudi);
        serve::publish(pr.a100);
    }
    for (std::size_t i = 0; i < max_batches.size(); i++) {
        const auto &gm = points[i].gaudi;
        const auto &am = points[i].a100;
        t.addRow({Table::integer(max_batches[i]),
                  Table::num(gm.throughputTokensPerSec, 0),
                  Table::num(am.throughputTokensPerSec, 0),
                  Table::num(gm.throughputTokensPerSec /
                                 am.throughputTokensPerSec, 2),
                  Table::num(gm.meanTtft, 2), Table::num(am.meanTtft, 2),
                  Table::num(gm.meanTpot * 1e3, 1),
                  Table::num(am.meanTpot * 1e3, 1)});
    }
    t.print();
    std::printf("\nPaper: vLLM_opt-based Gaudi-2 reaches end-to-end "
                "parity (~101%%) with A100.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = bench::parseArgs(argc, argv, "bench_fig17_vllm");
    optVsBase();
    paddingSweep();
    vsA100();
    endToEnd();
    return bench::finish(opts);
}
