/**
 * @file
 * Ablation: PagedAttention's memory-management benefit (the vLLM
 * motivation the paper summarizes in Section 4.2) — paged block
 * allocation vs reserve-max-length contiguous allocation, under a
 * constrained KV pool.
 */

#include <cstdio>

#include "common/logging.h"
#include "common/table.h"
#include "runtime/sweep.h"
#include "serve/engine.h"

#include "bench_common.h"

using namespace vespera;

int
main(int argc, char **argv)
{
    auto opts = bench::parseArgs(argc, argv, "bench_ablation_kvcache");
    models::LlamaModel model(models::LlamaConfig::llama31_8b());

    serve::TraceConfig tc;
    tc.numRequests = 96;
    tc.maxInputLen = 1024;
    tc.maxOutputLen = 256;

    printHeading("Ablation: paged vs contiguous KV cache "
                 "(Llama-8B, Gaudi-2, 4 GiB KV pool)");
    Table t({"Policy", "Max batch", "Tok/s", "Avg decode batch",
             "Mean TTFT (s)", "Preemptions"});
    const std::vector<serve::KvPolicy> policies = {
        serve::KvPolicy::Contiguous, serve::KvPolicy::Paged};
    const std::vector<int> max_batches = {16, 64};
    runtime::SweepRunner sweepr("ablation.kvcache");
    auto metrics = sweepr.mapIndex(
        policies.size() * max_batches.size(), [&](std::size_t i) {
            serve::EngineConfig cfg;
            cfg.device = DeviceKind::Gaudi2;
            cfg.maxDecodeBatch = max_batches[i % max_batches.size()];
            cfg.kvCacheBytes = 4ull << 30;
            cfg.maxModelLen = 4096;
            cfg.kvPolicy = policies[i / max_batches.size()];
            serve::Engine engine(model, cfg);
            Rng rng(31);
            return engine.run(serve::makeDynamicTrace(tc, rng));
        });
    for (const serve::ServingMetrics &m : metrics)
        serve::publish(m);
    for (std::size_t p = 0; p < policies.size(); p++) {
        for (std::size_t b = 0; b < max_batches.size(); b++) {
            const auto &m = metrics[p * max_batches.size() + b];
            t.addRow({policies[p] == serve::KvPolicy::Paged
                          ? "paged"
                          : "contiguous",
                      Table::integer(max_batches[b]),
                      Table::num(m.throughputTokensPerSec, 0),
                      Table::num(m.avgDecodeBatch, 1),
                      Table::num(m.meanTtft, 2),
                      Table::integer(m.preemptions)});
        }
    }
    t.print();
    std::printf("\nContiguous reservation fragments the pool into "
                "max-length slabs,\ncapping the decode batch; paging "
                "recovers the batch size and throughput.\n");
    return bench::finish(opts);
}
