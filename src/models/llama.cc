#include "models/llama.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "graph/compiler.h"
#include "graph/replay_cache.h"
#include "mem/arena.h"
#include "obs/selfprof.h"

namespace vespera::models {

namespace {

/// Sustained fraction of matrix peak for prefill FlashAttention.
constexpr double flashPrefillEfficiency = 0.45;
/// Sustained fraction of HBM peak for contiguous-KV decode attention.
constexpr double staticKvReadEfficiency = 0.70;
/// Matrix-engine efficiency on the small decode attention GEMMs.
constexpr double decodeGemmEfficiency = 0.35;

} // namespace

LlamaConfig
LlamaConfig::llama31_8b()
{
    LlamaConfig c;
    c.name = "Llama-3.1-8B";
    c.layers = 32;
    c.hidden = 4096;
    c.intermediate = 14336;
    c.numQHeads = 32;
    c.numKvHeads = 8;
    c.headDim = 128;
    c.vocab = 128256;
    return c;
}

LlamaConfig
LlamaConfig::llama31_70b()
{
    LlamaConfig c;
    c.name = "Llama-3.1-70B";
    c.layers = 80;
    c.hidden = 8192;
    c.intermediate = 28672;
    c.numQHeads = 64;
    c.numKvHeads = 8;
    c.headDim = 128;
    c.vocab = 128256;
    return c;
}

double
LlamaConfig::paramCount() const
{
    const double d = headDim;
    const double attn = static_cast<double>(hidden) *
                            (numQHeads + 2.0 * numKvHeads) * d +
                        static_cast<double>(numQHeads) * d * hidden;
    const double mlp = 3.0 * hidden * static_cast<double>(intermediate);
    return layers * (attn + mlp) + 2.0 * vocab * hidden;
}

LlamaModel::LlamaModel(LlamaConfig config)
    : config_(std::move(config))
{
    vassert(config_.numQHeads % config_.numKvHeads == 0,
            "GQA requires q-heads divisible by kv-heads");
}

graph::OpCost
LlamaModel::attentionCost(DeviceKind device, int batch,
                          int tokens_per_request,
                          std::int64_t context_len, bool prefill,
                          const LlamaServingConfig &cfg) const
{
    const auto &spec = hw::deviceSpec(device);
    const int tp = cfg.tpDevices;
    const auto es = static_cast<double>(dtypeSize(cfg.dt));
    const double q_heads = static_cast<double>(config_.numQHeads) / tp;
    const double kv_heads =
        std::max(1.0, static_cast<double>(config_.numKvHeads) / tp);
    const double d = config_.headDim;

    graph::OpCost c;
    if (prefill) {
        // FlashAttention: causal, compute-bound; KV written once.
        const double flops = 2.0 * batch * q_heads *
                             tokens_per_request *
                             static_cast<double>(context_len) * d * 2.0 *
                             0.5;
        const Seconds compute =
            flops / (spec.matrixPeak(cfg.dt) * flashPrefillEfficiency);
        const double kv_write =
            batch * static_cast<double>(context_len) * 2.0 * kv_heads *
            d * es;
        const Seconds write =
            kv_write / (spec.hbmBandwidth * spec.streamEfficiency);
        c.time = compute + write + spec.launchOverhead;
        c.matrixBusy = compute;
        c.flops = flops;
        c.hbmBytes = static_cast<Bytes>(kv_write);
        c.matrixUtil = flashPrefillEfficiency;
        return c;
    }

    // Decode attention over the cached context.
    kern::PagedAttentionConfig pa;
    pa.batch = batch;
    pa.seqLen = context_len;
    pa.numQHeads = std::max(1, config_.numQHeads / tp);
    pa.numKvHeads = static_cast<int>(kv_heads);
    pa.headDim = config_.headDim;
    pa.dt = cfg.dt;

    switch (cfg.attention) {
      case AttentionBackend::Static: {
        // Contiguous KV + fused attention on both devices.
        const double kv = static_cast<double>(pa.kvBytes());
        const Seconds read =
            kv / (spec.hbmBandwidth * staticKvReadEfficiency);
        const Seconds compute = pa.flops() / (spec.matrixPeak(cfg.dt) *
                                              decodeGemmEfficiency);
        c.time = std::max(read, compute) + spec.launchOverhead;
        c.matrixBusy = std::min(read, compute);
        c.flops = pa.flops();
        c.hbmBytes = pa.kvBytes();
        c.matrixUtil = decodeGemmEfficiency;
        return c;
      }
      case AttentionBackend::VllmBase:
      case AttentionBackend::VllmOpt: {
        const auto impl =
            device == DeviceKind::A100
                ? kern::PagedAttentionImpl::A100Fused
                : (cfg.attention == AttentionBackend::VllmOpt
                       ? kern::PagedAttentionImpl::GaudiOpt
                       : kern::PagedAttentionImpl::GaudiBase);
        auto pc = kern::runPagedAttention(pa, impl);
        c.time = pc.time;
        c.vectorBusy = pc.gatherTime;
        c.matrixBusy = std::min(pc.gemmTime, pc.time);
        c.flops = pa.flops();
        c.hbmBytes = pa.kvBytes();
        c.matrixUtil = decodeGemmEfficiency;
        return c;
      }
    }
    vpanic("unknown attention backend");
}

graph::Graph
LlamaModel::buildStepGraph(DeviceKind device, int batch,
                           int tokens_per_request,
                           std::int64_t context_len, bool prefill,
                           const LlamaServingConfig &cfg) const
{
    obs::SelfTimer self(obs::SelfCat::GraphBuild);
    const int tp = cfg.tpDevices;
    vassert(config_.numQHeads % tp == 0, "TP must divide q-heads");
    const std::int64_t m =
        static_cast<std::int64_t>(batch) * tokens_per_request;
    const std::int64_t h = config_.hidden;
    const std::int64_t inter = config_.intermediate / tp;
    // Per-device head counts under TP (KV heads replicate once TP
    // exceeds their count).
    const std::int64_t q_heads_dev = config_.numQHeads / tp;
    const std::int64_t kv_heads_dev =
        std::max<std::int64_t>(1, config_.numKvHeads / tp);
    const std::int64_t qkv_n =
        (q_heads_dev + 2 * kv_heads_dev) * config_.headDim;
    const std::int64_t o_k =
        static_cast<std::int64_t>(config_.numQHeads) * config_.headDim /
        tp;

    graph::Graph g;
    int x = g.input({{m, h}, cfg.dt}, "hidden_in");

    int norm1 = g.normalization(x, 1, 4.0, "input_rmsnorm");
    int wqkv = g.input({{h, qkv_n}, cfg.dt}, "w_qkv");
    int qkv = g.matmul(norm1, wqkv, "qkv_proj");
    (void)qkv;

    int attn = g.custom(
        {qkv},
        graph::TensorDesc{{m, o_k}, cfg.dt},
        [this, device, batch, tokens_per_request, context_len, prefill,
         cfg](DeviceKind dev) {
            (void)dev;
            return attentionCost(device, batch, tokens_per_request,
                                 context_len, prefill, cfg);
        },
        "attention",
        // Replay-cache signature: every input attentionCost reads
        // (the callback ignores its device argument and uses the
        // captured one, so the device belongs in here too).
        strfmt("attn|%s|q%d.kv%d.d%d|b%d|t%d|ctx%lld|p%d|tp%d|a%d|%s",
               deviceName(device), config_.numQHeads,
               config_.numKvHeads, config_.headDim, batch,
               tokens_per_request, static_cast<long long>(context_len),
               prefill ? 1 : 0, cfg.tpDevices,
               static_cast<int>(cfg.attention), dtypeName(cfg.dt)));

    int wo = g.input({{o_k, h}, cfg.dt}, "w_o");
    int o = g.matmul(attn, wo, "o_proj");
    if (tp > 1)
        o = g.allReduce(o, tp, "attn_allreduce");

    int norm2 = g.normalization(o, 1, 4.0, "post_rmsnorm");
    int wgu = g.input({{h, 2 * inter}, cfg.dt}, "w_gate_up");
    int gu = g.matmul(norm2, wgu, "gate_up_proj");
    int act = g.elementwiseTo({gu}, {{m, inter}, cfg.dt}, 6.0, true,
                              "silu_mul");
    int wd = g.input({{inter, h}, cfg.dt}, "w_down");
    int down = g.matmul(act, wd, "down_proj");
    if (tp > 1)
        down = g.allReduce(down, tp, "mlp_allreduce");
    (void)down;

    return g;
}

graph::StepEval
LlamaModel::stepEval(DeviceKind device, int batch, int tokens_per_request,
                     std::int64_t context_len, bool prefill,
                     const LlamaServingConfig &cfg) const
{
    // Step memo (replay_cache.h): the evaluation — graph build,
    // compile, both graphs' per-node costs — is a pure function of the
    // architecture + step shape, so repeat steps skip even the graph
    // construction.
    const std::string key = strfmt(
        "llama_step|%s|l%d.h%d.i%d.q%d.kv%d.d%d.v%d|%s|b%d|t%d|ctx%lld"
        "|p%d|tp%d|a%d|%s",
        config_.name.c_str(), config_.layers, config_.hidden,
        config_.intermediate, config_.numQHeads, config_.numKvHeads,
        config_.headDim, config_.vocab, deviceName(device), batch,
        tokens_per_request, static_cast<long long>(context_len),
        prefill ? 1 : 0, cfg.tpDevices, static_cast<int>(cfg.attention),
        dtypeName(cfg.dt));

    return graph::stepReplayCache().runMemoized(key, [&] {
        // The step's transient containers (graph nodes, compiler
        // scratch) bump-allocate from this thread's scratch arena and
        // are reclaimed wholesale on scope exit; the scope outlives
        // the graphs below, which is what makes their destructors
        // safe. The returned evaluation uses ordinary heap storage.
        mem::ScopedArena arena(mem::Arena::scratch());

        graph::Graph layer = buildStepGraph(device, batch,
                                            tokens_per_request,
                                            context_len, prefill, cfg);
        graph::Compiler compiler;
        compiler.compile(layer);
        layer.validate();
        graph::Executor executor(device);
        graph::ExecutionReport one = executor.evaluate(layer);

        graph::StepEval eval;
        graph::accumulate(eval.report, one, config_.layers);

        // LM head over the last token of each request.
        graph::Graph head;
        int hx =
            head.input({{batch, config_.hidden}, cfg.dt}, "final_hidden");
        int wl = head.input(
            {{config_.hidden, config_.vocab / cfg.tpDevices}, cfg.dt},
            "w_lm_head");
        (void)head.matmul(hx, wl, "lm_head");
        graph::ExecutionReport head_rep = executor.evaluate(head);
        graph::accumulate(eval.report, head_rep);

        eval.graphs.push_back(std::move(one.perNode));
        eval.graphs.push_back(std::move(head_rep.perNode));
        return eval;
    });
}

void
LlamaModel::foldStep(const std::vector<std::vector<graph::OpCost>> &graphs,
                     std::uint64_t n)
{
    for (const auto &costs : graphs)
        graph::Executor::fold(costs, n);
}

graph::ExecutionReport
LlamaModel::stepReport(DeviceKind device, int batch,
                       int tokens_per_request, std::int64_t context_len,
                       bool prefill, const LlamaServingConfig &cfg) const
{
    // Whole-step evaluation is kernel-eval work on the host clock; the
    // nested GraphBuild timer inside buildStepGraph carves its own
    // share out, so the two categories never double-count.
    obs::SelfTimer self(obs::SelfCat::KernelEval);
    graph::StepEval step = stepEval(device, batch, tokens_per_request,
                                    context_len, prefill, cfg);
    foldStep(step.graphs);
    return std::move(step.report);
}

Seconds
LlamaModel::stepTime(DeviceKind device, int batch,
                     int tokens_per_request, std::int64_t context_len,
                     bool prefill, const LlamaServingConfig &cfg) const
{
    return stepReport(device, batch, tokens_per_request, context_len,
                      prefill, cfg).time;
}

LlamaReport
LlamaModel::serve(DeviceKind device, const LlamaServingConfig &cfg) const
{
    vassert(cfg.batch >= 1 && cfg.inputLen >= 1 && cfg.outputLen >= 1,
            "bad serving config");

    // Prefill.
    graph::ExecutionReport prefill =
        stepReport(device, cfg.batch, cfg.inputLen, cfg.inputLen, true,
                   cfg);

    // Decode: integrate step time over the growing context with a
    // 5-point sample (step cost is near-linear in context length).
    graph::ExecutionReport decode;
    const std::int64_t in = cfg.inputLen;
    const std::int64_t out = cfg.outputLen;
    const std::int64_t samples[5] = {
        in + 1, in + out / 4, in + out / 2, in + 3 * out / 4, in + out};
    for (auto ctx : samples) {
        graph::ExecutionReport s =
            stepReport(device, cfg.batch, 1, ctx, false, cfg);
        graph::accumulate(decode, s, static_cast<double>(out) / 5.0);
    }

    graph::ExecutionReport total;
    graph::accumulate(total, prefill);
    graph::accumulate(total, decode);

    const auto &spec = hw::deviceSpec(device);
    hw::PowerModel power(spec);

    LlamaReport r;
    r.prefillTime = prefill.time;
    r.decodeTime = decode.time;
    r.totalTime = total.time;
    r.tokensPerSec =
        static_cast<double>(cfg.batch) * cfg.outputLen / r.totalTime;
    r.avgPowerPerDevice = power.averagePower(total.activity(spec));
    r.energy = r.avgPowerPerDevice * r.totalTime * cfg.tpDevices;
    r.tokensPerJoule =
        static_cast<double>(cfg.batch) * cfg.outputLen / r.energy;
    return r;
}

} // namespace vespera::models
