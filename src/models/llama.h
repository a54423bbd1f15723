/**
 * @file
 * Llama-3.1 serving models (Table 3: 8B and 70B) for the end-to-end
 * LLM comparisons of Figures 12, 13, and 17.
 *
 * Each forward step (prefill or decode) is lowered to the graph IR —
 * QKV/O/MLP GEMMs, normalizations, activations, tensor-parallel
 * all-reduces — with attention as a Custom node costed by either the
 * static contiguous-KV backend (TensorRT-LLM / optimum-habana with
 * KV cache + FlashAttention, Section 3.5) or the PagedAttention
 * implementations of Section 4.2 (vLLM).
 */

#ifndef VESPERA_MODELS_LLAMA_H
#define VESPERA_MODELS_LLAMA_H

#include <string>

#include "graph/executor.h"
#include "graph/replay_cache.h"
#include "hw/power.h"
#include "kern/paged_attention.h"

namespace vespera::models {

/** Static architecture description (Table 3). */
struct LlamaConfig
{
    std::string name;
    int layers = 32;
    int hidden = 4096;
    int intermediate = 14336;
    int numQHeads = 32;
    int numKvHeads = 8;
    int headDim = 128;
    int vocab = 128256;

    static LlamaConfig llama31_8b();
    static LlamaConfig llama31_70b();

    /** Approximate parameter count (for weight-traffic sanity). */
    double paramCount() const;

    /** Per-device weight footprint under TP sharding. */
    Bytes
    weightBytes(int tp_devices, DataType dt) const
    {
        return static_cast<Bytes>(paramCount() * dtypeSize(dt) /
                                  tp_devices);
    }
};

/** Attention backend for decode steps. */
enum class AttentionBackend {
    Static,   ///< Contiguous KV + FlashAttention (Figure 12 setup).
    VllmBase, ///< PagedAttention, BlockTable (Gaudi vLLM fork).
    VllmOpt,  ///< PagedAttention, BlockList + pipelining (vLLM_opt).
};

/** One serving scenario. */
struct LlamaServingConfig
{
    int batch = 32;
    int inputLen = 100;  ///< Paper: fixed at 100 for Figure 12.
    int outputLen = 100; ///< Swept 25..400.
    int tpDevices = 1;   ///< Tensor parallelism degree.
    AttentionBackend attention = AttentionBackend::Static;
    DataType dt = DataType::BF16;
};

/** End-to-end outcome of serving one batch of identical requests. */
struct LlamaReport
{
    Seconds prefillTime = 0;
    Seconds decodeTime = 0;
    Seconds totalTime = 0;
    double tokensPerSec = 0;    ///< Generated tokens / total time.
    Watts avgPowerPerDevice = 0;
    Joules energy = 0;          ///< All devices.
    double tokensPerJoule = 0;
};

/** Llama serving simulator. */
class LlamaModel
{
  public:
    explicit LlamaModel(LlamaConfig config);

    /** Serve a batch of fixed-shape requests end to end. */
    LlamaReport serve(DeviceKind device,
                      const LlamaServingConfig &cfg) const;

    /**
     * Time one forward step: stepEval(), then foldStep().
     * `tokensPerRequest` is the number of new tokens processed per
     * request (inputLen for prefill, 1 for decode); `contextLen` is
     * the KV length attended to.
     */
    graph::ExecutionReport stepReport(DeviceKind device, int batch,
                                      int tokens_per_request,
                                      std::int64_t context_len,
                                      bool prefill,
                                      const LlamaServingConfig &cfg) const;

    /**
     * One forward step's evaluation through the step memo
     * (graph/replay_cache.h): the composed report plus the per-node
     * costs of its layer and LM-head graphs. Charges nothing and
     * starts no SelfProf timer (stepReport() times it as
     * kernel_eval); every use folds it with foldStep().
     */
    graph::StepEval stepEval(DeviceKind device, int batch,
                             int tokens_per_request,
                             std::int64_t context_len, bool prefill,
                             const LlamaServingConfig &cfg) const;

    /**
     * Charge `n` runs of a step evaluation's graphs, graph by graph,
     * through graph::Executor::fold: once in stepReport(), and once
     * per memoized step with its call count in the serving engine.
     */
    static void
    foldStep(const std::vector<std::vector<graph::OpCost>> &graphs,
             std::uint64_t n = 1);

    /** Convenience: wall time of one step. */
    Seconds stepTime(DeviceKind device, int batch,
                     int tokens_per_request, std::int64_t context_len,
                     bool prefill, const LlamaServingConfig &cfg) const;

    const LlamaConfig &config() const { return config_; }

  private:
    graph::Graph buildStepGraph(DeviceKind device, int batch,
                                int tokens_per_request,
                                std::int64_t context_len, bool prefill,
                                const LlamaServingConfig &cfg) const;

    graph::OpCost attentionCost(DeviceKind device, int batch,
                                int tokens_per_request,
                                std::int64_t context_len, bool prefill,
                                const LlamaServingConfig &cfg) const;

    LlamaConfig config_;
};

} // namespace vespera::models

#endif // VESPERA_MODELS_LLAMA_H
