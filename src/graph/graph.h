/**
 * @file
 * Tensor-graph intermediate representation.
 *
 * AI models (the paper's DLRM and Llama configurations) are lowered to
 * this IR; the graph::Compiler applies the Gaudi graph-compiler passes
 * the paper describes (element-wise fusion, MME geometry selection,
 * MME-TPC operator pipelining) and the graph::Executor times the result
 * against a device's engine models.
 */

#ifndef VESPERA_GRAPH_GRAPH_H
#define VESPERA_GRAPH_GRAPH_H

#include <functional>
#include <string>
#include <vector>

#include "hw/gemm_cost.h"
#include "mem/arena.h"

namespace vespera::graph {

/** Logical tensor shape + type. */
struct TensorDesc
{
    std::vector<std::int64_t> shape;
    DataType dt = DataType::BF16;

    std::int64_t
    elements() const
    {
        std::int64_t n = 1;
        for (auto d : shape)
            n *= d;
        return n;
    }

    Bytes bytes() const { return elements() * dtypeSize(dt); }
};

/** Node kinds. */
enum class OpKind {
    Input,         ///< Graph input; free.
    MatMul,        ///< Matrix engine (MME / Tensor Core).
    Elementwise,   ///< Vector engines (TPC / SIMD cores).
    Normalization, ///< Softmax / LayerNorm-style multi-pass vector op.
    AllReduce,     ///< Tensor-parallel collective.
    Custom,        ///< Externally-costed kernel (e.g. PagedAttention).
};

/** Per-node cost, and what Executor::fold charges for the node. */
struct OpCost
{
    Seconds time = 0;        ///< Wall time this node contributes.
    Seconds matrixBusy = 0;  ///< Matrix-engine busy time.
    Seconds vectorBusy = 0;  ///< Vector-engine busy time.
    Seconds commTime = 0;    ///< Collective time.
    Flops flops = 0;
    Bytes hbmBytes = 0;
    double matrixUtil = 0;   ///< Utilization while the matrix engine ran.
    double macFraction = 1;  ///< Powered MAC fraction while it ran.

    /// Input also marks a fused-away node; fold charges neither.
    OpKind kind = OpKind::Input;
    /// MatMul only (compute time is `matrixBusy`). Geometry labels are
    /// short enough to stay in the string's inline buffer.
    hw::GemmEngine engine = hw::GemmEngine::Mme;
    hw::GemmShape gemm;
    std::string geometry;
    Seconds memoryTime = 0;
};

/** One IR node. */
struct Node
{
    int id = -1;
    OpKind kind = OpKind::Input;
    std::string name;
    std::vector<int> inputs;
    TensorDesc output;

    /// MatMul payload.
    hw::GemmShape gemm;

    /// Elementwise / Normalization payload.
    double flopsPerElement = 1;
    bool usesFma = false;
    Bytes trafficBytes = 0;
    int numFusedOps = 1;

    /// AllReduce payload.
    int commDevices = 1;

    /// Custom payload.
    std::function<OpCost(DeviceKind)> customCost;
    /// Replay-cache identity for the custom cost: everything the
    /// callback's result depends on, rendered to a stable string by
    /// the builder. Empty (the default) means "not memoizable" — the
    /// executor then always evaluates the callback fresh.
    std::string costSignature;

    /// Compiler annotations.
    bool fusedAway = false;
    bool pipelinedWithProducer = false;
    /// Sub-operation slices used for MME-TPC pipelining: the producer
    /// GEMM and this op are cut into this many independent pieces, so
    /// one slice of ramp-in/ramp-out is exposed (Section 2.2's
    /// "smaller, independent sub-operations").
    int pipelineSlices = 8;
};

/** Builder + container for a dataflow graph. */
class Graph
{
  public:
    /** Declare a graph input. */
    int input(TensorDesc desc, std::string name = "input");

    /**
     * MatMul with shape inference: a is [batch..., M, K], b is
     * [batch..., K, N] or [K, N] (broadcast). Output [batch..., M, N].
     */
    int matmul(int a, int b, std::string name = "matmul");

    /**
     * Element-wise op over the first input's shape. Traffic = all
     * inputs read once + output written once.
     */
    int elementwise(std::vector<int> ins, double flops_per_element,
                    bool uses_fma, std::string name = "eltwise");

    /**
     * Element-wise op with an explicit output shape (e.g. SwiGLU's
     * gate*up, which halves the fused gate_up projection's width).
     * flops are counted per *output* element.
     */
    int elementwiseTo(std::vector<int> ins, TensorDesc out,
                      double flops_per_element, bool uses_fma,
                      std::string name = "eltwise");

    /**
     * Softmax/LayerNorm-style op: `passes` read-write sweeps over the
     * input.
     */
    int normalization(int in, int passes, double flops_per_element,
                      std::string name = "norm");

    /** Tensor-parallel all-reduce of the input across `devices`. */
    int allReduce(int in, int devices, std::string name = "allreduce");

    /**
     * Custom node with an external cost callback. `cost_signature`
     * (optional) names everything the callback depends on so the
     * executor's replay cache may memoize it; leave empty to opt out.
     */
    int custom(std::vector<int> ins, TensorDesc out,
               std::function<OpCost(DeviceKind)> cost,
               std::string name = "custom",
               std::string cost_signature = "");

    /// Node storage: arena-backed when the graph is built inside a
    /// mem::ScopedArena (the per-step hot path), heap otherwise.
    using NodeVec = std::vector<Node, mem::ArenaAllocator<Node>>;

    const NodeVec &nodes() const { return nodes_; }
    NodeVec &nodes() { return nodes_; }
    const Node &node(int id) const;
    std::size_t size() const { return nodes_.size(); }

    /** Ids of nodes consuming `id`'s output (fused-away excluded). */
    std::vector<int> consumers(int id) const;

    /**
     * Structural validation: every input id resolves to an earlier,
     * non-fused node; shapes of element-wise inputs are consistent.
     * Panics with a diagnostic on violation; returns the number of
     * live (non-fused) nodes.
     */
    int validate() const;

    /** Graphviz DOT dump for debugging/visualization. */
    std::string toDot() const;

  private:
    int push(Node n);

    NodeVec nodes_;
};

} // namespace vespera::graph

#endif // VESPERA_GRAPH_GRAPH_H
