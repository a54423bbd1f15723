/**
 * @file
 * The kernel-facing TPC-C programming interface.
 *
 * Kernels are C++ callables receiving a TpcContext. The context exposes
 * the index-space slice assigned to this TPC plus intrinsics that mirror
 * the TPC-C SDK (v_ld_tnsr / v_st_tnsr / v_add / v_mac / ...). Each
 * intrinsic both executes functionally on simulated tensors and appends
 * an instruction to the TPC's Program trace for timing evaluation.
 *
 * Intrinsics pay their checks and bookkeeping once per instruction, not
 * once per lane: a tensor access bounds-checks its whole element range
 * once and then copies it in bulk, and each intrinsic's op label and
 * each tensor's stream id are resolved once per context.
 *
 * Intrinsic names intentionally follow TPC-C spelling (lower_snake with
 * v_/s_ prefixes) rather than house style, to keep kernels recognizable
 * next to the paper's Figure 2(c) listing.
 */

#ifndef VESPERA_TPC_CONTEXT_H
#define VESPERA_TPC_CONTEXT_H

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "tpc/lanes.h"
#include "tpc/program.h"
#include "tpc/tensor.h"

namespace vespera::tpc {

/** An SSA vector value: trace id plus functional lane contents. */
struct Vec
{
    std::int32_t id = -1;
    LaneBuffer lanes;

    int laneCount() const { return static_cast<int>(lanes.size()); }
};

/** Half-open per-dimension slice of the index space owned by one TPC. */
struct MemberRange
{
    Int5 start{0, 0, 0, 0, 0};
    Int5 end{0, 0, 0, 0, 0};

    bool
    empty() const
    {
        for (int d = 0; d < 5; d++)
            if (end[d] <= start[d])
                return true;
        return false;
    }
};

/** Per-TPC execution context handed to kernels. */
class TpcContext
{
  public:
    /**
     * @param program Trace sink for this TPC.
     * @param range Index-space slice assigned to this TPC.
     * @param defaultVectorBytes Default global access width (256 B is
     *        the recommended granularity; microbenchmarks sweep it).
     * @param localMemoryBytes TPC-private vector local memory capacity.
     */
    TpcContext(Program &program, const MemberRange &range,
               Bytes default_vector_bytes = 256,
               Bytes local_memory_bytes = 80 * 1024);

    /// @name Index-space queries (get_index_space_information()).
    /// @{
    std::int64_t memberStart(int dim) const { return range_.start.at(dim); }
    std::int64_t memberEnd(int dim) const { return range_.end.at(dim); }
    /// @}

    /// @name Global-memory vector intrinsics.
    /// @{
    /**
     * Load `bytes` (default: the context's vector width) starting at
     * `coord`. Reads past the tensor end are clamped and zero-filled.
     */
    Vec v_ld_tnsr(const Int5 &coord, const Tensor &t, Bytes bytes = 0,
                  Access access = Access::Stream);

    /**
     * Store the vector starting at `coord`; clamped at the tensor end.
     * A `lane_limit` >= 0 writes only the first `lane_limit` lanes, the
     * predicated tail store that keeps a TPC inside its own slice. The
     * instruction still moves the whole vector either way, so the
     * limit changes neither the trace nor its timing.
     */
    void v_st_tnsr(const Int5 &coord, Tensor &t, const Vec &v,
                   Access access = Access::Stream,
                   std::int64_t lane_limit = -1);
    /// @}

    /// @name Vector ALU intrinsics (one VLIW vector-slot issue each).
    /// @{
    Vec v_add(const Vec &a, const Vec &b);
    Vec v_sub(const Vec &a, const Vec &b);
    Vec v_mul(const Vec &a, const Vec &b);
    Vec v_max(const Vec &a, const Vec &b);
    /** a * b + acc (MAC: two flops per lane). */
    Vec v_mac(const Vec &a, const Vec &b, const Vec &acc);
    /** a * scalar. */
    Vec v_mul_s(const Vec &a, float scalar);
    /** a * scalar + acc. */
    Vec v_mac_s(const Vec &a, float scalar, const Vec &acc);
    /** Zero vector of `lanes` lanes (register init; vector slot). */
    Vec v_zero(int lanes);
    /** Element-wise exponential (multi-cycle special-function op). */
    Vec v_exp(const Vec &a);
    /** Element-wise reciprocal. */
    Vec v_reciprocal(const Vec &a);
    /** Element-wise reciprocal square root. */
    Vec v_rsqrt(const Vec &a);
    /** Immediate constant splat into a `lanes`-wide register. */
    Vec v_splat(float value, int lanes);
    /** Lane-index vector: lane i holds the value i (TPC-C's
     *  read_lane_id equivalent, used to build predication masks). */
    Vec v_iota(int lanes);
    /** Lane-wise compares producing a 0.0/1.0 mask vector. */
    Vec v_cmp_eq(const Vec &a, const Vec &b);
    Vec v_cmp_lt(const Vec &a, const Vec &b);
    Vec v_cmp_ge(const Vec &a, const Vec &b);
    /** Lane-wise select: mask != 0 ? a : b (TPC-C v_sel_*). */
    Vec v_sel(const Vec &mask, const Vec &a, const Vec &b);
    /** Cross-lane maximum; returns a single-lane vector. */
    Vec v_reduce_max(const Vec &a);
    /** Cross-lane sum; returns a single-lane vector. */
    Vec v_reduce_add(const Vec &a);
    /** Broadcast lane 0 of `a` to a `lanes`-wide vector. */
    Vec v_broadcast(const Vec &a, int lanes);
    /// @}

    /// @name Scalar intrinsics.
    /// @{
    /** Scalar load of one element (e.g., an embedding index). */
    float s_ld(const Int5 &coord, const Tensor &t,
               Access access = Access::Random);
    /// @}

    /// @name TPC-local memory (80 KB vector local memory).
    /// @{
    /** Store a vector to local memory at `elem_offset` (in lanes). */
    void v_st_local(std::int64_t elem_offset, const Vec &v);
    /** Load `lanes` lanes from local memory at `elem_offset`. */
    Vec v_ld_local(std::int64_t elem_offset, int lanes);
    /** Peak local-memory footprint observed, in bytes (4 B per lane). */
    Bytes localHighWater() const { return localHighWater_ * 4; }
    /// @}

    Bytes defaultVectorBytes() const { return defaultVectorBytes_; }
    Bytes localMemoryBytes() const { return localMemoryBytes_; }

    /// @name Diagnostic labeling (tpc::analysis provenance).
    /// @{
    /**
     * Tag subsequently recorded instructions with a kernel phase label
     * (e.g. "phase2:exp-sum") instead of the default intrinsic name.
     * Pass "" to revert to intrinsic-name labels. Kernels call this
     * once per phase per loop trip, so the label in use, or one seen
     * before at the same address, resolves without the program's
     * interning scan.
     */
    void setOpLabel(std::string_view label);
    /// @}

  private:
    /// Every intrinsic, indexing the per-context label cache.
    enum class Op : std::uint8_t {
        LdTnsr, StTnsr, Add, Sub, Mul, Max, Mac, MulS, MacS, Zero, Exp,
        Reciprocal, Rsqrt, Splat, Iota, CmpEq, CmpLt, CmpGe, Sel,
        ReduceMax, ReduceAdd, Broadcast, SLd, StLocal, LdLocal, Count,
    };

    /// Lane-wise op(a[i], b[i]); `op` is inlined into the lane loop.
    template <typename F>
    Vec binaryOp(const Vec &a, const Vec &b, float flops_per_lane, F op,
                 Op name);

    /// Label recorded on the next instruction: the user phase label
    /// when set, otherwise the intrinsic's own name (interned on its
    /// first use in this context, so the label table keeps first-use
    /// order).
    std::int16_t opLabel(Op op);

    /// Stable per-context id for the tensor / local-memory stream a
    /// memory instruction touches (Instr::memStream).
    std::uint32_t streamId(const void *key);

    Program &program_;
    MemberRange range_;
    Bytes defaultVectorBytes_;
    Bytes localMemoryBytes_;
    std::vector<float> localMem_;
    std::int64_t localHighWater_ = 0;
    std::int16_t userLabel_ = -1;
    std::array<std::int16_t, static_cast<std::size_t>(Op::Count)>
        opLabels_;
    /// setOpLabel's direct-mapped cache: label text address -> index.
    /// A hit is confirmed by one text compare, so a reused address
    /// holding other text only costs a re-intern.
    struct LabelSlot
    {
        const char *text = nullptr;
        std::int16_t index = -1;
    };
    std::array<LabelSlot, 16> labelCache_{};
    /// Tensors in first-touch order; the i-th has stream id i + 2
    /// (1 is reserved for local memory). Kernels touch a handful.
    std::vector<const void *> streams_;
};

} // namespace vespera::tpc

#endif // VESPERA_TPC_CONTEXT_H
