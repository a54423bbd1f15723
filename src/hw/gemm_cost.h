/**
 * @file
 * Shared GEMM shape/cost descriptors used by the MME (Gaudi) and Tensor
 * Core (A100) matrix-engine models. The models are pure: callers charge
 * their costs (kern::chargeGemm) in their own order.
 */

#ifndef VESPERA_HW_GEMM_COST_H
#define VESPERA_HW_GEMM_COST_H

#include <cstdint>
#include <string>

#include "common/types.h"

namespace vespera::hw {

/** A (possibly batched) GEMM: C[M,N] = A[M,K] x B[K,N], `batch` times. */
struct GemmShape
{
    std::int64_t m = 1;
    std::int64_t k = 1;
    std::int64_t n = 1;
    std::int64_t batch = 1;

    Flops
    flops() const
    {
        return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
               static_cast<double>(n) * static_cast<double>(batch);
    }

    /** Bytes touched assuming each operand moves on/off chip once. */
    Bytes
    idealTraffic(DataType dt) const
    {
        const auto es = static_cast<double>(dtypeSize(dt));
        double bytes = es * batch *
            (static_cast<double>(m) * k + static_cast<double>(k) * n +
             static_cast<double>(m) * n);
        return static_cast<Bytes>(bytes);
    }
};

/** The matrix engine a GEMM ran on: its counter and ledger namespace. */
enum class GemmEngine : std::uint8_t {
    Mme, ///< Gaudi MME: `mme.*` counters, attribution scope "mme".
    Tc,  ///< A100 tensor cores: `tc.*` counters, attribution scope "tc".
};

/** Outcome of costing one GEMM on a matrix engine. */
struct GemmCost
{
    Seconds time = 0;            ///< End-to-end, including launch overhead.
    Seconds computeTime = 0;     ///< Systolic/TC pipeline time.
    Seconds memoryTime = 0;      ///< HBM streaming time.
    Flops achievedFlops = 0;     ///< flops / time.
    double utilization = 0;      ///< achievedFlops / device peak.
    double activeMacFraction = 1; ///< Fraction of MAC array powered.
    std::string geometry;        ///< Chosen array geometry / tile label.
    GemmEngine engine = GemmEngine::Mme; ///< The engine that ran it.

    bool memoryBound() const { return memoryTime > computeTime; }
};

} // namespace vespera::hw

#endif // VESPERA_HW_GEMM_COST_H
