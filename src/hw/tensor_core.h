/**
 * @file
 * Analytical model of A100 Tensor Core GEMM execution (the cuBLAS
 * comparator of Sections 3.2 and 3.5).
 *
 * cuBLAS decomposes a GEMM into CTA tiles scheduled across the 108 SMs;
 * performance is governed by tile-shape choice, wave quantization
 * (ceil(tiles/108)), a per-tile prologue/epilogue cost, and the HBM
 * bandwidth bound. The model enumerates the standard tile shapes and
 * picks the fastest, mirroring cuBLAS's heuristic kernel selection.
 */

#ifndef VESPERA_HW_TENSOR_CORE_H
#define VESPERA_HW_TENSOR_CORE_H

#include <vector>

#include "hw/device_spec.h"
#include "hw/gemm_cost.h"

namespace vespera::hw {

/** A100 Tensor Core GEMM cost model. */
class TensorCoreModel
{
  public:
    explicit TensorCoreModel(const DeviceSpec &spec = a100Spec());

    /**
     * Cost a GEMM with the best CTA tile (cuBLAS-style selection).
     * Pure, like MmeModel::gemm: charging is kern::chargeGemm's job.
     */
    GemmCost gemm(const GemmShape &shape, DataType dt) const;

    /** Cost a GEMM with one specific (tileM, tileN) CTA tile. */
    GemmCost gemmWithTile(const GemmShape &shape, DataType dt,
                          int tile_m, int tile_n) const;

    const DeviceSpec &spec() const { return spec_; }

    /** CTA tile shapes considered. */
    static const std::vector<std::pair<int, int>> &candidateTiles();

  private:
    const DeviceSpec &spec_;

    /// Per-CTA-tile prologue/epilogue cycles (smem staging, writeback).
    static constexpr double tileOverheadCycles_ = 700;
    /// Sustained fraction of per-SM tensor-core issue bandwidth.
    static constexpr double smEfficiency_ = 0.87;
    /// Fraction of peak HBM bandwidth GEMM streaming achieves.
    static constexpr double gemmHbmEfficiency_ = 0.84;
    /// Multiplier on ideal operand traffic for imperfect L2/smem reuse.
    static constexpr double trafficFactor_ = 1.10;
};

} // namespace vespera::hw

#endif // VESPERA_HW_TENSOR_CORE_H
