/**
 * @file
 * Analytical model of Gaudi-2's Matrix Multiplication Engines (MMEs).
 *
 * The two MMEs form an output-stationary MAC array of 2x(256x256) units
 * that the graph compiler can reconfigure at runtime into alternative
 * geometries (512x256, 1024x128, ...) so the array better matches the
 * target GEMM's (M,K,N) shape (paper Section 3.2, Figures 6-7). This
 * model enumerates candidate geometries, costs each one, and picks the
 * fastest — exactly the decision the Gaudi graph compiler makes. A
 * fixed-geometry entry point reproduces the non-configurable baseline of
 * Figure 7(c).
 *
 * The model is pure: it charges nothing. Whether a GEMM reconfigured
 * the array depends on the GEMM before it, so the owner of the op
 * sequence decides it: graph::Executor counts `mme.reconfigs` per
 * graph, and kern::chargeGemm charges counters and attribution.
 */

#ifndef VESPERA_HW_MME_H
#define VESPERA_HW_MME_H

#include <vector>

#include "hw/device_spec.h"
#include "hw/gemm_cost.h"

namespace vespera::hw {

/**
 * One candidate MAC-array configuration: `count` independent arrays of
 * `height` x `width` MACs each. Geometries whose total MAC count is
 * below the physical maximum model power-gated operation.
 */
struct MmeGeometry
{
    int height;
    int width;
    int count;

    int totalMacs() const { return height * width * count; }

    std::string label() const;
};

/** Gaudi-2 MME cost model. */
class MmeModel
{
  public:
    explicit MmeModel(const DeviceSpec &spec = gaudi2Spec());

    /**
     * Cost a GEMM with the geometry chosen by the (modeled) graph
     * compiler: the candidate minimizing predicted time, tie-broken
     * toward fewer powered MACs. Pure: the same inputs give the same
     * cost in any call order.
     */
    GemmCost gemm(const GemmShape &shape, DataType dt) const;

    /**
     * Cost a GEMM with a fixed geometry — the non-configurable
     * output-stationary baseline used as the ablation in Figure 7(c).
     */
    GemmCost gemmWithGeometry(const GemmShape &shape, DataType dt,
                              const MmeGeometry &geom) const;

    /** Geometry the compiler would choose for this shape (Figure 7(a)). */
    MmeGeometry selectGeometry(const GemmShape &shape, DataType dt) const;

    /** Candidate geometries for a device with `mme_count` MME units. */
    static std::vector<MmeGeometry> buildGeometries(int mme_count);

    /** Gaudi-2's candidate set (two MME units). */
    static const std::vector<MmeGeometry> &candidateGeometries();

    /** The fixed 2x(256x256) configuration. */
    static MmeGeometry fixedGeometry() { return {256, 256, 2}; }

    const DeviceSpec &spec() const { return spec_; }

    /** Number of physical 256x256 MME units derived from the spec. */
    int mmeCount() const { return mmeCount_; }

  private:
    const DeviceSpec &spec_;
    int mmeCount_;
    std::vector<MmeGeometry> geometries_;

    /// Extra cycles charged per output tile (tile-switch bubbles).
    static constexpr double tileOverheadCycles_ = 24;
    /// Fraction of peak HBM bandwidth GEMM streaming achieves.
    static constexpr double gemmHbmEfficiency_ = 0.92;
    /// Multiplier on ideal operand traffic for imperfect SRAM reuse.
    static constexpr double trafficFactor_ = 1.10;
};

} // namespace vespera::hw

#endif // VESPERA_HW_MME_H
