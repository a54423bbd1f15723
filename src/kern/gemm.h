/**
 * @file
 * Device-dispatching GEMM entry points (the PyTorch `torch.matmul` of
 * Figure 2(a): cuBLAS on "cuda", MME built-ins on "hpu").
 */

#ifndef VESPERA_KERN_GEMM_H
#define VESPERA_KERN_GEMM_H

#include <string>

#include "hw/gemm_cost.h"

namespace vespera::kern {

/** Cost a GEMM on the given device's matrix engine. Pure. */
hw::GemmCost gemmCost(DeviceKind device, const hw::GemmShape &shape,
                      DataType dt);

/**
 * Charge `n` runs of one costed GEMM: `<engine>.{gemms,flops,
 * busy_seconds}`, and attribution where overlapped compute is useful
 * work, the HBM stall beyond it is memory_bw, and the launch overhead
 * is reconfig if the GEMM switched the MME geometry (also counting
 * `mme.reconfigs`), else exposed_latency. The tensor core never
 * reconfigures: its tile choice is per kernel, not a persistent array
 * shape. `n` runs add n times one run's value as n updates.
 */
void chargeGemm(hw::GemmEngine engine, const hw::GemmShape &shape,
                const std::string &geometry, Seconds time, Seconds compute,
                Seconds memory, bool reconfigured, std::uint64_t n = 1);

/**
 * Cost a GEMM and charge it as a one-op sequence, which never counts
 * as a reconfiguration.
 */
hw::GemmCost runGemm(DeviceKind device, const hw::GemmShape &shape,
                     DataType dt);

} // namespace vespera::kern

#endif // VESPERA_KERN_GEMM_H
