/**
 * @file
 * Scalar reference interpreter for CudaKernelDesc.
 *
 * Executes the desc in *per-instruction lockstep*: every thread of a
 * block completes operation k before any thread starts operation k+1.
 * That is strictly stronger than CUDA's barrier-only guarantees, so any
 * desc whose cross-thread shared-memory communication is correctly
 * fenced with Sync executes identically here and on real SIMT hardware
 * — and identically to the lowered TPC program, which serializes strips
 * between the same barriers. The scorecard's functional-parity check
 * compares lowered output tensors against this interpreter's buffers.
 *
 * Each op runs as one ascending-tid sweep over the block. That equals
 * per-op lockstep (a read phase for all threads, then a write phase)
 * because no thread reads, within one op, what another thread writes
 * in it: loads and ALU ops write only the thread's own registers, and
 * stores read only them. Same-address stores land in ascending tid, so
 * the highest tid wins, as it would in a write phase. Shared atomics
 * are serialized in ascending tid, and warp reductions gather the warp
 * before they broadcast. Every active thread's access is
 * bounds-checked and dies naming the kernel, the op and the buffer.
 */

#ifndef VESPERA_PORT_REFERENCE_H
#define VESPERA_PORT_REFERENCE_H

#include <vector>

#include "port/cuda_desc.h"

namespace vespera::port {

/** Final global-buffer contents, indexed like desc.buffers. */
struct ReferenceResult
{
    std::vector<std::vector<float>> buffers;
};

/** Interpret `desc` (validates first). */
ReferenceResult runReference(const CudaKernelDesc &desc);

} // namespace vespera::port

#endif // VESPERA_PORT_REFERENCE_H
