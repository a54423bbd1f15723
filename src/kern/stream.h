/**
 * @file
 * STREAM-style non-GEMM microbenchmarks (Algorithm 1 of the paper):
 * ADD (c = a + b), SCALE (b = s * a), TRIAD (c = s * a + b).
 *
 * The Gaudi versions are real TPC-C kernels run on the simulated TPC
 * array; the A100 versions are costed with the SIMT model. The
 * configuration exposes exactly the axes Figure 8 sweeps: data access
 * granularity, loop unrolling factor, TPC count, and an artificial
 * operational-intensity multiplier.
 */

#ifndef VESPERA_KERN_STREAM_H
#define VESPERA_KERN_STREAM_H

#include <cstdint>

#include "common/types.h"

namespace vespera::kern {

/** The three STREAM operations of Algorithm 1. */
enum class StreamOp {
    Add,   ///< c[i] = a[i] + b[i]        (1 flop, 3 arrays)
    Scale, ///< b[i] = s * a[i]           (1 flop, 2 arrays)
    Triad, ///< c[i] = s * a[i] + b[i]    (2 flops, 3 arrays)
};

const char *streamOpName(StreamOp op);

/** Workload and tuning-knob configuration. */
struct StreamConfig
{
    StreamOp op = StreamOp::Triad;
    std::uint64_t numElements = 24ull << 20; ///< Paper: 24M scalars.
    DataType dt = DataType::BF16;
    /// Data access granularity in bytes (Figure 8(a) sweeps 2..2048).
    Bytes accessBytes = 256;
    /// Manual unroll factor (Figure 8(b) sweeps this).
    int unroll = 4;
    /// Number of TPCs (Figure 8(c) weak-scales this). Ignored on A100.
    int numTpcs = 24;
    /// Extra dependent compute instructions per loop body, artificially
    /// raising operational intensity (Figure 8(d,e,f)).
    int extraComputePerVector = 0;
};

/** Outcome of one STREAM run. */
struct StreamResult
{
    Seconds time = 0;
    Flops flops = 0;
    double gflops = 0;
    /// Achieved flops / vector-engine peak for the data type.
    double vectorUtilization = 0;
    /// Useful bytes / (time x peak HBM bandwidth).
    double hbmUtilization = 0;
    /// Useful arithmetic flops per useful byte moved.
    double operationalIntensity = 0;
};

/**
 * Run the microbenchmark on the simulated Gaudi-2 TPC array. Each
 * simulated slice runs its full unrolled trips through
 * TpcContext::steadyLoop, which times every trip but executes only
 * some; the kernel fills inputs for, and spot-checks the output of,
 * the trips that ran, and panics if a result is wrong. Fails, naming
 * the field, on a config with no elements, an unroll or TPC count
 * below 1, an access below one element, or negative filler.
 */
StreamResult runStreamGaudi(const StreamConfig &config);

/** Cost the equivalent CUDA kernel on the A100 model. */
StreamResult runStreamA100(const StreamConfig &config);

} // namespace vespera::kern

#endif // VESPERA_KERN_STREAM_H
