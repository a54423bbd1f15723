#include "hw/tensor_core.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace vespera::hw {

TensorCoreModel::TensorCoreModel(const DeviceSpec &spec)
    : spec_(spec)
{
    vassert(spec.kind == DeviceKind::A100,
            "TensorCoreModel models A100 Tensor Cores only");
}

const std::vector<std::pair<int, int>> &
TensorCoreModel::candidateTiles()
{
    static const std::vector<std::pair<int, int>> tiles = {
        {256, 128}, {128, 256}, {128, 128}, {256, 64}, {64, 256},
        {128, 64}, {64, 128}, {64, 64},
    };
    return tiles;
}

GemmCost
TensorCoreModel::gemmWithTile(const GemmShape &shape, DataType dt,
                              int tile_m, int tile_n) const
{
    vassert(shape.m > 0 && shape.k > 0 && shape.n > 0 && shape.batch > 0,
            "degenerate GEMM shape");

    const double tiles_m = std::ceil(static_cast<double>(shape.m) / tile_m);
    const double tiles_n = std::ceil(static_cast<double>(shape.n) / tile_n);
    const double tiles = tiles_m * tiles_n * shape.batch;
    const double waves = std::ceil(tiles / spec_.numVectorCores);

    // Per-SM tensor-core MAC throughput (MACs/cycle), BF16.
    const double per_sm_macs = spec_.matrixPeakBf16 /
        (2.0 * spec_.matrixClock * spec_.numVectorCores);
    const double rate_scale =
        dt == DataType::FP32 ? 1.0 / spec_.fp32MatrixRatio : 1.0;
    const double tile_cycles =
        (static_cast<double>(shape.k) * tile_m * tile_n / per_sm_macs *
             rate_scale +
         tileOverheadCycles_) / smEfficiency_;

    const Seconds compute = waves * tile_cycles / spec_.matrixClock;

    const double traffic = trafficFactor_ *
        static_cast<double>(shape.idealTraffic(dt));
    const Seconds memory =
        traffic / (spec_.hbmBandwidth * gemmHbmEfficiency_);

    GemmCost cost;
    cost.computeTime = compute;
    cost.memoryTime = memory;
    cost.time = std::max(compute, memory) + spec_.launchOverhead;
    cost.achievedFlops = shape.flops() / cost.time;
    cost.utilization = cost.achievedFlops / spec_.matrixPeak(dt);
    cost.activeMacFraction = 1.0;
    cost.geometry = strfmt("%dx%d", tile_m, tile_n);
    cost.engine = GemmEngine::Tc;
    return cost;
}

GemmCost
TensorCoreModel::gemm(const GemmShape &shape, DataType dt) const
{
    GemmCost best;
    bool first = true;
    for (const auto &[tm, tn] : candidateTiles()) {
        GemmCost c = gemmWithTile(shape, dt, tm, tn);
        if (first || c.time < best.time) {
            best = c;
            first = false;
        }
    }
    return best;
}

} // namespace vespera::hw
