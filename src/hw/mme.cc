#include "hw/mme.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace vespera::hw {

std::string
MmeGeometry::label() const
{
    if (count > 1)
        return strfmt("%dx(%dx%d)", count, height, width);
    return strfmt("%dx%d", height, width);
}

MmeModel::MmeModel(const DeviceSpec &spec)
    : spec_(spec)
{
    vassert(spec.kind == DeviceKind::Gaudi2,
            "MmeModel models the Gaudi MME family only");
    // Physical 256x256 MAC units implied by the peak and clock.
    mmeCount_ = std::max(
        1, static_cast<int>(std::lround(
               spec.matrixPeakBf16 / (spec.matrixClock * 2 * 65536))));
    geometries_ = buildGeometries(mmeCount_);
}

std::vector<MmeGeometry>
MmeModel::buildGeometries(int mme_count)
{
    vassert(mme_count >= 1, "need at least one MME");
    // Aspect ratios the array can reshape into (paper Figure 6(b)),
    // including power-gated subsets used for small GEMM shapes (paper
    // Figure 7(a): gray configurations activate only part of the
    // MAC array).
    static constexpr std::pair<int, int> aspects[] = {
        {256, 256}, {512, 256}, {256, 512}, {1024, 128}, {128, 1024},
        {512, 128}, {128, 512}, {256, 128}, {128, 256}, {128, 128},
        {64, 64},
    };
    const int max_macs = mme_count * 65536;
    std::vector<MmeGeometry> geoms;
    for (auto [h, w] : aspects) {
        for (int c = 1; c <= mme_count; c *= 2) {
            if (h * w * c <= max_macs)
                geoms.push_back({h, w, c});
        }
    }
    return geoms;
}

const std::vector<MmeGeometry> &
MmeModel::candidateGeometries()
{
    // Gaudi-2's set: two physical MME units.
    static const std::vector<MmeGeometry> geoms = buildGeometries(2);
    return geoms;
}

GemmCost
MmeModel::gemmWithGeometry(const GemmShape &shape, DataType dt,
                           const MmeGeometry &geom) const
{
    vassert(shape.m > 0 && shape.k > 0 && shape.n > 0 && shape.batch > 0,
            "degenerate GEMM shape");

    const double tiles_m = std::ceil(static_cast<double>(shape.m) /
                                     geom.height);
    const double tiles_n = std::ceil(static_cast<double>(shape.n) /
                                     geom.width);
    const double tiles = tiles_m * tiles_n * shape.batch;
    // Output-stationary: each tile streams K operand rows/columns; the
    // array pipeline is filled once (height+width) and consecutive tiles
    // overlap drain with fill, leaving only a small tile-switch bubble.
    const double fill = geom.height + geom.width;
    const double rounds = std::ceil(tiles / geom.count);
    const double cycles =
        fill + rounds * (static_cast<double>(shape.k) + tileOverheadCycles_);

    // FP32 GEMMs run at the device's reduced FP32 matrix rate.
    const double rate_scale =
        dt == DataType::FP32 ? 1.0 / spec_.fp32MatrixRatio : 1.0;
    const Seconds compute = cycles * rate_scale / spec_.matrixClock;

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
    cost.activeMacFraction = static_cast<double>(geom.totalMacs()) /
                             (mmeCount_ * 65536.0);
    cost.geometry = geom.label();
    cost.engine = GemmEngine::Mme;
    return cost;
}

MmeGeometry
MmeModel::selectGeometry(const GemmShape &shape, DataType dt) const
{
    // First pass: the fastest configuration.
    Seconds best_time = 0;
    bool first = true;
    for (const auto &g : geometries_) {
        GemmCost c = gemmWithGeometry(shape, dt, g);
        if (first || c.time < best_time) {
            best_time = c.time;
            first = false;
        }
    }
    // Second pass: among configurations within 2% of the fastest,
    // prefer the fewest powered MACs (the paper speculates the MME
    // power-gates inactive portions of the array for small shapes).
    const MmeGeometry *best = nullptr;
    for (const auto &g : geometries_) {
        GemmCost c = gemmWithGeometry(shape, dt, g);
        if (c.time > best_time * 1.02)
            continue;
        if (!best || g.totalMacs() < best->totalMacs())
            best = &g;
    }
    vassert(best, "no geometry selected");
    return *best;
}

GemmCost
MmeModel::gemm(const GemmShape &shape, DataType dt) const
{
    return gemmWithGeometry(shape, dt, selectGeometry(shape, dt));
}

} // namespace vespera::hw
