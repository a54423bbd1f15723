#include "cuda/simt.h"

#include <algorithm>

#include "common/logging.h"

namespace vespera::cuda {

SimtModel::SimtModel(const hw::DeviceSpec &spec)
    : spec_(spec), hbm_(spec)
{
    vassert(spec.kind == DeviceKind::A100,
            "DeviceSpec.kind must be A100 (SimtModel models the A100 "
            "only), got %s", deviceName(spec.kind));
}

CoalescingInfo
SimtModel::coalescing(const WarpAccessPattern &p) const
{
    vassert(p.elementBytes > 0,
            "WarpAccessPattern.elementBytes must be > 0, got %llu",
            static_cast<unsigned long long>(p.elementBytes));
    vassert(p.warpSize > 0, "WarpAccessPattern.warpSize must be > 0, got %d",
            p.warpSize);
    const Bytes sector = spec_.minAccessGranularity;
    // Count the distinct sectors the warp touches (lanes access
    // monotonically increasing addresses).
    std::uint64_t sectors = 0;
    std::uint64_t prev_hi = 0;
    for (int lane = 0; lane < p.warpSize; lane++) {
        const std::uint64_t lo = lane * p.strideBytes / sector;
        const std::uint64_t hi =
            (lane * p.strideBytes + p.elementBytes - 1) / sector;
        if (lane == 0 || lo > prev_hi)
            sectors += hi - lo + 1;
        else if (hi > prev_hi)
            sectors += hi - prev_hi;
        prev_hi = std::max(prev_hi, hi);
    }

    CoalescingInfo info;
    info.sectorsPerWarp = static_cast<int>(sectors);
    info.efficiency =
        static_cast<double>(p.elementBytes) * p.warpSize /
        (static_cast<double>(sectors) * sector);
    return info;
}

KernelCost
SimtModel::stridedSweep(const WarpAccessPattern &pattern,
                        std::uint64_t num_elements) const
{
    vassert(num_elements > 0,
            "stridedSweep num_elements must be > 0, got %llu",
            static_cast<unsigned long long>(num_elements));
    const CoalescingInfo info = coalescing(pattern);
    const double useful =
        static_cast<double>(pattern.elementBytes) * num_elements;
    const double moved = useful / info.efficiency;

    KernelCost cost;
    cost.memoryTime = hbm_.streamTime(static_cast<Bytes>(moved));
    cost.time = cost.memoryTime + spec_.launchOverhead;
    cost.hbmUtilization = useful / (cost.time * spec_.hbmBandwidth);
    return cost;
}

KernelCost
SimtModel::streamKernel(const StreamKernelDesc &desc, DataType dt) const
{
    vassert(desc.numElements > 0,
            "StreamKernelDesc.numElements must be > 0, got %llu",
            static_cast<unsigned long long>(desc.numElements));
    vassert(desc.bytesPerElement >= 0,
            "StreamKernelDesc.bytesPerElement must be >= 0, got %g",
            desc.bytesPerElement);
    vassert(desc.flopsPerElement >= 0,
            "StreamKernelDesc.flopsPerElement must be >= 0, got %g",
            desc.flopsPerElement);

    const double bytes =
        desc.bytesPerElement * static_cast<double>(desc.numElements);
    const double flops =
        desc.flopsPerElement * static_cast<double>(desc.numElements);

    // Non-FMA instructions occupy a full issue slot for one flop, so
    // they top out at half of the FMA-quoted peak.
    const double peak = spec_.vectorPeak(dt) * (desc.usesFma ? 1.0 : 0.5);

    KernelCost cost;
    cost.memoryTime = hbm_.streamTime(static_cast<Bytes>(bytes));
    cost.computeTime = flops / (peak * issueEfficiency_);
    cost.time = std::max(cost.memoryTime, cost.computeTime) +
                spec_.launchOverhead;
    cost.flops = flops;
    cost.achievedFlopsPerSec = flops / cost.time;
    cost.hbmUtilization = bytes / (cost.time * spec_.hbmBandwidth);
    return cost;
}

KernelCost
SimtModel::gatherScatter(Bytes access_size, std::uint64_t num_accesses,
                         bool write, double occupancy_warps) const
{
    vassert(access_size > 0,
            "gatherScatter access_size must be > 0, got %llu",
            static_cast<unsigned long long>(access_size));
    vassert(num_accesses > 0,
            "gatherScatter num_accesses must be > 0, got %llu",
            static_cast<unsigned long long>(num_accesses));
    vassert(occupancy_warps > 0,
            "gatherScatter occupancy_warps must be > 0, got %g",
            occupancy_warps);
    mem::RandomAccessWorkload w;
    w.accessSize = access_size;
    w.numAccesses = num_accesses;
    w.concurrency = occupancy_warps;
    w.write = write;
    mem::RandomAccessResult r = hbm_.randomAccess(w);

    KernelCost cost;
    cost.memoryTime = r.time;
    cost.time = r.time + spec_.launchOverhead;
    cost.hbmUtilization = static_cast<double>(r.usefulBytes) /
                          (cost.time * spec_.hbmBandwidth);
    return cost;
}

} // namespace vespera::cuda
