#include <gtest/gtest.h>

#include "cuda/simt.h"

namespace vespera::cuda {
namespace {

class SimtTest : public ::testing::Test
{
  protected:
    SimtModel model_;
};

TEST_F(SimtTest, StreamAddIsMemoryBound)
{
    StreamKernelDesc add;
    add.numElements = 24 << 20;
    add.bytesPerElement = 6; // Two BF16 reads, one write.
    add.flopsPerElement = 1;
    add.usesFma = false;
    KernelCost c = model_.streamKernel(add, DataType::BF16);
    EXPECT_TRUE(c.memoryBound());
    EXPECT_GT(c.hbmUtilization, 0.7);
}

TEST_F(SimtTest, HighIntensityIsComputeBound)
{
    StreamKernelDesc k;
    k.numElements = 24 << 20;
    k.bytesPerElement = 6;
    k.flopsPerElement = 1024;
    k.usesFma = true;
    KernelCost c = model_.streamKernel(k, DataType::BF16);
    EXPECT_FALSE(c.memoryBound());
    // Saturates near peak (paper Fig 8f: ~98% for TRIAD).
    EXPECT_GT(c.achievedFlopsPerSec,
              0.9 * hw::a100Spec().vectorPeakBf16);
}

// Figure 8(d,e): non-FMA kernels (ADD/SCALE) top out at 50% of the
// FMA-quoted vector peak on both devices.
TEST_F(SimtTest, NonFmaHalvesComputeCeiling)
{
    StreamKernelDesc k;
    k.numElements = 1 << 20;
    k.bytesPerElement = 6;
    k.flopsPerElement = 4096;
    k.usesFma = false;
    KernelCost c = model_.streamKernel(k, DataType::BF16);
    double util = c.achievedFlopsPerSec / hw::a100Spec().vectorPeakBf16;
    EXPECT_GT(util, 0.45);
    EXPECT_LT(util, 0.51);
}

TEST_F(SimtTest, GatherUtilizationByVectorSize)
{
    KernelCost big = model_.gatherScatter(512, 1 << 20, false);
    KernelCost small = model_.gatherScatter(16, 1 << 20, false);
    EXPECT_GT(big.hbmUtilization, small.hbmUtilization);
    EXPECT_GT(big.hbmUtilization, 0.5);
}

TEST_F(SimtTest, ScatterSlowerThanGatherSubSector)
{
    KernelCost gather = model_.gatherScatter(16, 1 << 20, false);
    KernelCost scatter = model_.gatherScatter(16, 1 << 20, true);
    EXPECT_GT(scatter.time, gather.time);
}

TEST_F(SimtTest, CoalescedAccessIsFullyEfficient)
{
    // 32 lanes x 4 B contiguous = 128 B = 4 sectors, 100% useful.
    WarpAccessPattern p{4, 4, 32};
    auto info = model_.coalescing(p);
    EXPECT_EQ(info.sectorsPerWarp, 4);
    EXPECT_DOUBLE_EQ(info.efficiency, 1.0);
}

TEST_F(SimtTest, StridedAccessShatters)
{
    // 4 B elements, 128 B apart: one sector per lane, 4/32 useful.
    WarpAccessPattern p{4, 128, 32};
    auto info = model_.coalescing(p);
    EXPECT_EQ(info.sectorsPerWarp, 32);
    EXPECT_NEAR(info.efficiency, 4.0 / 32, 1e-12);
}

TEST_F(SimtTest, ModerateStridePartiallyCoalesces)
{
    // 4 B elements, 8 B apart: two lanes share each 32 B sector.
    WarpAccessPattern p{4, 8, 32};
    auto info = model_.coalescing(p);
    EXPECT_EQ(info.sectorsPerWarp, 8);
    EXPECT_DOUBLE_EQ(info.efficiency, 0.5);
}

TEST_F(SimtTest, WideElementsSpanSectors)
{
    // 64 B elements back to back: 2 sectors each, fully useful.
    WarpAccessPattern p{64, 64, 32};
    auto info = model_.coalescing(p);
    EXPECT_EQ(info.sectorsPerWarp, 64);
    EXPECT_DOUBLE_EQ(info.efficiency, 1.0);
}

TEST_F(SimtTest, StridedSweepCostTracksEfficiency)
{
    const std::uint64_t n = 1 << 22;
    auto coalesced = model_.stridedSweep({4, 4, 32}, n);
    auto shattered = model_.stridedSweep({4, 128, 32}, n);
    EXPECT_NEAR(shattered.memoryTime / coalesced.memoryTime, 8.0, 0.01);
    EXPECT_GT(coalesced.hbmUtilization,
              5 * shattered.hbmUtilization);
}

TEST_F(SimtTest, Fp32HalvesVectorPeak)
{
    StreamKernelDesc k;
    k.numElements = 1 << 20;
    k.bytesPerElement = 12;
    k.flopsPerElement = 4096;
    k.usesFma = true;
    KernelCost bf16 = model_.streamKernel(k, DataType::BF16);
    KernelCost fp32 = model_.streamKernel(k, DataType::FP32);
    EXPECT_NEAR(fp32.computeTime / bf16.computeTime, 2.0, 0.01);
}

// Degenerate geometry must die loudly, not produce a zero-time (or
// NaN-utilization) cost that silently poisons a roofline downstream.
// Each check names the field (or parameter) and the offending value.
TEST_F(SimtTest, EmptyStreamKernelDies)
{
    StreamKernelDesc k;
    k.numElements = 0;
    EXPECT_DEATH((void)model_.streamKernel(k, DataType::BF16),
                 "StreamKernelDesc\\.numElements must be > 0, got 0");
}

TEST_F(SimtTest, NegativeIntensityDies)
{
    StreamKernelDesc k;
    k.numElements = 1 << 10;
    k.bytesPerElement = -4;
    EXPECT_DEATH((void)model_.streamKernel(k, DataType::BF16),
                 "StreamKernelDesc\\.bytesPerElement must be >= 0, "
                 "got -4");
}

TEST_F(SimtTest, NegativeFlopsPerElementDies)
{
    StreamKernelDesc k;
    k.numElements = 1 << 10;
    k.bytesPerElement = 4;
    k.flopsPerElement = -1;
    EXPECT_DEATH((void)model_.streamKernel(k, DataType::BF16),
                 "StreamKernelDesc\\.flopsPerElement must be >= 0, "
                 "got -1");
}

TEST_F(SimtTest, EmptySweepDies)
{
    EXPECT_DEATH((void)model_.stridedSweep({4, 4, 32}, 0),
                 "stridedSweep num_elements must be > 0, got 0");
}

TEST_F(SimtTest, ZeroLaneWarpPatternDies)
{
    EXPECT_DEATH((void)model_.coalescing({4, 4, 0}),
                 "WarpAccessPattern\\.warpSize must be > 0, got 0");
}

TEST_F(SimtTest, ZeroElementBytesWarpPatternDies)
{
    EXPECT_DEATH((void)model_.coalescing({0, 4, 32}),
                 "WarpAccessPattern\\.elementBytes must be > 0, got 0");
}

TEST_F(SimtTest, EmptyGatherScatterDies)
{
    EXPECT_DEATH((void)model_.gatherScatter(0, 1 << 10, false),
                 "gatherScatter access_size must be > 0, got 0");
}

TEST_F(SimtTest, ZeroAccessGatherScatterDies)
{
    EXPECT_DEATH((void)model_.gatherScatter(16, 0, false),
                 "gatherScatter num_accesses must be > 0, got 0");
}

TEST_F(SimtTest, ZeroOccupancyGatherDies)
{
    EXPECT_DEATH((void)model_.gatherScatter(16, 1 << 10, false, 0.0),
                 "gatherScatter occupancy_warps must be > 0, got 0");
}

TEST(SimtDeath, NonA100SpecDies)
{
    EXPECT_DEATH(SimtModel{hw::gaudi2Spec()},
                 "DeviceSpec\\.kind must be A100 .*got Gaudi");
}

} // namespace
} // namespace vespera::cuda
