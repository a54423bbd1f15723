#include <gtest/gtest.h>

#include <utility>

#include "tpc/tensor.h"

namespace vespera::tpc {
namespace {

TEST(Tensor, ShapeAndSize)
{
    Tensor t({64, 3}, DataType::FP32);
    EXPECT_EQ(t.rank(), 2);
    EXPECT_EQ(t.dim(0), 64);
    EXPECT_EQ(t.dim(1), 3);
    EXPECT_EQ(t.numElements(), 192);
    EXPECT_EQ(t.bytes(), 192u * 4);
}

TEST(Tensor, Bf16Bytes)
{
    Tensor t({100}, DataType::BF16);
    EXPECT_EQ(t.bytes(), 200u);
}

TEST(Tensor, Dim0Fastest)
{
    Tensor t({4, 3}, DataType::FP32);
    // flat = c0 + 4*c1.
    EXPECT_EQ(t.flatten({0, 0, 0, 0, 0}), 0);
    EXPECT_EQ(t.flatten({1, 0, 0, 0, 0}), 1);
    EXPECT_EQ(t.flatten({0, 1, 0, 0, 0}), 4);
    EXPECT_EQ(t.flatten({3, 2, 0, 0, 0}), 11);
}

TEST(Tensor, FillAndRead)
{
    Tensor t({8}, DataType::FP32);
    t.fill([](std::int64_t i) { return static_cast<float>(i * i); });
    EXPECT_FLOAT_EQ(t.at(std::int64_t{3}), 9.0f);
    EXPECT_FLOAT_EQ(t.at(Int5{7, 0, 0, 0, 0}), 49.0f);
}

TEST(Tensor, RangeViewsContiguousRun)
{
    Tensor t({8}, DataType::FP32);
    t.fill([](std::int64_t i) { return static_cast<float>(i); });
    const float *p = std::as_const(t).range(3, 5);
    EXPECT_FLOAT_EQ(p[0], 3.0f);
    EXPECT_FLOAT_EQ(p[4], 7.0f);
    t.range(6, 2)[1] = -1.0f;
    EXPECT_FLOAT_EQ(t.at(std::int64_t{7}), -1.0f);
}

TEST(Tensor, WriteThroughCoord)
{
    Tensor t({2, 2}, DataType::FP32);
    t.at(Int5{1, 1, 0, 0, 0}) = 5.0f;
    EXPECT_FLOAT_EQ(t.at(std::int64_t{3}), 5.0f);
}

TEST(Tensor, ZeroInitialized)
{
    Tensor t({16}, DataType::BF16);
    for (std::int64_t i = 0; i < 16; i++)
        EXPECT_FLOAT_EQ(t.at(i), 0.0f);
}

// A fresh tensor reads zero everywhere, untouched pages included, and
// copies are deep.
TEST(Tensor, FreshLargeTensorReadsZeroAndCopies)
{
    const std::int64_t n = (1 << 22) + 3;
    Tensor t({n}, DataType::FP32);
    for (const std::int64_t i : {std::int64_t{0}, n / 2, n - 1})
        EXPECT_EQ(t.at(i), 0.0f) << i;

    t.at(n / 2) = 4.5f;
    Tensor copy = t;
    EXPECT_EQ(copy.numElements(), n);
    EXPECT_EQ(copy.at(n / 2), 4.5f);
    EXPECT_EQ(copy.at(n - 1), 0.0f);
    copy.at(std::int64_t{0}) = 1.0f;
    EXPECT_EQ(t.at(std::int64_t{0}), 0.0f);

    Tensor small({8}, DataType::FP32);
    small.fill([](std::int64_t i) { return static_cast<float>(i + 1); });
    const Tensor small_copy = small;
    for (std::int64_t i = 0; i < 8; i++)
        EXPECT_EQ(small_copy.at(i), small.at(i)) << i;
    EXPECT_DEATH((void)small_copy.range(4, 5), "out of bounds");
}

// Storage reads zero on both sides of the mapped-storage cutoff, even
// when it reuses what a same-size tensor just filled and freed.
TEST(Tensor, ReusedStorageReadsZeroAcrossMappedCutoff)
{
    constexpr auto cutoff =
        static_cast<std::int64_t>(kMappedTensorBytes / sizeof(float));
    for (const std::int64_t n : {cutoff - 1, cutoff, 6 * cutoff + 5}) {
        {
            Tensor dirty({n}, DataType::FP32);
            dirty.fill([](std::int64_t i) {
                return static_cast<float>(i % 7 + 1);
            });
        }
        const Tensor t({n}, DataType::FP32);
        for (const std::int64_t i : {std::int64_t{0}, n / 2, n - 1})
            EXPECT_EQ(t.at(i), 0.0f) << n << " elements, at " << i;
    }
}

TEST(TensorDeath, OutOfBounds)
{
    Tensor t({4}, DataType::FP32);
    EXPECT_DEATH((void)t.at(std::int64_t{4}), "out of bounds");
    EXPECT_DEATH((void)t.flatten({0, 1, 0, 0, 0}), "beyond tensor rank");
    // The run is checked as a whole: one element past the end fails.
    EXPECT_DEATH((void)t.range(2, 3), "flat range \\[2, 5\\) out of bounds");
    EXPECT_DEATH((void)t.range(-1, 2), "out of bounds");
}

} // namespace
} // namespace vespera::tpc
