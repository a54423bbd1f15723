/**
 * @file
 * Property-based tests of the matrix-engine cost models: invariants
 * that must hold for every device and GEMM shape.
 */

#include <gtest/gtest.h>

#include "case_subset.h"
#include "hw/mme.h"
#include "kern/gemm.h"

namespace vespera::kern {
namespace {

struct GemmCase
{
    DeviceKind device;
    std::int64_t m, k, n, batch;
};

void
PrintTo(const GemmCase &c, std::ostream *os)
{
    *os << deviceName(c.device) << " " << c.m << "x" << c.k << "x"
        << c.n << " b" << c.batch;
}

class GemmProperty : public ::testing::TestWithParam<GemmCase>
{
};

TEST_P(GemmProperty, CostIsWellFormed)
{
    const auto &p = GetParam();
    auto c = runGemm(p.device, {p.m, p.k, p.n, p.batch},
                     DataType::BF16);
    EXPECT_GT(c.time, 0);
    EXPECT_GT(c.utilization, 0);
    EXPECT_LE(c.utilization, 1.0);
    EXPECT_LE(c.computeTime, c.time);
    EXPECT_LE(c.memoryTime, c.time);
    EXPECT_GT(c.activeMacFraction, 0);
    EXPECT_LE(c.activeMacFraction, 1.0);
    EXPECT_FALSE(c.geometry.empty());
}

TEST_P(GemmProperty, AchievedFlopsConsistent)
{
    const auto &p = GetParam();
    hw::GemmShape shape{p.m, p.k, p.n, p.batch};
    auto c = runGemm(p.device, shape, DataType::BF16);
    EXPECT_NEAR(c.achievedFlops * c.time / shape.flops(), 1.0, 1e-9);
}

TEST_P(GemmProperty, MonotoneInK)
{
    const auto &p = GetParam();
    auto base = runGemm(p.device, {p.m, p.k, p.n, p.batch},
                        DataType::BF16);
    auto doubled = runGemm(p.device, {p.m, 2 * p.k, p.n, p.batch},
                           DataType::BF16);
    EXPECT_GE(doubled.time, base.time);
}

TEST_P(GemmProperty, BatchScalesSanely)
{
    const auto &p = GetParam();
    auto one = runGemm(p.device, {p.m, p.k, p.n, 1}, DataType::BF16);
    auto four = runGemm(p.device, {p.m, p.k, p.n, 4}, DataType::BF16);
    EXPECT_GE(four.time, one.time);
    // Launch overhead amortizes: never more than 4x + epsilon.
    EXPECT_LE(four.time, 4.05 * one.time);
}

TEST_P(GemmProperty, Fp32NeverFasterThanBf16)
{
    const auto &p = GetParam();
    auto bf16 = runGemm(p.device, {p.m, p.k, p.n, p.batch},
                        DataType::BF16);
    auto fp32 = runGemm(p.device, {p.m, p.k, p.n, p.batch},
                        DataType::FP32);
    EXPECT_GE(fp32.time, bf16.time);
}

/** Gaudi-only: registered over the Gaudi-2 cases below. */
void
gaudiConfigurableNeverWorseThanFixed(const GemmCase &p)
{
    hw::MmeModel mme;
    hw::GemmShape shape{p.m, p.k, p.n, p.batch};
    auto fixed = mme.gemmWithGeometry(shape, DataType::BF16,
                                      hw::MmeModel::fixedGeometry());
    auto best = mme.gemm(shape, DataType::BF16);
    // The selector tolerates 2% slack to prefer power-gated configs.
    EXPECT_LE(best.time, fixed.time * 1.021);
}

std::vector<GemmCase>
gemmCases()
{
    std::vector<GemmCase> cases;
    for (DeviceKind dev : {DeviceKind::Gaudi2, DeviceKind::A100}) {
        for (std::int64_t s : {64, 256, 1024, 4096}) {
            cases.push_back({dev, s, s, s, 1});          // Square.
            cases.push_back({dev, s, 4 * s, 16, 1});     // Irregular.
            cases.push_back({dev, 16, s, s, 1});         // Decode-like.
            cases.push_back({dev, s, s, s / 4, 8});      // Batched.
        }
        cases.push_back({dev, 1, 4096, 4096, 32});       // GEMV-ish.
        cases.push_back({dev, 8192, 8192, 8192, 1});     // Large.
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmProperty,
                         ::testing::ValuesIn(gemmCases()));

const bool kGaudiOnlyRegistered =
    testing_util::registerCaseSubset<GemmProperty>(
        "Shapes", "GemmProperty", "GaudiConfigurableNeverWorseThanFixed",
        gemmCases(),
        [](const GemmCase &c) { return c.device == DeviceKind::Gaudi2; },
        gaudiConfigurableNeverWorseThanFixed);

} // namespace
} // namespace vespera::kern
