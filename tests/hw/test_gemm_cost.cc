/**
 * @file
 * The GEMM cost models are pure, and kern::chargeGemm is the one place
 * a costed GEMM reaches the counters and the attribution ledger.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "hw/mme.h"
#include "hw/tensor_core.h"
#include "kern/gemm.h"
#include "obs/attrib.h"
#include "obs/counters.h"
#include "obs/profiler.h"

namespace vespera::hw {
namespace {

/** Every counter's bits as one comparable string. */
std::string
counterDoc()
{
    std::string doc;
    for (const auto &c : obs::CounterRegistry::instance().snapshot())
        doc += strfmt("%s|%a|%a|%llu\n", c.name.c_str(), c.value, c.peak,
                      static_cast<unsigned long long>(c.updates));
    return doc;
}

std::string
costDoc(const GemmCost &c)
{
    return strfmt("%a|%a|%a|%a|%a|%a|%s", c.time, c.computeTime,
                  c.memoryTime, c.achievedFlops, c.utilization,
                  c.activeMacFraction, c.geometry.c_str());
}

/** Shapes that select several different MME geometries and CTA tiles. */
const std::vector<GemmShape> &
shapes()
{
    static const std::vector<GemmShape> s = {
        {8192, 8192, 8192}, {16384, 16384, 16}, {64, 4096, 64},
        {4096, 128, 4096, 4}, {16, 16384, 16384}, {512, 512, 512, 8},
    };
    return s;
}

TEST(GemmCost, ModelsChargeNothing)
{
    // Trace while costing, so a ledger charge would also leave an
    // attributed span behind.
    auto &ledger = obs::AttributionLedger::instance();
    auto &profiler = obs::Profiler::instance();
    profiler.clear();
    ledger.clearRecords();
    profiler.setEnabled(true);

    const std::string before = counterDoc();
    MmeModel mme;
    TensorCoreModel tc;
    for (const GemmShape &s : shapes()) {
        for (DataType dt : {DataType::BF16, DataType::FP32}) {
            (void)mme.gemm(s, dt);
            (void)tc.gemm(s, dt);
        }
    }
    const std::string after = counterDoc();
    profiler.setEnabled(false);

    EXPECT_EQ(after, before);
    EXPECT_TRUE(ledger.records().empty());
    profiler.clear();
}

TEST(GemmCost, ModelsGiveTheSameCostInAnyCallOrder)
{
    MmeModel mme;
    TensorCoreModel tc;
    const std::size_t n = shapes().size();
    auto costs = [&](const std::vector<std::size_t> &order) {
        std::vector<std::string> out(n);
        for (std::size_t i : order)
            out[i] = costDoc(mme.gemm(shapes()[i], DataType::BF16)) +
                     "/" + costDoc(tc.gemm(shapes()[i], DataType::BF16));
        return out;
    };
    std::vector<std::size_t> forward, backward, doubled;
    for (std::size_t i = 0; i < n; i++) {
        forward.push_back(i);
        backward.push_back(n - 1 - i);
        // Each shape right after a different one, then after itself.
        doubled.push_back((i + 1) % n);
        doubled.push_back(i);
        doubled.push_back(i);
    }
    const auto ref = costs(forward);
    EXPECT_EQ(costs(backward), ref);
    EXPECT_EQ(costs(doubled), ref);
}

TEST(GemmCost, ChargeSplitsLaunchByReconfiguration)
{
    auto &reg = obs::CounterRegistry::instance();
    MmeModel mme;
    const GemmShape shape{4096, 4096, 4096};
    const GemmCost c = mme.gemm(shape, DataType::BF16);
    const Seconds launch = gaudi2Spec().launchOverhead;

    auto charge = [&](bool reconfigured) {
        reg.counter("mme.gemms").set(0);
        reg.counter("mme.reconfigs").set(0);
        reg.counter("attrib.mme.reconfig").set(0);
        reg.counter("attrib.mme.exposed_latency").set(0);
        kern::chargeGemm(GemmEngine::Mme, shape, c.geometry, c.time,
                         c.computeTime, c.memoryTime, reconfigured);
    };

    charge(false);
    EXPECT_EQ(reg.counter("mme.gemms").value(), 1.0);
    EXPECT_EQ(reg.counter("mme.reconfigs").value(), 0.0);
    EXPECT_EQ(reg.counter("attrib.mme.reconfig").value(), 0.0);
    EXPECT_NEAR(reg.counter("attrib.mme.exposed_latency").value(), launch,
                1e-12);

    charge(true);
    EXPECT_EQ(reg.counter("mme.gemms").value(), 1.0);
    EXPECT_EQ(reg.counter("mme.reconfigs").value(), 1.0);
    EXPECT_NEAR(reg.counter("attrib.mme.reconfig").value(), launch,
                1e-12);
    EXPECT_EQ(reg.counter("attrib.mme.exposed_latency").value(), 0.0);
}

TEST(GemmCostDeath, TensorCoreNeverReconfigures)
{
    const GemmShape shape{1024, 1024, 1024};
    const GemmCost c = TensorCoreModel().gemm(shape, DataType::BF16);
    EXPECT_DEATH(kern::chargeGemm(GemmEngine::Tc, shape, c.geometry,
                                  c.time, c.computeTime, c.memoryTime,
                                  true),
                 "only the MME reconfigures");
}

} // namespace
} // namespace vespera::hw
