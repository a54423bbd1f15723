/**
 * @file
 * Property-based tests of the collective models across operations,
 * device counts, message sizes, and backends.
 */

#include <gtest/gtest.h>

#include "case_subset.h"
#include "coll/collective.h"

namespace vespera::coll {
namespace {

struct CollCase
{
    CollectiveModel::Backend backend;
    CollectiveOp op;
    int devices;
    Bytes bytes;
};

void
PrintTo(const CollCase &c, std::ostream *os)
{
    *os << (c.backend == CollectiveModel::Backend::Hccl ? "hccl"
                                                        : "nccl")
        << " " << collectiveName(c.op) << " n" << c.devices << " "
        << c.bytes << "B";
}

CollectiveModel
modelFor(const CollCase &c)
{
    return c.backend == CollectiveModel::Backend::Hccl
               ? CollectiveModel::hcclOnGaudi2()
               : CollectiveModel::ncclOnDgxA100();
}

class CollectiveProperty : public ::testing::TestWithParam<CollCase>
{
};

TEST_P(CollectiveProperty, ResultWellFormed)
{
    const auto &p = GetParam();
    auto r = modelFor(p).run(p.op, p.bytes, p.devices);
    EXPECT_GT(r.time, 0);
    EXPECT_GT(r.algoBandwidth, 0);
    EXPECT_GT(r.busBandwidth, 0);
    EXPECT_GT(r.busBandwidthUtilization, 0);
    EXPECT_LE(r.busBandwidthUtilization, 1.0);
}

TEST_P(CollectiveProperty, BusBandwidthAccounting)
{
    const auto &p = GetParam();
    auto r = modelFor(p).run(p.op, p.bytes, p.devices);
    const double factor = CollectiveModel::busFactor(p.op, p.devices);
    EXPECT_NEAR(r.busBandwidth, r.algoBandwidth * factor,
                1e-6 * r.busBandwidth);
    EXPECT_NEAR(r.algoBandwidth,
                static_cast<double>(p.bytes) / r.time,
                1e-6 * r.algoBandwidth);
}

TEST_P(CollectiveProperty, TimeMonotoneInSize)
{
    const auto &p = GetParam();
    auto model = modelFor(p);
    auto small = model.run(p.op, p.bytes, p.devices);
    auto big = model.run(p.op, p.bytes * 4, p.devices);
    EXPECT_GT(big.time, small.time);
    // Utilization never decreases with message size.
    EXPECT_GE(big.busBandwidthUtilization,
              small.busBandwidthUtilization);
}

TEST_P(CollectiveProperty, LatencyFloor)
{
    const auto &p = GetParam();
    auto model = modelFor(p);
    auto tiny = model.run(p.op, 1, p.devices);
    // Even 1-byte collectives pay the software + link latency.
    EXPECT_GT(tiny.time, 5e-6);
}

/** HCCL below 8 devices: registered over those cases below. */
void
hcclScalesWithDevices(const CollCase &p)
{
    auto model = modelFor(p);
    auto fewer = model.run(p.op, p.bytes, p.devices);
    auto more = model.run(p.op, p.bytes, 8);
    // With more P2P links active, utilization never drops.
    EXPECT_GE(more.busBandwidthUtilization,
              fewer.busBandwidthUtilization * 0.99);
}

std::vector<CollCase>
collCases()
{
    std::vector<CollCase> cases;
    const CollectiveOp ops[] = {
        CollectiveOp::AllReduce,     CollectiveOp::AllGather,
        CollectiveOp::ReduceScatter, CollectiveOp::AllToAll,
        CollectiveOp::Reduce,        CollectiveOp::Broadcast,
    };
    for (auto backend : {CollectiveModel::Backend::Hccl,
                         CollectiveModel::Backend::Nccl}) {
        for (auto op : ops) {
            for (int n : {2, 4, 8}) {
                cases.push_back({backend, op, n, 64 * 1024});
                cases.push_back({backend, op, n, 8 * 1024 * 1024});
            }
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CollectiveProperty,
                         ::testing::ValuesIn(collCases()));

const bool kHcclScalingRegistered =
    testing_util::registerCaseSubset<CollectiveProperty>(
        "Sweep", "CollectiveProperty", "HcclScalesWithDevices",
        collCases(),
        [](const CollCase &c) {
            return c.backend == CollectiveModel::Backend::Hccl &&
                   c.devices < 8;
        },
        hcclScalesWithDevices);

} // namespace
} // namespace vespera::coll
