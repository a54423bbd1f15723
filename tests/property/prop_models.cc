/**
 * @file
 * Property-based tests of the end-to-end model simulators (Llama and
 * DLRM) across devices, shapes, and parallelism degrees.
 */

#include <gtest/gtest.h>

#include "models/dlrm.h"
#include "models/llama.h"

namespace vespera::models {
namespace {

// ---------------------------------------------------------------- Llama

struct LlamaCase
{
    DeviceKind device;
    int batch;
    int tp;
    AttentionBackend backend;
};

void
PrintTo(const LlamaCase &c, std::ostream *os)
{
    *os << deviceName(c.device) << " b" << c.batch << " tp" << c.tp;
}

class LlamaProperty : public ::testing::TestWithParam<LlamaCase>
{
  protected:
    LlamaProperty()
        : model_(LlamaConfig::llama31_8b())
    {
    }
    LlamaModel model_;
};

TEST_P(LlamaProperty, StepTimeMonotoneInContext)
{
    const auto &p = GetParam();
    LlamaServingConfig cfg;
    cfg.tpDevices = p.tp;
    cfg.attention = p.backend;
    Seconds prev = 0;
    for (std::int64_t ctx : {128, 512, 2048, 8192}) {
        Seconds t = model_.stepTime(p.device, p.batch, 1, ctx, false,
                                    cfg);
        EXPECT_GT(t, prev) << "ctx " << ctx;
        prev = t;
    }
}

TEST_P(LlamaProperty, StepTimeMonotoneInBatch)
{
    const auto &p = GetParam();
    LlamaServingConfig cfg;
    cfg.tpDevices = p.tp;
    cfg.attention = p.backend;
    Seconds t1 = model_.stepTime(p.device, 1, 1, 1024, false, cfg);
    Seconds t2 = model_.stepTime(p.device, 4 * p.batch, 1, 1024, false,
                                 cfg);
    EXPECT_GE(t2, t1);
}

TEST_P(LlamaProperty, TensorParallelismShrinksStepTime)
{
    // Compares TP=1 with TP=4 at the case's device, batch and backend,
    // whatever the case's own TP degree.
    const auto &p = GetParam();
    LlamaServingConfig one;
    one.attention = p.backend;
    LlamaServingConfig four = one;
    four.tpDevices = 4;
    Seconds t1 = model_.stepTime(p.device, p.batch, 1, 2048, false,
                                 one);
    Seconds t4 = model_.stepTime(p.device, p.batch, 1, 2048, false,
                                 four);
    // Communication keeps it well above a 4x speedup.
    EXPECT_LT(t4, t1);
    EXPECT_GT(t4, t1 / 4);
}

TEST_P(LlamaProperty, ServeTotalsConsistent)
{
    const auto &p = GetParam();
    LlamaServingConfig cfg;
    cfg.batch = p.batch;
    cfg.outputLen = 50;
    cfg.tpDevices = p.tp;
    cfg.attention = p.backend;
    auto r = model_.serve(p.device, cfg);
    EXPECT_NEAR(r.totalTime, r.prefillTime + r.decodeTime, 1e-12);
    EXPECT_NEAR(r.tokensPerSec * r.totalTime,
                static_cast<double>(p.batch) * 50, 1e-6);
    EXPECT_GT(r.avgPowerPerDevice,
              hw::deviceSpec(p.device).idlePower);
    EXPECT_LE(r.avgPowerPerDevice, hw::deviceSpec(p.device).tdp);
    EXPECT_NEAR(r.energy,
                r.avgPowerPerDevice * r.totalTime * p.tp, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LlamaProperty,
    ::testing::Values(
        LlamaCase{DeviceKind::Gaudi2, 1, 1, AttentionBackend::Static},
        LlamaCase{DeviceKind::Gaudi2, 16, 1, AttentionBackend::Static},
        LlamaCase{DeviceKind::Gaudi2, 16, 4,
                  AttentionBackend::VllmOpt},
        LlamaCase{DeviceKind::Gaudi2, 64, 1,
                  AttentionBackend::VllmBase},
        LlamaCase{DeviceKind::A100, 1, 1, AttentionBackend::Static},
        LlamaCase{DeviceKind::A100, 16, 4, AttentionBackend::VllmOpt},
        LlamaCase{DeviceKind::A100, 64, 1, AttentionBackend::Static}));

// ----------------------------------------------------------------- DLRM

struct DlrmCase
{
    DeviceKind device;
    int batch;
    Bytes vecBytes;
};

void
PrintTo(const DlrmCase &c, std::ostream *os)
{
    *os << deviceName(c.device) << " b" << c.batch << " v"
        << c.vecBytes;
}

class DlrmProperty : public ::testing::TestWithParam<DlrmCase>
{
  protected:
    DlrmProperty()
        : model_([] {
              DlrmConfig c = DlrmConfig::rm2();
              c.rowsPerTable = 1 << 12;
              return c;
          }())
    {
    }
    DlrmModel model_;
};

TEST_P(DlrmProperty, ReportWellFormed)
{
    const auto &p = GetParam();
    DlrmRunConfig run;
    run.batch = p.batch;
    run.embVectorBytes = p.vecBytes;
    Rng rng(3);
    auto r = model_.run(p.device, run, rng);
    EXPECT_GT(r.time, 0);
    EXPECT_NEAR(r.time, r.embeddingTime + r.denseTime, 1e-12);
    EXPECT_NEAR(r.samplesPerSec * r.time, p.batch, 1e-6);
    EXPECT_GT(r.power, hw::deviceSpec(p.device).idlePower);
    EXPECT_LE(r.power, hw::deviceSpec(p.device).tdp);
}

TEST_P(DlrmProperty, ThroughputGrowsWithBatch)
{
    const auto &p = GetParam();
    DlrmRunConfig run;
    run.embVectorBytes = p.vecBytes;
    Rng rng(4);
    run.batch = p.batch;
    auto small = model_.run(p.device, run, rng);
    run.batch = p.batch * 4;
    auto big = model_.run(p.device, run, rng);
    EXPECT_GT(big.samplesPerSec, small.samplesPerSec);
}

TEST_P(DlrmProperty, MultiDeviceConsistent)
{
    const auto &p = GetParam();
    ASSERT_EQ(p.batch % 4, 0) << "the batch must split across 4 devices";
    DlrmRunConfig run;
    run.batch = p.batch;
    run.embVectorBytes = p.vecBytes;
    Rng rng(5);
    auto multi = model_.runMultiDevice(p.device, run, 4, rng);
    EXPECT_GT(multi.commTime, 0);
    EXPECT_NEAR(multi.time,
                multi.embeddingTime + multi.commTime + multi.denseTime,
                1e-12);
    // 4 devices consume energy; per-sample energy stays finite.
    EXPECT_GT(multi.samplesPerJoule, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DlrmProperty,
    ::testing::Values(DlrmCase{DeviceKind::Gaudi2, 256, 64},
                      DlrmCase{DeviceKind::Gaudi2, 256, 512},
                      DlrmCase{DeviceKind::Gaudi2, 2048, 128},
                      DlrmCase{DeviceKind::A100, 256, 64},
                      DlrmCase{DeviceKind::A100, 2048, 256}));

} // namespace
} // namespace vespera::models
