/**
 * @file
 * Tests of the proxy cost model: the ±15% held-out accuracy contract
 * on every registry kernel family, the pin between the committed
 * coefficient artifact (tools/predict_coeffs.json) and the compiled-in
 * copy, artifact schema validation, and the fitter itself on synthetic
 * data.
 */

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "analysis/predict/calibrate.h"
#include "analysis/predict/features.h"
#include "analysis/predict/proxy.h"
#include "analysis/predict/tunable.h"
#include "analysis/static/ir.h"
#include "tpc/pipeline.h"

namespace vespera::analysis {
namespace {

/// The accuracy contract (proxy.h): held-out shapes within ±15% of
/// tpc::evaluatePipeline for every registry kernel family.
constexpr double kContractErr = 0.15;

TEST(PredictProxy, BuiltinMatchesCommittedArtifact)
{
    const char *path =
        VESPERA_SOURCE_DIR "/tools/predict_coeffs.json";
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing committed artifact " << path;
    std::stringstream buf;
    buf << in.rdbuf();
    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(buf.str(), doc, &error)) << error;
    ProxyModel committed;
    ASSERT_TRUE(ProxyModel::fromJson(doc, committed, &error)) << error;

    const ProxyModel &builtin = ProxyModel::builtin();
    ASSERT_EQ(builtin.families().size(), committed.families().size())
        << "regenerate src/analysis/predict/coeffs_builtin.inc from "
           "tools/predict_coeffs.json";
    for (const auto &[name, weights] : committed.families()) {
        ASSERT_TRUE(builtin.hasFamily(name)) << name;
        const std::vector<double> &b = builtin.families().at(name);
        ASSERT_EQ(b.size(), weights.size());
        for (std::size_t j = 0; j < weights.size(); j++)
            EXPECT_DOUBLE_EQ(b[j], weights[j]) << name << "[" << j << "]";
    }
}

TEST(PredictProxy, HeldOutAccuracyContract)
{
    registerTunableKernels();
    const ProxyModel &model = ProxyModel::builtin();
    const tpc::TpcParams params = tpc::TpcParams::forGaudi2();
    const TunableRegistry &reg = TunableRegistry::instance();
    int families = 0;
    for (const std::string &name : reg.names()) {
        const TunableKernel &k = reg.get(name);
        if (k.kind != TuneKind::Tpc)
            continue;
        families++;
        ASSERT_TRUE(model.hasFamily(name)) << name;
        for (std::int64_t size : k.heldOutSizes) {
            TuneConfig c = k.base;
            c.size = size;
            const tpc::Program program = k.produce(c);
            const StaticIr ir = liftProgram(program);
            ASSERT_TRUE(ir.valid()) << name;
            const double exact =
                tpc::evaluatePipeline(program, params).cycles;
            const double predicted = model.predictBasis(
                name, extractFeatures(ir, params).basis());
            EXPECT_LE(std::fabs(predicted - exact) /
                          std::max(1.0, exact),
                      kContractErr)
                << name << " size=" << size << ": predicted "
                << predicted << " vs exact " << exact;
        }
    }
    // The 11-kernel registry contract: every TPC family is covered.
    EXPECT_EQ(families, 11);
}

TEST(PredictProxy, PredictionIsDeterministicAcrossRuns)
{
    registerTunableKernels();
    const ProxyModel &model = ProxyModel::builtin();
    const TunableKernel &k =
        TunableRegistry::instance().get("stream_triad_tuned");
    const tpc::Program program = k.produce(k.base);
    const StaticIr ir = liftProgram(program);
    const std::vector<double> basis = extractFeatures(ir).basis();
    const double first = model.predictBasis(k.name, basis);
    for (int i = 0; i < 8; i++) {
        // Byte-identical, not approximately equal: the prediction is
        // a fixed-order dot product with no ambient state.
        const double again = model.predictBasis(
            k.name, extractFeatures(liftProgram(program)).basis());
        EXPECT_EQ(std::memcmp(&first, &again, sizeof first), 0);
    }
}

TEST(PredictProxy, UnknownFamilyFallsBackToDefault)
{
    ProxyModel m;
    std::vector<double> w(FeatureVector::basisNames().size(), 0.0);
    w[1] = 2.0; // cycles = 2 x instructions.
    m.setFamily("default", w);
    std::vector<double> basis(w.size(), 0.0);
    basis[0] = 1.0;
    basis[1] = 21.0;
    EXPECT_DOUBLE_EQ(m.predictBasis("no-such-kernel", basis), 42.0);
}

TEST(PredictProxy, PredictionClampsToOneCycle)
{
    ProxyModel m;
    std::vector<double> w(FeatureVector::basisNames().size(), 0.0);
    w[0] = -100.0;
    m.setFamily("default", w);
    std::vector<double> basis(w.size(), 0.0);
    basis[0] = 1.0;
    EXPECT_DOUBLE_EQ(m.predictBasis("x", basis), 1.0);
}

TEST(PredictProxy, FromJsonRejectsBadArtifacts)
{
    ProxyModel m;
    std::string error;
    json::Value doc;
    ASSERT_TRUE(json::parse("{\"schema\":\"bogus/v0\"}", doc, &error));
    EXPECT_FALSE(ProxyModel::fromJson(doc, m, &error));
    EXPECT_NE(error.find("vespera-predict-coeffs"), std::string::npos);

    // Right schema, wrong basis.
    std::string text =
        std::string("{\"schema\":\"") + kProxyCoeffsSchema +
        "\",\"basis\":[\"bias\"],\"families\":{\"default\":[1]}}";
    ASSERT_TRUE(json::parse(text, doc, &error));
    EXPECT_FALSE(ProxyModel::fromJson(doc, m, &error));

    // Valid basis but no default family.
    const ProxyModel &builtin = ProxyModel::builtin();
    json::Value good = builtin.toJson();
    std::string serialized = json::serialize(good);
    ASSERT_TRUE(json::parse(serialized, doc, &error));
    ProxyModel roundTrip;
    EXPECT_TRUE(ProxyModel::fromJson(doc, roundTrip, &error)) << error;
    EXPECT_EQ(roundTrip.families().size(), builtin.families().size());
}

TEST(PredictProxy, FitterRecoversALinearModel)
{
    // Synthetic family: cycles = 10 + 3*instructions + 0.5*mem_bound.
    const std::size_t dims = FeatureVector::basisNames().size();
    std::vector<CalibrationSample> samples;
    for (int i = 1; i <= 20; i++) {
        std::vector<double> basis(dims, 0.0);
        basis[0] = 1.0;
        basis[1] = i * 7.0;
        basis[3] = i * i * 1.5;
        const double y = 10.0 + 3.0 * basis[1] + 0.5 * basis[3];
        samples.push_back({"synthetic", basis, y, 1.0});
    }
    const ProxyModel m = fitProxyModel(samples, 1e-6);
    for (const CalibrationSample &s : samples) {
        const double p = m.predictBasis("synthetic", s.basis);
        EXPECT_NEAR(p / s.exactCycles, 1.0, 0.01);
    }
    // Extrapolation beyond the fitted range stays on the line.
    std::vector<double> basis(dims, 0.0);
    basis[0] = 1.0;
    basis[1] = 50 * 7.0;
    basis[3] = 2500 * 1.5;
    const double want = 10.0 + 3.0 * basis[1] + 0.5 * basis[3];
    EXPECT_NEAR(m.predictBasis("synthetic", basis) / want, 1.0, 0.02);
}

TEST(PredictProxy, CalibrationReportCoversAllTpcFamilies)
{
    registerTunableKernels();
    // Filtered calibration: one family, so this stays fast enough for
    // the default test tier. Full-registry calibration runs in CI's
    // predict-accuracy job via `vespera-lint tune --calibrate`.
    const CalibrationReport report = calibrateProxy("softmax");
    ASSERT_EQ(report.families.size(), 1u);
    EXPECT_EQ(report.families[0].name, "softmax");
    EXPECT_GT(report.families[0].samples, 0u);
    EXPECT_LE(report.families[0].maxHeldOutErr, kContractErr);
    EXPECT_TRUE(report.model.hasFamily("softmax"));
    EXPECT_TRUE(report.model.hasFamily("default"));
}

} // namespace
} // namespace vespera::analysis
