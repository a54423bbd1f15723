#include "analysis/predict/calibrate.h"

#include <cmath>

#include "analysis/predict/features.h"
#include "analysis/predict/tuner.h"
#include "analysis/static/ir.h"
#include "common/logging.h"

namespace vespera::analysis {

namespace {

struct Sample
{
    std::vector<double> basis;
    double exactCycles = 0;
};

Sample
sampleAt(const TunableKernel &k, const TuneConfig &config,
         const tpc::TpcParams &params)
{
    const tpc::Program program = k.produce(config);
    const StaticIr ir = liftProgram(program);
    vassert(ir.valid(),
            "tunable '%s' produced a malformed trace during "
            "calibration",
            k.name.c_str());
    Sample s;
    s.basis = extractFeatures(ir, params).basis();
    s.exactCycles = tpc::evaluatePipeline(program, params).cycles;
    return s;
}

/** Calibration configurations: the full knob cross product
 *  (enumerateConfigs) at every calibration size. The cross product is
 *  exactly what screening must rank, and sweeping it per size lets
 *  the fit observe size x knob interactions — without them the
 *  held-out size extrapolation (the ±15% contract) is dominated by
 *  whichever knob configurations happen to share the base size. */
std::vector<TuneConfig>
calibrationConfigs(const TunableKernel &k)
{
    std::vector<TuneConfig> configs;
    for (std::int64_t size : k.sizes) {
        for (TuneConfig c : enumerateConfigs(k)) {
            c.size = size;
            configs.push_back(c);
        }
    }
    return configs;
}

} // namespace

CalibrationReport
calibrateProxy(const std::string &filter, const tpc::TpcParams &params,
               double ridgeLambda)
{
    const TunableRegistry &reg = TunableRegistry::instance();
    std::vector<CalibrationSample> samples;
    std::vector<std::string> fitted;
    for (const std::string &name : reg.names()) {
        const TunableKernel &k = reg.get(name);
        if (k.kind != TuneKind::Tpc)
            continue; // MME screening is closed-form, not fitted.
        if (!filter.empty() && name.find(filter) == std::string::npos)
            continue;
        for (const TuneConfig &config : calibrationConfigs(k)) {
            const Sample s = sampleAt(k, config, params);
            // The held-out contract is evaluated on the base-knob
            // size sweep; emphasize those rows so knob variations
            // (which only need to rank) cannot pull the fit off it.
            TuneConfig baseAtSize = k.base;
            baseAtSize.size = config.size;
            const double weight = config == baseAtSize ? 64.0 : 1.0;
            samples.push_back({name, s.basis, s.exactCycles, weight});
        }
        fitted.push_back(name);
    }
    vassert(!samples.empty(), "no tunable kernels match '%s'",
            filter.c_str());

    CalibrationReport report;
    report.model = fitProxyModel(samples, ridgeLambda);

    for (const std::string &name : fitted) {
        const TunableKernel &k = reg.get(name);
        CalibrationFamily fam;
        fam.name = name;
        for (const CalibrationSample &s : samples) {
            if (s.family != name)
                continue;
            fam.samples++;
            const double predicted =
                report.model.predictBasis(name, s.basis);
            fam.maxCalibrationErr = std::max(
                fam.maxCalibrationErr,
                std::fabs(predicted - s.exactCycles) /
                    std::max(1.0, s.exactCycles));
        }
        for (std::int64_t size : k.heldOutSizes) {
            TuneConfig c = k.base;
            c.size = size;
            const Sample s = sampleAt(k, c, params);
            const double predicted =
                report.model.predictBasis(name, s.basis);
            fam.maxHeldOutErr = std::max(
                fam.maxHeldOutErr,
                std::fabs(predicted - s.exactCycles) /
                    std::max(1.0, s.exactCycles));
        }
        report.families.push_back(fam);
    }
    return report;
}

} // namespace vespera::analysis
