#include "analysis/predict/tuner.h"

#include <algorithm>
#include <cmath>

#include "analysis/static/ir.h"
#include "common/logging.h"
#include "hw/mme.h"
#include "obs/counters.h"
#include "obs/selfprof.h"
#include "runtime/parallel.h"

namespace vespera::analysis {

namespace {

/// Knob axes a kernel can expose, in enumeration order.
enum class Axis : int {
    Unroll,
    TpcCount,
    AccessBytes,
    Accumulators,
    Interleave,
    Geometry,
};
constexpr int numAxes = 6;

/// The numeric knob position on `axis` (the x of the power law).
double
axisValue(const TuneConfig &c, Axis axis)
{
    switch (axis) {
      case Axis::Unroll: return c.unroll;
      case Axis::TpcCount: return c.numTpcs;
      case Axis::AccessBytes: return static_cast<double>(c.accessBytes);
      case Axis::Accumulators: return c.accumulators;
      case Axis::Interleave: return c.interleave;
      case Axis::Geometry: return c.geometry;
    }
    return 0;
}

void
setAxisValue(TuneConfig &c, Axis axis, double v)
{
    switch (axis) {
      case Axis::Unroll: c.unroll = static_cast<int>(v); return;
      case Axis::TpcCount: c.numTpcs = static_cast<int>(v); return;
      case Axis::AccessBytes: c.accessBytes = static_cast<Bytes>(v); return;
      case Axis::Accumulators:
        c.accumulators = static_cast<int>(v);
        return;
      case Axis::Interleave: c.interleave = static_cast<int>(v); return;
      case Axis::Geometry: c.geometry = static_cast<int>(v); return;
    }
}

std::vector<double>
axisCandidates(const TunableKernel &k, Axis axis)
{
    std::vector<double> out;
    auto fill = [&out](const auto &axisValues) {
        for (auto v : axisValues)
            out.push_back(static_cast<double>(v));
    };
    switch (axis) {
      case Axis::Unroll: fill(k.unrolls); break;
      case Axis::TpcCount: fill(k.tpcCounts); break;
      case Axis::AccessBytes: fill(k.accessBytes); break;
      case Axis::Accumulators: fill(k.accumulators); break;
      case Axis::Interleave: fill(k.interleaves); break;
      case Axis::Geometry: fill(k.geometries); break;
    }
    return out;
}

/** Per-axis anchor: the variation configuration's basis plus the knob
 *  positions the power-law interpolates between. */
struct AxisAnchor
{
    Axis axis = Axis::Unroll;
    double x0 = 0; ///< Base knob value.
    double x1 = 0; ///< Variation knob value (farthest from x0).
    std::vector<double> basis; ///< Features at the variation config.
};

/**
 * Scale the base-anchor basis to `config`. Positive features follow
 * per-axis power laws composed multiplicatively; features that vanish
 * at an anchor fall back to linear interpolation in the knob value.
 * Exact at every anchor point by construction.
 */
std::vector<double>
scaleBasis(const std::vector<double> &f0,
           const std::vector<AxisAnchor> &anchors,
           const TuneConfig &config)
{
    std::vector<double> out(f0.size());
    for (std::size_t j = 0; j < f0.size(); j++) {
        double v = f0[j];
        double add = 0;
        for (const AxisAnchor &a : anchors) {
            const double x = axisValue(config, a.axis);
            if (x == a.x0)
                continue;
            const double f1 = a.basis[j];
            if (f0[j] > 0 && f1 > 0 && a.x0 > 0 && x > 0) {
                const double e = std::log(f1 / f0[j]) /
                                 std::log(a.x1 / a.x0);
                v *= std::pow(x / a.x0, e);
            } else {
                add += (f1 - f0[j]) * (x - a.x0) / (a.x1 - a.x0);
            }
        }
        out[j] = std::max(0.0, v + add);
    }
    return out;
}

/**
 * MME screening heuristic: geometry-dependent compute cycles (tile
 * rounds times the K-depth plus a switch bubble). Deliberately drops
 * the geometry-independent memory bound and launch overhead — they
 * shift every candidate equally, and the exact gemmWithGeometry pass
 * over the top-k restores full fidelity.
 */
double
mmeProxyCycles(const hw::GemmShape &shape, const hw::MmeGeometry &geom)
{
    const double tilesM =
        std::ceil(static_cast<double>(shape.m) / geom.height);
    const double tilesN =
        std::ceil(static_cast<double>(shape.n) / geom.width);
    const double tiles =
        tilesM * tilesN * static_cast<double>(shape.batch);
    const double rounds = std::ceil(tiles / geom.count);
    return rounds * (static_cast<double>(shape.k) + 16.0) +
           (geom.height + geom.width) / 2.0;
}

double
mmeExactCycles(const TunableKernel &k, const TuneConfig &config)
{
    static const hw::MmeModel model;
    const auto &geoms = hw::MmeModel::candidateGeometries();
    vassert(config.geometry >= 0 &&
                static_cast<std::size_t>(config.geometry) < geoms.size(),
            "MME tunable '%s': bad geometry index", k.name.c_str());
    const hw::GemmCost cost = model.gemmWithGeometry(
        k.gemmShape, k.gemmDt,
        geoms[static_cast<std::size_t>(config.geometry)]);
    return cost.time * model.spec().matrixClock;
}

std::vector<double>
tpcBasisAt(const TunableKernel &k, const TuneConfig &config,
           const tpc::TpcParams &params, double *exactOut)
{
    const tpc::Program program = k.produce(config);
    const StaticIr ir = liftProgram(program);
    vassert(ir.valid(), "tunable '%s' produced a malformed trace",
            k.name.c_str());
    if (exactOut != nullptr)
        *exactOut = tpc::evaluatePipeline(program, params).cycles;
    return extractFeatures(ir, params).basis();
}

} // namespace

std::vector<TuneConfig>
enumerateConfigs(const TunableKernel &k)
{
    std::vector<TuneConfig> configs;
    configs.push_back(k.base);
    for (int a = 0; a < numAxes; a++) {
        const Axis axis = static_cast<Axis>(a);
        const std::vector<double> values = axisCandidates(k, axis);
        if (values.empty())
            continue;
        std::vector<TuneConfig> next;
        next.reserve(configs.size() * values.size());
        for (const TuneConfig &c : configs) {
            for (double v : values) {
                TuneConfig e = c;
                setAxisValue(e, axis, v);
                next.push_back(e);
            }
        }
        configs = std::move(next);
    }
    // The shipped configuration is always part of the space, first.
    std::vector<TuneConfig> out;
    out.reserve(configs.size() + 1);
    out.push_back(k.base);
    for (const TuneConfig &c : configs) {
        if (!(c == k.base))
            out.push_back(c);
    }
    return out;
}

double
exactCycles(const TunableKernel &k, const TuneConfig &config,
            const tpc::TpcParams &params)
{
    if (k.kind == TuneKind::Mme)
        return mmeExactCycles(k, config);
    double cycles = 0;
    (void)tpcBasisAt(k, config, params, &cycles);
    return cycles;
}

TuneResult
autotuneKernel(const TunableKernel &k, const TunerOptions &opts)
{
    const ProxyModel &model =
        opts.model != nullptr ? *opts.model : ProxyModel::builtin();
    auto &registry = obs::CounterRegistry::instance();
    obs::Counter &screenedCtr =
        registry.counter("analysis.predict.configs_screened");
    obs::Counter &verifiedCtr =
        registry.counter("analysis.predict.exact_verifications");
    obs::Counter &anchorCtr =
        registry.counter("analysis.predict.anchor_traces");
    obs::Counter &errCtr =
        registry.counter("analysis.predict.proxy_error_ppm");

    TuneResult result;
    result.kernel = k.name;
    result.shape =
        strfmt("size=%lld", static_cast<long long>(k.base.size));

    // Anchors: the shipped configuration (also the exact baseline)
    // plus one variation per active axis.
    std::vector<double> f0;
    std::vector<AxisAnchor> anchors;
    if (k.kind == TuneKind::Tpc) {
        f0 = tpcBasisAt(k, k.base, opts.params,
                        &result.base.exactCycles);
        result.base.config = k.base;
        result.base.proxyCycles = model.predictBasis(k.name, f0);
        if (opts.exportCounters)
            anchorCtr.add(1);
        for (int a = 0; a < numAxes; a++) {
            const Axis axis = static_cast<Axis>(a);
            const std::vector<double> values = axisCandidates(k, axis);
            if (values.size() < 2)
                continue;
            const double x0 = axisValue(k.base, axis);
            vassert(x0 > 0,
                    "tunable '%s': axis %d enumerated but base value "
                    "is unset",
                    k.name.c_str(), a);
            // Variation point: farthest from the base in log space
            // (widest lever arm for the fitted exponent).
            double x1 = x0;
            for (double v : values) {
                if (std::fabs(std::log(v / x0)) >
                    std::fabs(std::log(x1 / x0))) {
                    x1 = v;
                }
            }
            if (x1 == x0)
                continue;
            AxisAnchor anchor;
            anchor.axis = axis;
            anchor.x0 = x0;
            anchor.x1 = x1;
            TuneConfig varied = k.base;
            setAxisValue(varied, axis, x1);
            anchor.basis =
                tpcBasisAt(k, varied, opts.params, nullptr);
            if (opts.exportCounters)
                anchorCtr.add(1);
            anchors.push_back(std::move(anchor));
        }
    } else {
        result.base.config = k.base;
        result.base.exactCycles = mmeExactCycles(k, k.base);
        result.base.proxyCycles =
            mmeProxyCycles(k.gemmShape,
                           hw::MmeModel::candidateGeometries()
                               [static_cast<std::size_t>(
                                   k.base.geometry)]);
    }

    // Screen the full cross product through the proxy. Pure
    // arithmetic per configuration; the obs counter defers under the
    // parallel capture, so counts are thread-count-invariant.
    const std::vector<TuneConfig> configs = enumerateConfigs(k);
    std::vector<double> proxy;
    {
        obs::SelfTimer timer(obs::SelfCat::KernelEval);
        const bool counters = opts.exportCounters;
        proxy = runtime::parallel_map(
            configs.size(), [&](std::size_t i) {
                double cycles = 0;
                if (k.kind == TuneKind::Mme) {
                    cycles = mmeProxyCycles(
                        k.gemmShape,
                        hw::MmeModel::candidateGeometries()
                            [static_cast<std::size_t>(
                                configs[i].geometry)]);
                } else {
                    cycles = model.predictBasis(
                        k.name, scaleBasis(f0, anchors, configs[i]));
                }
                if (counters)
                    screenedCtr.add(1);
                return cycles;
            });
    }
    result.configsScreened = configs.size();

    // Top-k by proxy (stable: ties break toward enumeration order).
    std::vector<std::size_t> order(configs.size());
    for (std::size_t i = 0; i < order.size(); i++)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&proxy](std::size_t a, std::size_t b) {
                  if (proxy[a] != proxy[b])
                      return proxy[a] < proxy[b];
                  return a < b;
              });
    const std::size_t kTop = std::min<std::size_t>(
        static_cast<std::size_t>(std::max(1, opts.topK)),
        order.size());

    // Exact verification of the survivors.
    double errPpmSum = 0;
    for (std::size_t r = 0; r < kTop; r++) {
        const TuneConfig &config = configs[order[r]];
        TuneCandidate cand;
        cand.config = config;
        cand.proxyCycles = proxy[order[r]];
        cand.exactCycles =
            config == k.base ? result.base.exactCycles
                             : exactCycles(k, config, opts.params);
        if (opts.exportCounters)
            verifiedCtr.add(1);
        errPpmSum += std::round(
            std::fabs(cand.proxyCycles - cand.exactCycles) /
            std::max(1.0, cand.exactCycles) * 1e6);
        result.verified.push_back(cand);
    }
    result.exactVerifications = kTop;
    result.proxyErrorPpm =
        std::round(errPpmSum / static_cast<double>(kTop));
    if (opts.exportCounters)
        errCtr.add(result.proxyErrorPpm);

    std::stable_sort(result.verified.begin(), result.verified.end(),
                     [](const TuneCandidate &a, const TuneCandidate &b) {
                         return a.exactCycles < b.exactCycles;
                     });
    result.best = result.verified.front();
    // Never recommend a regression: the shipped configuration wins
    // ties and beats a mis-screened space.
    if (result.base.exactCycles <= result.best.exactCycles)
        result.best = result.base;
    result.improvementFrac =
        1.0 - result.best.exactCycles /
                  std::max(1.0, result.base.exactCycles);
    return result;
}

std::vector<TuneResult>
autotuneAll(const std::string &filter, const TunerOptions &opts)
{
    std::vector<TuneResult> results;
    for (const std::string &name : TunableRegistry::instance().names()) {
        if (!filter.empty() && name.find(filter) == std::string::npos)
            continue;
        results.push_back(
            autotuneKernel(TunableRegistry::instance().get(name), opts));
    }
    return results;
}

TuneCandidate
exhaustiveBest(const TunableKernel &k, const TunerOptions &opts)
{
    TuneCandidate best;
    for (const TuneConfig &config : enumerateConfigs(k)) {
        const double cycles = exactCycles(k, config, opts.params);
        if (best.exactCycles < 0 || cycles < best.exactCycles) {
            best.config = config;
            best.exactCycles = cycles;
        }
    }
    return best;
}

} // namespace vespera::analysis
