/**
 * @file
 * The static design-space autotuner: enumerate a tunable kernel's
 * knob cross product (unroll x TPC count x access granularity x
 * gather accumulators / embedding interleave x MME geometry), screen
 * every configuration through the proxy cost model, then verify only
 * the top-k survivors with the timing model itself and report the
 * best configuration found as a machine-readable fix hint.
 *
 * Screening never traces: the tuner records one anchor trace at the
 * shipped configuration plus one per active axis, then scales the
 * anchor's feature basis to any configuration with per-axis power laws
 * (exponent log(f1/f0)/log(x1/x0), linear fallback when a feature
 * vanishes at an anchor). One screened configuration costs a handful
 * of multiplies and a dot product — thousands per second — while the
 * exact timing (trace + tpc::evaluatePipeline) runs only 1 + axes +
 * top-k times per kernel. The screening loop runs under
 * runtime::parallel_map with capture-deferred obs counters, so
 * `analysis.predict.*` counts are identical at any --threads.
 */

#ifndef VESPERA_ANALYSIS_PREDICT_TUNER_H
#define VESPERA_ANALYSIS_PREDICT_TUNER_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/predict/proxy.h"
#include "analysis/predict/tunable.h"
#include "tpc/pipeline.h"

namespace vespera::analysis {

/** Autotuner knobs. */
struct TunerOptions
{
    /// Configurations verified with the exact scheduler.
    int topK = 5;
    tpc::TpcParams params = tpc::TpcParams::forGaudi2();
    /// Proxy coefficients; nullptr = ProxyModel::builtin().
    const ProxyModel *model = nullptr;
    /// Export analysis.predict.* counters (off for test isolation).
    bool exportCounters = true;
};

/** One evaluated configuration. */
struct TuneCandidate
{
    TuneConfig config;
    double proxyCycles = 0;
    /// Exact static-scheduler cycles; -1 when only screened.
    double exactCycles = -1;
};

/** Autotune outcome for one kernel. */
struct TuneResult
{
    std::string kernel;
    std::string shape; ///< "size=N" of the tuning shape.
    /// The shipped configuration, exact-evaluated (the ratchet
    /// reference).
    TuneCandidate base;
    /// Best exact-verified configuration (never worse than base).
    TuneCandidate best;
    /// The top-k by proxy, exact-evaluated, best exact first.
    std::vector<TuneCandidate> verified;
    std::uint64_t configsScreened = 0;
    std::uint64_t exactVerifications = 0;
    /// Mean |proxy - exact| / exact over verified configs, in parts
    /// per million (rounded; deterministic).
    double proxyErrorPpm = 0;
    /// 1 - best.exactCycles / base.exactCycles.
    double improvementFrac = 0;
};

/** The knob cross product at base.size, deterministic order. */
std::vector<TuneConfig> enumerateConfigs(const TunableKernel &k);

/** Exact static-scheduler cycles for one configuration (traces TPC
 *  kernels; analytic for MME entries). */
double exactCycles(const TunableKernel &k, const TuneConfig &config,
                   const tpc::TpcParams &params);

/** Screen + verify one kernel. */
TuneResult autotuneKernel(const TunableKernel &k,
                          const TunerOptions &opts = {});

/** autotuneKernel over every registered tunable whose name contains
 *  `filter` ("" = all), in registration order. */
std::vector<TuneResult> autotuneAll(const std::string &filter = "",
                                    const TunerOptions &opts = {});

/** Exhaustive exact-static search over the full space — the oracle
 *  the rank-agreement test compares autotuneKernel against. */
TuneCandidate exhaustiveBest(const TunableKernel &k,
                             const TunerOptions &opts = {});

} // namespace vespera::analysis

#endif // VESPERA_ANALYSIS_PREDICT_TUNER_H
