/**
 * @file
 * The tunable-kernel corpus: every registry kernel (kernel_registry.h)
 * re-exposed with its tuning knobs — unroll factor, TPC count, access
 * granularity, gather accumulators / embedding interleave, MME
 * geometry — as enumerable axes plus a `produce` hook that re-traces
 * the kernel at any knob setting. The autotuner (tuner.h) enumerates
 * the cross product, screens it through the proxy model, and verifies
 * survivors with the timing model itself; calibration
 * (calibrate.cc) sweeps the `sizes` axis to fit the proxy and holds
 * out `heldOutSizes` for the accuracy contract.
 *
 * Shapes here are deliberately smaller than the lint registry's: the
 * tuner re-traces kernels dozens of times (anchors, top-k
 * verification, the exhaustive test oracle), so each trace must cost
 * milliseconds, not seconds. The knob *defaults* match the registry's
 * shipped configurations — that is what the tune-opportunity ratchet
 * compares against.
 */

#ifndef VESPERA_ANALYSIS_PREDICT_TUNABLE_H
#define VESPERA_ANALYSIS_PREDICT_TUNABLE_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "hw/gemm_cost.h"
#include "tpc/program.h"

namespace vespera::analysis {

/** One point in a kernel's tuning space. Axes a kernel does not
 *  expose stay at their 0 / -1 "not applicable" defaults. */
struct TuneConfig
{
    /// Family-defined problem size (elements, columns, vectors,
    /// batch). A shape, not a knob: tuning sweeps knobs at fixed size.
    std::int64_t size = 0;
    int unroll = 0;        ///< Manual unroll factor.
    int numTpcs = 0;       ///< TPCs the launch spreads across.
    Bytes accessBytes = 0; ///< Per-access granularity (STREAM knob).
    int accumulators = 0;  ///< Independent accumulator chains (gather).
    int interleave = 0;    ///< Samples pipelined per TPC (embedding).
    /// Index into hw::MmeModel::candidateGeometries(); -1 = n/a.
    int geometry = -1;

    /// Compact human-readable tag listing only the applicable knobs.
    std::string label() const;

    bool operator==(const TuneConfig &o) const = default;
};

/** How a tunable entry is evaluated. */
enum class TuneKind : std::uint8_t {
    Tpc, ///< produce() -> trace -> tpc::evaluatePipeline.
    Mme, ///< hw::MmeModel::gemmWithGeometry on `gemmShape`.
};

/** One tunable kernel: the shipped default, the axes, the evaluator. */
struct TunableKernel
{
    std::string name;
    TuneKind kind = TuneKind::Tpc;
    /// The registry's shipped knob settings at the tuning size.
    TuneConfig base;
    /// Calibration sizes (base.size must be among them) and the
    /// held-out sizes the ±15% accuracy contract is tested on.
    std::vector<std::int64_t> sizes;
    std::vector<std::int64_t> heldOutSizes;
    /// Knob axes; empty = the knob is not tunable for this kernel.
    /// Base values are always included when non-empty.
    std::vector<int> unrolls;
    std::vector<int> tpcCounts;
    std::vector<Bytes> accessBytes;
    std::vector<int> accumulators;
    std::vector<int> interleaves;
    std::vector<int> geometries;
    /// Trace the kernel at `config` (TuneKind::Tpc). Must be
    /// deterministic; returns the largest per-TPC Program slice.
    std::function<tpc::Program(const TuneConfig &)> produce;
    /// GEMM workload (TuneKind::Mme); config.geometry selects the
    /// MME array geometry.
    hw::GemmShape gemmShape;
    DataType gemmDt = DataType::BF16;

    /// Size of the knob cross product at base.size.
    std::size_t configCount() const;
};

/** Name -> tunable registry. Not thread-safe (CLI/test use only). */
class TunableRegistry
{
  public:
    static TunableRegistry &instance();

    TunableRegistry() = default;
    TunableRegistry(const TunableRegistry &) = delete;
    TunableRegistry &operator=(const TunableRegistry &) = delete;

    void add(TunableKernel kernel);
    std::vector<std::string> names() const;
    const TunableKernel &get(const std::string &name) const;
    std::size_t size() const { return entries_.size(); }

  private:
    std::vector<TunableKernel> entries_;
};

/**
 * Populate TunableRegistry::instance() with the 11 registry kernels
 * (tuning-sized) plus two GEMM entries exercising the MME-geometry
 * axis. Idempotent.
 */
void registerTunableKernels();

/**
 * `k` with every knob axis sliced to its first and last values: the
 * reduced space the exhaustive-vs-tuner rank-agreement test enumerates
 * with the exact scheduler in reasonable time.
 */
TunableKernel reduceAxes(const TunableKernel &k);

} // namespace vespera::analysis

#endif // VESPERA_ANALYSIS_PREDICT_TUNABLE_H
