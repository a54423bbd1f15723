/**
 * @file
 * Multi-TPC kernel launcher.
 *
 * Mirrors the Gaudi runtime's index-space distribution (Section 2.2):
 * the workload's index space is partitioned along one dimension across
 * the chip's 24 TPCs; each TPC executes the same kernel over its slice.
 * The dispatcher times each TPC's instruction stream with the pipeline
 * model and combines per-TPC times with the chip-level HBM bandwidth
 * bound.
 *
 * Recording and timing are one pass: every instruction a kernel
 * records issues straight into a PipelineEvaluator (Program's
 * evaluator sink), so a launch stores no Instr trace. The trace is
 * kept only while a trace observer is installed (vespera-lint, the
 * kernel trace registry, perfbench's capture), and then it is the
 * trace the evaluator timed.
 *
 * When the runtime pool is parallel (bench `--threads N`), each TPC
 * engine simulates its slice on its own worker; the chip-level
 * reduction always runs in TPC order, so results and counter totals
 * are bit-identical at any thread count (docs/runtime.md). Kernels
 * must confine writes to their assigned index-space slice — which the
 * TPC programming model already requires on real hardware.
 *
 * A kernel whose trace depends only on its slice's length declares
 * LaunchParams::uniformSlices; the launch then simulates one TPC per
 * distinct slice length and every other TPC reuses that outcome
 * (TpcDispatcher::planSlices names which TPCs run). Timing is
 * address-blind — evaluatePipeline never reads an Instr's memOffset or
 * memStream — so a kernel qualifies even when its addresses are
 * data-dependent: STREAM, gather/scatter and both embedding launches
 * declare it.
 * AddressBlind.TimingIgnoresOffsetsAndStreamsOnEveryKernel
 * (tests/analysis/test_address_blind.cc) pins that premise on every
 * registered kernel.
 */

#ifndef VESPERA_TPC_DISPATCHER_H
#define VESPERA_TPC_DISPATCHER_H

#include <functional>
#include <string>
#include <vector>

#include "hw/device_spec.h"
#include "mem/hbm.h"
#include "tpc/context.h"
#include "tpc/pipeline.h"

namespace vespera::tpc {

/** The grid over which a kernel is distributed (up to 5 dims). */
struct IndexSpace
{
    Int5 size{1, 1, 1, 1, 1};

    std::int64_t
    members() const
    {
        std::int64_t n = 1;
        for (auto s : size)
            n *= s;
        return n;
    }
};

/** A TPC kernel: a callable receiving the per-TPC context. */
using Kernel = std::function<void(TpcContext &)>;

/** Launch configuration. */
struct LaunchParams
{
    /// TPCs to use (weak-scaling experiments sweep this).
    int numTpcs = 24;
    /// Index-space dimension split across TPCs.
    int partitionDim = 1;
    /// Default global access width handed to the context.
    Bytes vectorBytes = 256;
    /// Per-TPC timing parameters.
    TpcParams tpc = TpcParams::forGaudi2();
    /// Source-kernel tag stamped onto each TPC's Program so analyzer
    /// diagnostics name the offending kernel, not an instr index.
    std::string kernelName;
    /// Kernel-declared contract: the kernel's trace, up to memory
    /// offsets and streams, depends only on the slice's length along
    /// `partitionDim`, so which data a slice touches never changes its
    /// timing. The launch then simulates only the first TPC of each
    /// distinct slice length (planSlices), so the kernel's functional
    /// effects land in those slices alone: the kernel writes only the
    /// data SlicePlan::simulatedSlices read (inputs, index lists,
    /// table rows) and verifies only their output. Large tensors are
    /// mapped zero pages (tpc/tensor.h), so the rest costs nothing.
    /// Declared by STREAM, gather/scatter and both embedding launches.
    bool uniformSlices = false;
};

/** Which TPCs a launch simulates, and whose outcome each TPC takes. */
struct SlicePlan
{
    /// Per TPC: its index-space slice (an empty range idles the TPC).
    std::vector<MemberRange> slices;
    /// Per TPC: the TPC whose simulated outcome it takes — itself
    /// unless uniformSlices lets it reuse the first TPC with the same
    /// slice length.
    std::vector<int> representative;

    /** True when TPC `t` is simulated: a non-empty slice that
     *  represents itself. */
    bool
    simulated(int t) const
    {
        const auto i = static_cast<std::size_t>(t);
        return representative[i] == t && !slices[i].empty();
    }

    /** The slices of the simulated TPCs, in TPC order: the only ones
     *  a launch runs the kernel over, so the only ones whose data a
     *  uniformSlices kernel fills and verifies. */
    std::vector<MemberRange>
    simulatedSlices() const
    {
        std::vector<MemberRange> ran;
        for (std::size_t t = 0; t < slices.size(); t++)
            if (simulated(static_cast<int>(t)))
                ran.push_back(slices[t]);
        return ran;
    }
};

/** Chip-level outcome of a kernel launch. */
struct LaunchResult
{
    Seconds time = 0;            ///< End-to-end incl. launch overhead.
    Seconds slowestTpcTime = 0;  ///< Pipeline-limited component.
    Seconds memoryBoundTime = 0; ///< Chip HBM bandwidth bound.
    Flops totalFlops = 0;
    Bytes usefulBytes = 0;       ///< Payload moved (no granule padding).
    Bytes busBytes = 0;          ///< Granule-rounded bus traffic.
    double achievedFlopsPerSec = 0;
    double hbmUtilization = 0;   ///< usefulBytes / (time x peak BW).
    int activeTpcs = 0;
    Bytes localMemHighWater = 0; ///< Max per-TPC local memory footprint.
};

/**
 * Observer invoked with every per-TPC Program the dispatcher records
 * (simulated TPCs only, see SlicePlan), once the kernel has run and
 * before the evaluator's finish(). While one is installed, and only
 * then, the dispatcher keeps each program's Instr trace. Used
 * by the static analyzer / vespera-lint to capture kernel traces
 * without changing kernel entry points. No synchronization is
 * provided: installing an observer forces the dispatcher onto its
 * serial per-TPC path even when the runtime pool is parallel, so
 * observers always see TPCs one at a time, in order.
 */
using TraceObserver = std::function<void(const Program &, int tpc_index)>;

/** Install a process-wide trace observer; returns the previous one. */
TraceObserver setTraceObserver(TraceObserver observer);

/** RAII installation of a trace observer (restores the previous). */
class ScopedTraceObserver
{
  public:
    explicit ScopedTraceObserver(TraceObserver observer)
        : prev_(setTraceObserver(std::move(observer)))
    {
    }
    ~ScopedTraceObserver() { setTraceObserver(std::move(prev_)); }
    ScopedTraceObserver(const ScopedTraceObserver &) = delete;
    ScopedTraceObserver &operator=(const ScopedTraceObserver &) = delete;

  private:
    TraceObserver prev_;
};

/** Launches kernels onto the simulated Gaudi-2 TPC array. */
class TpcDispatcher
{
  public:
    explicit TpcDispatcher(const hw::DeviceSpec &spec = hw::gaudi2Spec());

    /** Run `kernel` over `space` with the given launch parameters. */
    LaunchResult launch(const Kernel &kernel, const IndexSpace &space,
                        const LaunchParams &params) const;

    /**
     * The per-TPC split `launch` uses: TPC t owns members
     * [t * ceil(extent / numTpcs), ...) along `partitionDim`, clipped
     * to the extent. Kernels declaring uniformSlices call it to learn
     * which slices run, and so which data they need.
     */
    SlicePlan planSlices(const IndexSpace &space,
                         const LaunchParams &params) const;

    const mem::HbmModel &hbm() const { return hbm_; }
    const hw::DeviceSpec &spec() const { return spec_; }

  private:
    const hw::DeviceSpec &spec_;
    mem::HbmModel hbm_;
};

} // namespace vespera::tpc

#endif // VESPERA_TPC_DISPATCHER_H
