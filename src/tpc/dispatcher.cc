#include "tpc/dispatcher.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "mem/arena.h"
#include "obs/attrib.h"
#include "obs/selfprof.h"
#include "runtime/parallel.h"

namespace vespera::tpc {

namespace {
TraceObserver &
traceObserver()
{
    static TraceObserver observer;
    return observer;
}
} // namespace

TraceObserver
setTraceObserver(TraceObserver observer)
{
    TraceObserver prev = std::move(traceObserver());
    traceObserver() = std::move(observer);
    return prev;
}

TpcDispatcher::TpcDispatcher(const hw::DeviceSpec &spec)
    : spec_(spec), hbm_(spec)
{
    vassert(spec.kind == DeviceKind::Gaudi2,
            "TpcDispatcher simulates the Gaudi TPC array");
}

SlicePlan
TpcDispatcher::planSlices(const IndexSpace &space,
                          const LaunchParams &params) const
{
    vassert(params.numTpcs >= 1 && params.numTpcs <= spec_.numVectorCores,
            "numTpcs %d out of range (1..%d)", params.numTpcs,
            spec_.numVectorCores);
    vassert(params.partitionDim >= 0 && params.partitionDim < 5,
            "bad partition dimension");

    const int dim = params.partitionDim;
    const std::int64_t extent = space.size[dim];
    vassert(extent >= 1, "empty index space");
    const std::int64_t per_tpc =
        (extent + params.numTpcs - 1) / params.numTpcs;

    SlicePlan plan;
    plan.slices.resize(static_cast<std::size_t>(params.numTpcs));
    plan.representative.resize(plan.slices.size());
    auto length = [&](int t) {
        const MemberRange &r = plan.slices[static_cast<std::size_t>(t)];
        return r.end[dim] - r.start[dim];
    };
    for (int t = 0; t < params.numTpcs; t++) {
        const auto i = static_cast<std::size_t>(t);
        MemberRange &range = plan.slices[i];
        for (int d = 0; d < 5; d++) {
            range.start[d] = 0;
            range.end[d] = space.size[d];
        }
        range.start[dim] = std::min<std::int64_t>(t * per_tpc, extent);
        range.end[dim] = std::min<std::int64_t>((t + 1) * per_tpc, extent);

        // Ceil-division slice lengths never grow with t (full ones,
        // one tail, then empty ones), so equal lengths are adjacent:
        // a TPC shares its predecessor's representative when their
        // lengths match.
        plan.representative[i] =
            params.uniformSlices && t > 0 && length(t - 1) == length(t)
                ? plan.representative[i - 1]
                : t;
    }
    return plan;
}

LaunchResult
TpcDispatcher::launch(const Kernel &kernel, const IndexSpace &space,
                      const LaunchParams &params) const
{
    const SlicePlan plan = planSlices(space, params);

    LaunchResult result;
    Bytes stream_bus = 0;
    Bytes random_bus = 0;
    std::uint64_t random_accesses = 0;
    double chip_concurrency = 0;

    // One TPC engine's slice: record it and time it in one pass.
    struct TpcOutcome
    {
        bool active = false;
        PipelineResult pr;
        Bytes usefulBytes = 0;
        Bytes localHighWater = 0;
    };
    auto simulateTpc = [&](int t) {
        TpcOutcome out;
        // Every recorded instruction issues straight into the
        // evaluator, whose scoreboard bump-allocates from this
        // thread's scratch arena. The trace itself is kept only for an
        // observer, and then on the heap: the observer may copy the
        // program into storage that outlives this scope (the kernel
        // trace registry does), so no arena is bound while one is
        // installed.
        const bool observed = static_cast<bool>(traceObserver());
        std::optional<mem::ScopedArena> arena;
        if (!observed)
            arena.emplace(mem::Arena::scratch());

        PipelineEvaluator eval(params.tpc, nullptr,
                               /*sampleStalls=*/true);
        Program program(eval, observed);
        program.setKernelName(params.kernelName);
        TpcContext ctx(program, plan.slices[static_cast<std::size_t>(t)],
                       params.vectorBytes);
        {
            obs::SelfTimer self(obs::SelfCat::TraceRecord);
            kernel(ctx);
        }
        if (program.empty())
            return out;
        if (observed)
            traceObserver()(program, t);

        {
            obs::SelfTimer self(obs::SelfCat::KernelEval);
            out.pr = eval.finish(program.flops());
        }
        out.usefulBytes = program.streamBytes() + program.randomBytes();
        out.localHighWater = ctx.localHighWater();
        out.active = true;
        return out;
    };

    // Each simulated TPC runs its grid slice on its own worker; the
    // reduction below runs in TPC order either way, so chip-level
    // sums are bit-identical at any thread count. The trace-observer
    // path stays serial: observers are documented as unsynchronized
    // and tooling (vespera-lint) does not need the parallel speedup.
    std::vector<int> simulated;
    for (int t = 0; t < params.numTpcs; t++)
        if (plan.simulated(t))
            simulated.push_back(t);
    std::vector<TpcOutcome> outcomes(plan.slices.size());
    auto simulateAt = [&](std::size_t k) {
        outcomes[static_cast<std::size_t>(simulated[k])] =
            simulateTpc(simulated[k]);
    };
    if (traceObserver()) {
        for (std::size_t k = 0; k < simulated.size(); k++)
            simulateAt(k);
    } else {
        runtime::parallel_for(simulated.size(), simulateAt);
    }

    // A TPC that reuses a representative's outcome charges it again,
    // so counters and sums match a launch that simulates every TPC.
    double busy_sum = 0;
    for (const int rep : plan.representative) {
        const TpcOutcome &out = outcomes[static_cast<std::size_t>(rep)];
        if (!out.active)
            continue;
        const PipelineResult &pr = out.pr;
        chargePipeline(pr);
        busy_sum += pr.time;
        result.slowestTpcTime = std::max(result.slowestTpcTime, pr.time);
        result.totalFlops += pr.flops;
        result.busBytes += pr.busBytes;
        result.usefulBytes += out.usefulBytes;
        result.localMemHighWater =
            std::max(result.localMemHighWater, out.localHighWater);
        random_accesses += pr.randomAccesses;
        chip_concurrency += pr.memConcurrency;
        random_bus += pr.randomTxns * params.tpc.granule;
        result.activeTpcs++;
    }
    vassert(result.activeTpcs > 0, "kernel produced no work");
    stream_bus = result.busBytes - random_bus;

    // Chip-level HBM bound: streaming traffic at sustained stream
    // bandwidth plus random traffic at MLP-dependent random bandwidth.
    result.memoryBoundTime = hbm_.streamTime(stream_bus);
    if (random_accesses > 0) {
        result.memoryBoundTime += hbm_.randomTrafficTime(
            random_bus, random_accesses,
            std::max(chip_concurrency, 1.0));
    }

    result.time = std::max(result.slowestTpcTime, result.memoryBoundTime) +
                  spec_.launchOverhead;
    result.achievedFlopsPerSec = result.totalFlops / result.time;
    result.hbmUtilization = static_cast<double>(result.usefulBytes) /
                            (result.time * spec_.hbmBandwidth);

    // Chip-level attribution for this launch: the mean per-TPC busy
    // time over all *allocated* engines is useful compute; the gap up
    // to the slowest engine is slot-imbalance idle time; any HBM bound
    // beyond the slowest engine is exposed bandwidth stall; the launch
    // overhead is exposed latency (and absorbs fp residue as the
    // settled residual).
    static const int attribScope =
        obs::AttributionLedger::instance().scope("tpc");
    obs::AttribBreakdown b;
    const double mean_busy = busy_sum / params.numTpcs;
    b[obs::AttribCat::Compute] = mean_busy;
    b[obs::AttribCat::Idle] =
        std::max(0.0, result.slowestTpcTime - mean_busy);
    b[obs::AttribCat::MemoryBw] = std::max(
        0.0, result.memoryBoundTime - result.slowestTpcTime);
    b.settle(obs::AttribCat::ExposedLat, result.time);
    obs::AttributionLedger::instance().charge(
        attribScope,
        strfmt("%s x%d", params.kernelName.c_str(), params.numTpcs),
        b);
    return result;
}

} // namespace vespera::tpc
