#include "tpc/pipeline.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "obs/counters.h"
#include "obs/profiler.h"

namespace vespera::tpc {

TpcParams
TpcParams::forGaudi2()
{
    TpcParams p;
    p.clock = hw::gaudi2Spec().vectorClock;
    p.vectorLatency = hw::gaudi2Spec().vectorInstrLatency;
    return p;
}

bool
isMemAccess(const Instr &instr)
{
    return instr.slot == Slot::Load || instr.slot == Slot::Store ||
           (instr.slot == Slot::Scalar && instr.memBytes > 0);
}

bool
isGlobalMemAccess(const Instr &instr)
{
    return isMemAccess(instr) && instr.access != Access::Local;
}

double
resultLatency(const Instr &instr, const TpcParams &params)
{
    if (instr.slot == Slot::Store)
        return 0;
    if (isMemAccess(instr)) {
        if (instr.dst < 0)
            return 0;
        if (instr.access == Access::Local)
            return params.loadLatencyLocal;
        return instr.access == Access::Random
                   ? params.loadLatencyRandom
                   : params.loadLatencyStream;
    }
    switch (instr.slot) {
      case Slot::Vector:
        return params.vectorLatency;
      case Slot::Scalar:
        return params.scalarLatency;
      case Slot::Load:
      case Slot::Store:
        break;
    }
    return 0;
}

PipelineResult
evaluatePipeline(const Program &program, const TpcParams &params,
                 IssueTrace *trace)
{
    vassert(params.clock > 0 && params.granule > 0, "bad TPC parameters");
    if (trace != nullptr) {
        trace->instrs.clear();
        trace->instrs.reserve(program.instrs().size());
        trace->drainStall = 0;
    }

    // Per-SSA-value ready times.
    std::vector<double> ready(static_cast<std::size_t>(program.numValues()),
                              0.0);
    double slot_free[numSlots] = {0, 0, 0, 0};
    double mem_next_free = 0;   ///< Global-memory interface availability.
    double last_issue = 0;      ///< In-order constraint.
    double completion = 0;

    PipelineResult r;

    // Counter-track sampling of cumulative stall cycles (only when a
    // trace was requested; one check per call, not per instruction).
    obs::Profiler &profiler = obs::Profiler::instance();
    const bool sampling = profiler.enabled();
    const std::size_t sample_every = 64;
    std::size_t since_sample = 0;

    for (const Instr &instr : program.instrs()) {
        double t = last_issue;
        StallCause cause = StallCause::None;
        std::int32_t critical_src = -1;
        if (slot_free[static_cast<int>(instr.slot)] > t) {
            t = slot_free[static_cast<int>(instr.slot)];
            cause = StallCause::SlotBusy;
        }
        for (std::int32_t src : {instr.src0, instr.src1, instr.src2}) {
            if (src >= 0 && ready[static_cast<std::size_t>(src)] > t) {
                t = ready[static_cast<std::size_t>(src)];
                cause = StallCause::Dependency;
                critical_src = src;
            }
        }

        const double result_latency = resultLatency(instr, params);

        if (isGlobalMemAccess(instr)) {
            // Global memory: every access moves whole granules through
            // the per-TPC memory interface at a bounded sustained rate.
            const std::uint64_t txns =
                (instr.memBytes + params.granule - 1) / params.granule;
            if (mem_next_free > t) {
                t = mem_next_free;
                cause = StallCause::Memory;
                critical_src = -1;
            }
            mem_next_free = t + txns * params.memIssueIntervalCycles;
            r.busBytes += txns * params.granule;
            if (instr.access == Access::Random) {
                r.randomTxns += txns;
                r.randomAccesses++;
            }
        }

        if (instr.dst >= 0)
            ready[static_cast<std::size_t>(instr.dst)] = t + result_latency;

        // Cycles between the previous issue and this one in which no
        // instruction entered the pipeline are stalls.
        const double stall = t > last_issue + 1 ? t - last_issue - 1 : 0;
        r.stallCycles += stall;
        if (trace != nullptr) {
            IssuedInstr rec;
            rec.issueCycle = t;
            rec.stallCycles = stall;
            rec.cause = stall > 0 ? cause : StallCause::None;
            rec.criticalSrc =
                rec.cause == StallCause::Dependency ? critical_src : -1;
            trace->instrs.push_back(rec);
        }
        r.instructions++;
        if (sampling && ++since_sample >= sample_every) {
            since_sample = 0;
            profiler.sample("tpc.stall_cycles", t / params.clock,
                            r.stallCycles);
        }

        slot_free[static_cast<int>(instr.slot)] = t + 1;
        last_issue = t;
        completion = std::max(completion, t + std::max(result_latency, 1.0));
    }

    r.cycles = std::max(completion, mem_next_free);
    // Drain time past the last issue also counts as stall.
    const double drain = std::max(0.0, r.cycles - last_issue - 1);
    r.stallCycles += drain;
    if (trace != nullptr && !program.instrs().empty())
        trace->drainStall = drain;
    r.time = r.cycles / params.clock;
    r.flops = program.flops();
    if (r.cycles > 0) {
        r.memConcurrency = static_cast<double>(r.randomAccesses) *
                           params.loadLatencyRandom / r.cycles;
    }
    if (sampling) {
        profiler.sample("tpc.stall_cycles", r.cycles / params.clock,
                        r.stallCycles);
    }
    return r;
}

void
chargePipeline(const PipelineResult &r)
{
    auto &registry = obs::CounterRegistry::instance();
    static obs::Counter &instrs = registry.counter("tpc.instructions");
    static obs::Counter &cycles = registry.counter("tpc.cycles");
    static obs::Counter &stalls = registry.counter("tpc.stall_cycles");
    static obs::Counter &bus = registry.counter("tpc.bus_bytes");
    static obs::Counter &rand = registry.counter("tpc.random_accesses");
    instrs.add(static_cast<double>(r.instructions));
    cycles.add(r.cycles);
    stalls.add(r.stallCycles);
    bus.add(static_cast<double>(r.busBytes));
    rand.add(static_cast<double>(r.randomAccesses));
}

} // namespace vespera::tpc
