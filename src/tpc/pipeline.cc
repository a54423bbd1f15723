#include "tpc/pipeline.h"

#include <algorithm>

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

PipelineEvaluator::PipelineEvaluator(const TpcParams &params,
                                     IssueTrace *trace, bool sampleStalls)
    : params_(params), trace_(trace),
      sampling_(sampleStalls && obs::Profiler::instance().enabled())
{
    vassert(params.clock > 0 && params.granule > 0, "bad TPC parameters");
    if (trace_ != nullptr) {
        trace_->instrs.clear();
        trace_->drainStall = 0;
    }
}

void
PipelineEvaluator::issue(const Instr &instr)
{
    double t = lastIssue_;
    StallCause cause = StallCause::None;
    std::int32_t critical_src = -1;
    if (slotFree_[static_cast<int>(instr.slot)] > t) {
        t = slotFree_[static_cast<int>(instr.slot)];
        cause = StallCause::SlotBusy;
    }
    for (std::int32_t src : {instr.src0, instr.src1, instr.src2}) {
        const auto i = static_cast<std::size_t>(src);
        if (src >= 0 && i < ready_.size() && ready_[i] > t) {
            t = ready_[i];
            cause = StallCause::Dependency;
            critical_src = src;
        }
    }

    const double result_latency = resultLatency(instr, params_);

    if (isGlobalMemAccess(instr)) {
        // Global memory: every access moves whole granules through
        // the per-TPC memory interface at a bounded sustained rate.
        const std::uint64_t txns =
            (instr.memBytes + params_.granule - 1) / params_.granule;
        if (memNextFree_ > t) {
            t = memNextFree_;
            cause = StallCause::Memory;
            critical_src = -1;
        }
        memNextFree_ = t + txns * params_.memIssueIntervalCycles;
        r_.busBytes += txns * params_.granule;
        if (instr.access == Access::Random) {
            r_.randomTxns += txns;
            r_.randomAccesses++;
        }
    }

    if (instr.dst >= 0) {
        const auto i = static_cast<std::size_t>(instr.dst);
        if (i >= ready_.size())
            ready_.resize(std::max(i + 1, 2 * ready_.size()), 0.0);
        ready_[i] = t + result_latency;
    }

    // Cycles between the previous issue and this one in which no
    // instruction entered the pipeline are stalls.
    const double stall = t > lastIssue_ + 1 ? t - lastIssue_ - 1 : 0;
    r_.stallCycles += stall;
    if (trace_ != nullptr) {
        IssuedInstr rec;
        rec.issueCycle = t;
        rec.stallCycles = stall;
        rec.cause = stall > 0 ? cause : StallCause::None;
        rec.criticalSrc =
            rec.cause == StallCause::Dependency ? critical_src : -1;
        trace_->instrs.push_back(rec);
    }
    r_.instructions++;
    if (sampling_ && ++sinceSample_ >= 64) {
        sinceSample_ = 0;
        obs::Profiler::instance().sample("tpc.stall_cycles",
                                         t / params_.clock, r_.stallCycles);
    }

    slotFree_[static_cast<int>(instr.slot)] = t + 1;
    lastIssue_ = t;
    completion_ = std::max(completion_, t + std::max(result_latency, 1.0));
}

PipelineResult
PipelineEvaluator::finish(Flops flops)
{
    PipelineResult r = r_;
    r.cycles = std::max(completion_, memNextFree_);
    // Drain time past the last issue also counts as stall.
    const double drain = std::max(0.0, r.cycles - lastIssue_ - 1);
    r.stallCycles += drain;
    if (trace_ != nullptr && r.instructions > 0)
        trace_->drainStall = drain;
    r.time = r.cycles / params_.clock;
    r.flops = flops;
    if (r.cycles > 0) {
        r.memConcurrency = static_cast<double>(r.randomAccesses) *
                           params_.loadLatencyRandom / r.cycles;
    }
    if (sampling_) {
        obs::Profiler::instance().sample("tpc.stall_cycles",
                                         r.cycles / params_.clock,
                                         r.stallCycles);
    }
    return r;
}

PipelineResult
evaluatePipeline(const Program &program, const TpcParams &params,
                 IssueTrace *trace)
{
    // The scoreboard's ready times are transient: bump them from this
    // thread's scratch arena.
    mem::ScopedArena scratch(mem::Arena::scratch());
    PipelineEvaluator eval(params, trace);
    if (trace != nullptr)
        trace->instrs.reserve(program.instrs().size());
    for (const Instr &instr : program.instrs())
        eval.issue(instr);
    return eval.finish(program.flops());
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
