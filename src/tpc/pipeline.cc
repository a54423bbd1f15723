#include "tpc/pipeline.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

ScoreboardState
PipelineEvaluator::state() const
{
    ScoreboardState s;
    std::copy(std::begin(slotFree_), std::end(slotFree_), s.times.begin());
    s.times[numSlots] = memNextFree_;
    s.times[ScoreboardState::lastIssue] = lastIssue_;
    s.times[numSlots + 2] = completion_;
    s.stallCycles = r_.stallCycles;
    s.instructions = r_.instructions;
    s.busBytes = r_.busBytes;
    s.randomTxns = r_.randomTxns;
    s.randomAccesses = r_.randomAccesses;
    return s;
}

void
PipelineEvaluator::advance(const ScoreboardState &from,
                           const ScoreboardState &to, std::int64_t trips)
{
    vassert(trips >= 0 && canAdvance(), "bad scoreboard advance");
    const double k = static_cast<double>(trips);
    const auto n = static_cast<std::uint64_t>(trips);
    ScoreboardState s = to;
    // Unmoved components add k * 0; moved ones k * δ, exact within the
    // binade steadyTrips checked.
    for (std::size_t i = 0; i < s.times.size(); i++)
        s.times[i] += k * (to.times[i] - from.times[i]);
    std::copy_n(s.times.begin(), numSlots, slotFree_);
    memNextFree_ = s.times[numSlots];
    lastIssue_ = s.times[ScoreboardState::lastIssue];
    completion_ = s.times[numSlots + 2];
    r_.stallCycles =
        to.stallCycles + k * (to.stallCycles - from.stallCycles);
    r_.instructions =
        to.instructions + n * (to.instructions - from.instructions);
    r_.busBytes = to.busBytes + n * (to.busBytes - from.busBytes);
    r_.randomTxns = to.randomTxns + n * (to.randomTxns - from.randomTxns);
    r_.randomAccesses =
        to.randomAccesses + n * (to.randomAccesses - from.randomAccesses);
}

std::int64_t
binadeTrips(double first, double last, double step)
{
    constexpr std::int64_t unbounded =
        std::numeric_limits<std::int64_t>::max();
    if (step == 0)
        return unbounded;
    if (!(step > 0) || !(first > 0))
        return 0;
    const int e = std::ilogb(first);
    const double top = std::ldexp(1.0, e + 1);
    if (!(last < top) || std::ilogb(last) != e)
        return 0;
    // top - last is exact (both in [2^e, 2^(e+1)]); the quotient may
    // round up across an integer, which the loop takes back.
    const double q = std::floor((top - last) / step);
    auto n = q >= 0x1p62 ? std::int64_t{1} << 62
                         : static_cast<std::int64_t>(q);
    while (n > 0 && !(last + static_cast<double>(n) * step < top))
        n--;
    return n;
}

std::int64_t
steadyTrips(const std::array<ScoreboardState, 3> &s, double invariantReady)
{
    constexpr std::size_t li = ScoreboardState::lastIssue;
    const double start = s[0].times[li];
    const double delta = s[1].times[li] - start;
    if (!(delta > 0) || !(invariantReady <= start))
        return 0;
    const int e = std::ilogb(start);
    std::int64_t trips = std::numeric_limits<std::int64_t>::max();
    for (std::size_t i = 0; i < s[0].times.size(); i++) {
        const double d1 = s[1].times[i] - s[0].times[i];
        const double d2 = s[2].times[i] - s[1].times[i];
        if (d1 == 0 && d2 == 0) {
            if (!(s[0].times[i] <= start))
                return 0;
        } else if (d1 == delta && d2 == delta &&
                   std::ilogb(s[0].times[i]) == e) {
            trips = std::min(trips,
                             binadeTrips(start, s[2].times[i], delta));
        } else {
            return 0;
        }
    }
    const double stall = s[1].stallCycles - s[0].stallCycles;
    if (s[2].stallCycles - s[1].stallCycles != stall)
        return 0;
    trips = std::min(
        trips, binadeTrips(s[0].stallCycles, s[2].stallCycles, stall));
    auto same = [&](auto field) {
        return s[1].*field - s[0].*field == s[2].*field - s[1].*field;
    };
    if (!same(&ScoreboardState::instructions) ||
        !same(&ScoreboardState::busBytes) ||
        !same(&ScoreboardState::randomTxns) ||
        !same(&ScoreboardState::randomAccesses))
        return 0;
    return trips;
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
