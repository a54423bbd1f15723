/**
 * @file
 * VLIW timing model for a single TPC.
 *
 * Times a TPC's instruction stream under the TPC's issue rules:
 * in-order issue, one instruction per VLIW slot per cycle, a 4-cycle
 * architectural latency on vector results (the paper's motivation for
 * loop unrolling), and a global-memory interface that moves data in
 * 256 B granules at a bounded per-TPC rate.
 *
 * The rules live in one place, PipelineEvaluator, which takes the
 * stream one instruction at a time. evaluatePipeline feeds it a stored
 * trace; the TPC dispatcher feeds it each instruction as the kernel
 * records it (Program's evaluator sink), so a launch keeps no trace
 * unless a trace observer asks for one.
 *
 * A loop whose timing has gone periodic need not issue every trip:
 * the evaluator exports its scoreboard as a ScoreboardState, and
 * steadyTrips / PipelineEvaluator::advance let TpcContext::steadyLoop
 * move it by many trips in one step, bit for bit what issuing them
 * would give (docs/runtime.md, "Steady loops").
 */

#ifndef VESPERA_TPC_PIPELINE_H
#define VESPERA_TPC_PIPELINE_H

#include <array>
#include <vector>

#include "common/types.h"
#include "hw/device_spec.h"
#include "mem/arena.h"
#include "tpc/program.h"

namespace vespera::tpc {

/** Microarchitectural parameters of the simulated TPC. */
struct TpcParams
{
    Hertz clock = 1.79e9;
    /// Architectural latency of vector-ALU results (paper: 4 cycles).
    int vectorLatency = 4;
    /// Latency of scalar-unit results.
    int scalarLatency = 2;
    /// Load-to-use latency for streaming global loads (prefetched).
    int loadLatencyStream = 6;
    /// Load-to-use latency for random global loads (full HBM round trip).
    int loadLatencyRandom = 130;
    /// Load-to-use latency for TPC-local memory.
    int loadLatencyLocal = 2;
    /// Sustained cycles per 256 B global-memory transaction per TPC.
    double memIssueIntervalCycles = 2.2;
    /// Minimum global access granularity.
    Bytes granule = 256;

    /** Parameters derived from the Gaudi-2 spec. */
    static TpcParams forGaudi2();
};

/** Timing outcome of one TPC's trace. */
struct PipelineResult
{
    double cycles = 0;
    Seconds time = 0;
    Flops flops = 0;
    /// Cycles in which no instruction issued (dependency latency,
    /// slot conflicts, or memory-interface backpressure) — the stat
    /// the paper's unrolling analysis is about.
    double stallCycles = 0;
    /// Instructions issued.
    std::uint64_t instructions = 0;
    /// Global bus bytes moved (payload rounded up to granules).
    Bytes busBytes = 0;
    /// Granule transactions issued by random accesses (bus traffic).
    std::uint64_t randomTxns = 0;
    /// Random accesses issued (scattered requests; each pays one DRAM
    /// activation regardless of how many granules it spans).
    std::uint64_t randomAccesses = 0;
    /// Little's-law estimate of this TPC's in-flight random requests.
    double memConcurrency = 0;
};

/** Why an instruction could not issue in the cycle after its
 *  predecessor (the constraint that set its issue time). */
enum class StallCause : std::uint8_t {
    None,       ///< Issued back-to-back; no stall.
    Dependency, ///< Waited on a source value's result latency.
    SlotBusy,   ///< Waited for its VLIW slot to free up.
    Memory,     ///< Waited on global-memory interface backpressure.
};

/** Per-instruction issue record (produced alongside PipelineResult). */
struct IssuedInstr
{
    double issueCycle = 0;    ///< Cycle the instruction issued.
    double stallCycles = 0;   ///< Idle cycles before this issue.
    StallCause cause = StallCause::None; ///< Binding constraint.
    /// Source value id whose ready time bound the issue (Dependency
    /// stalls only); -1 otherwise.
    std::int32_t criticalSrc = -1;
};

/**
 * Full issue schedule of one trace. `instrs[i]` corresponds to
 * `program.instrs()[i]`; the per-instruction stalls plus `drainStall`
 * sum exactly to PipelineResult::stallCycles, which is what lets the
 * static analyzer attribute every stall cycle to a cause without a
 * second, drift-prone copy of the timing rules.
 */
struct IssueTrace
{
    std::vector<IssuedInstr> instrs;
    /// Result/memory drain time past the last issue (also stall).
    double drainStall = 0;
};

/**
 * The scoreboard of a PipelineEvaluator at a loop-trip boundary, less
 * the per-value ready times: what steadyTrips compares across trips
 * and PipelineEvaluator::advance moves.
 */
struct ScoreboardState
{
    /// Time components: the per-slot free times, then the memory
    /// interface's free time, the last issue and the completion time.
    std::array<double, numSlots + 3> times{};
    double stallCycles = 0;
    std::uint64_t instructions = 0;
    Bytes busBytes = 0;
    std::uint64_t randomTxns = 0;
    std::uint64_t randomAccesses = 0;

    /// Index of the last-issue time in `times`.
    static constexpr std::size_t lastIssue = numSlots + 1;
};

/**
 * The timing model as an online scoreboard. issue() applies the issue
 * rules to the next instruction of one TPC's stream; finish() closes
 * the stream and returns its PipelineResult. Only the scoreboard is
 * kept, never the instructions: per-value ready times, which grow on
 * demand from the arena current at construction (the dispatcher's
 * thread scratch arena, or the heap when none is bound), plus the
 * per-slot and memory-interface free times.
 *
 * When `trace` is non-null it receives one IssuedInstr per issue() and
 * the drain stall at finish(). Pure like evaluatePipeline: no counter
 * moves. With `sampleStalls` set and the Profiler tracing, issue() and
 * finish() sample the `tpc.stall_cycles` track; only the dispatcher's
 * launches set it, so analysis replays of a trace leave the track to
 * the launches it shows.
 */
class PipelineEvaluator
{
  public:
    explicit PipelineEvaluator(const TpcParams &params,
                               IssueTrace *trace = nullptr,
                               bool sampleStalls = false);

    /** Issue the next instruction of the stream. */
    void issue(const Instr &instr);

    /** Close the stream: drain, and stamp the program's `flops`. */
    PipelineResult finish(Flops flops);

    /// @name Steady-loop support (TpcContext::steadyLoop).
    /// @{
    /** False while every instruction must really issue: when an
     *  IssueTrace is recorded or the stall track sampled. */
    bool canAdvance() const { return trace_ == nullptr && !sampling_; }

    /** The scoreboard now, less the per-value ready times. */
    ScoreboardState state() const;

    /** Ready time of value `id` (0 when never written). */
    double
    readyTime(std::int32_t id) const
    {
        const auto i = static_cast<std::size_t>(id);
        return id >= 0 && i < ready_.size() ? ready_[i] : 0.0;
    }

    /**
     * Move the scoreboard, which must be at `to`, by `trips` more
     * repeats of the trip that took it from `from` to `to`, without
     * issuing them. Exact only where steadyTrips allows `trips`.
     * Ready times are not touched: the skipped trips' values are
     * never read.
     */
    void advance(const ScoreboardState &from, const ScoreboardState &to,
                 std::int64_t trips);
    /// @}

  private:
    TpcParams params_;
    IssueTrace *trace_;
    /// Per-SSA-value ready times; values past the end were never
    /// written, so they are ready at cycle 0.
    std::vector<double, mem::ArenaAllocator<double>> ready_;
    double slotFree_[numSlots] = {0, 0, 0, 0};
    double memNextFree_ = 0; ///< Global-memory interface availability.
    double lastIssue_ = 0;   ///< In-order constraint.
    double completion_ = 0;
    PipelineResult r_;
    /// Counter-track sampling of cumulative stall cycles (only when
    /// asked for and the Profiler traces; checked once, not per
    /// instruction).
    bool sampling_;
    std::size_t sinceSample_ = 0;
};

/**
 * Evaluate a stored trace under the timing model: PipelineEvaluator's
 * issue() over `program.instrs()`, then finish(). When `trace` is
 * non-null it is filled with the per-instruction issue schedule. Pure:
 * no counter moves and no Profiler track is sampled; the caller
 * charges the result with chargePipeline.
 */
PipelineResult evaluatePipeline(const Program &program,
                                const TpcParams &params,
                                IssueTrace *trace = nullptr);

/**
 * How many more trips of a loop can be advanced in one step, bit for
 * bit what issuing them would give. `s` holds the scoreboard at the
 * three boundaries of two consecutive trips that recorded the same
 * instructions, up to value ids, and read no value an earlier trip
 * defined; `invariantReady` is the latest ready time of a value from
 * before the loop that they read. Returns 0 unless:
 *  1. both trips moved the last issue by one δ > 0, and every other
 *     time component by δ in both or by 0 in both; the stall
 *     accumulator and each count by the same amount in both;
 *  2. every component that did not move, and `invariantReady`, is at
 *     or below the last issue at `s[0]`, so none can bind a later trip;
 *  3. every moved time value, from `s[0]` to the end of the advanced
 *     trips, stays in the binade [2^e, 2^(e+1)) of the last issue at
 *     `s[0]`, and the stall accumulator in its own (binadeTrips).
 * Within one binade every add rounds alike under a shift by an even
 * number of ulps, ties included; two observed trips make every shift
 * a sum of such pairs, so the advanced scoreboard is exact.
 */
std::int64_t steadyTrips(const std::array<ScoreboardState, 3> &s,
                         double invariantReady);

/**
 * Steps of size `step` that an accumulator at `last` can take and stay
 * below the top of the binade of `first` (the value before the first
 * observed trip; `last` is in the same binade or the result is 0).
 * A step of 0 is unbounded (INT64_MAX); a negative step, or a
 * non-positive `first` with a positive step, allows none.
 */
std::int64_t binadeTrips(double first, double last, double step);

/**
 * Add one evaluated trace to the `tpc.{instructions,cycles,
 * stall_cycles,bus_bytes,random_accesses}` counters (one update each).
 */
void chargePipeline(const PipelineResult &result);

/// @name Timing-rule hooks shared with the analyzers.
/// Exactly the rules PipelineEvaluator applies, exported so the trace
/// analyzer (src/analysis/) and the static cost model
/// (src/analysis/static/) consume one definition instead of keeping
/// drift-prone copies.
/// @{

/** True when `instr` touches memory at all (loads, stores, scalar
 *  accesses carrying payload bytes — local or global). */
bool isMemAccess(const Instr &instr);

/** True when `instr` moves bytes through the global-memory interface
 *  (isMemAccess and not TPC-local). */
bool isGlobalMemAccess(const Instr &instr);

/** Cycles an in-order consumer waits for `instr`'s result: the vector/
 *  scalar ALU latency, or the access-class load-to-use latency for
 *  loads. 0 for results nobody can wait on (stores, dst < 0 loads). */
double resultLatency(const Instr &instr, const TpcParams &params);

/// @}

} // namespace vespera::tpc

#endif // VESPERA_TPC_PIPELINE_H
