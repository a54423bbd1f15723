/**
 * @file
 * Per-TPC instruction trace container with flop / traffic accounting.
 */

#ifndef VESPERA_TPC_PROGRAM_H
#define VESPERA_TPC_PROGRAM_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mem/arena.h"
#include "obs/selfprof.h"
#include "tpc/isa.h"

namespace vespera::tpc {

class PipelineEvaluator;

/**
 * The recorded instruction stream of one TPC's kernel invocation.
 *
 * A default-constructed Program stores its Instr trace. One built with
 * an evaluator sink issues every appended instruction to that
 * PipelineEvaluator as it is recorded, and stores the trace as well
 * only when asked to: the TPC dispatcher keeps it only while a trace
 * observer is installed. Running totals (flops, stream and random
 * bytes, instruction count) are kept either way; everything that walks
 * the trace fails, naming the kernel, on a program that dropped it.
 *
 * TpcContext::steadyLoop may advance those totals, with the sink's
 * scoreboard, by trips it never records (canAdvance); no value ids are
 * allocated for such trips. A LoopWatch attached meanwhile sees every
 * appended instruction of the trips that do run.
 */
class Program
{
  public:
    Program() = default;

    /**
     * Stream every appended instruction into `sink`, which must outlive
     * the recording; store the trace too only when `keepTrace`. Copies
     * of the program do not carry the sink.
     */
    Program(PipelineEvaluator &sink, bool keepTrace)
        : sink_(&sink), keepTrace_(keepTrace)
    {
    }

    /** Append an instruction, returning its position. */
    std::size_t
    append(const Instr &instr)
    {
        // Running totals, summed in append order (the order a re-scan
        // of instrs() would use), so they stay bit-identical to one.
        flops_ += static_cast<double>(instr.flopsPerLane) * instr.lanes;
        if (instr.slot == Slot::Load || instr.slot == Slot::Store) {
            if (instr.access == Access::Stream)
                streamBytes_ += instr.memBytes;
            else if (instr.access == Access::Random)
                randomBytes_ += instr.memBytes;
        }
        if (sink_.watch != nullptr) [[unlikely]]
            watchInstr(instr);
        if (sink_.evaluator != nullptr)
            issueToSink(instr);
        if (keepTrace_) {
            // Report trace-vector reallocations to the self-profile
            // (one branch on a relaxed atomic when --selfprof is off).
            if (obs::SelfProf::instance().enabled()) {
                const std::size_t cap = instrs_.capacity();
                instrs_.push_back(instr);
                obs::selfRecordGrowth(instrs_, cap);
            } else {
                instrs_.push_back(instr);
            }
        }
        return numInstrs_++;
    }

    /** Allocate a fresh SSA value id. */
    std::int32_t newValue() { return nextValue_++; }

    /// Trace storage: arena-backed when the program is recorded
    /// inside a mem::ScopedArena (the dispatcher's hot path), heap
    /// otherwise — including whenever a trace observer may copy the
    /// program into long-lived storage.
    using InstrVec = std::vector<Instr, mem::ArenaAllocator<Instr>>;

    /** The stored trace; fails on a program that dropped it. */
    const InstrVec &
    instrs() const
    {
        if (!keepTrace_) [[unlikely]]
            traceDropped();
        return instrs_;
    }

    /** Instructions appended, stored or not. */
    std::size_t numInstrs() const { return numInstrs_; }
    std::int32_t numValues() const { return nextValue_; }
    bool empty() const { return numInstrs_ == 0; }

    /// @name Diagnostic provenance (who recorded this trace).
    /// @{
    /** Source-kernel tag; diagnostics name this, not an instr index. */
    void setKernelName(std::string name) { kernelName_ = std::move(name); }
    const std::string &kernelName() const { return kernelName_; }

    /**
     * Intern an op label ("v_ld_tnsr", a kernel phase name, ...) and
     * return its index for Instr::opLabel. Idempotent per string.
     */
    std::int16_t internLabel(std::string_view label);

    /** Label text for an Instr::opLabel index ("" for -1/invalid). */
    const std::string &label(std::int16_t index) const;

    /** The interned label table (IR-lifting hook: analysis/static/). */
    const std::vector<std::string> &labels() const { return labels_; }
    /// @}

    /** Total useful flops executed by the trace. */
    Flops flops() const { return flops_; }

    /** Useful payload bytes moved to/from global memory, by class. */
    Bytes streamBytes() const { return streamBytes_; }
    Bytes randomBytes() const { return randomBytes_; }

    /** Number of random-access global transactions (for MLP modeling). */
    std::uint64_t randomTransactions(Bytes granule) const;

    /** Bus bytes for the given granule (payload rounded up per access). */
    Bytes busBytes(Bytes granule) const;

    /** Instruction-mix statistics (for kernel tuning / debugging). */
    struct Stats
    {
        std::uint64_t loads = 0;
        std::uint64_t stores = 0;
        std::uint64_t vectorOps = 0;
        std::uint64_t scalarOps = 0;
        std::uint64_t streamAccesses = 0;
        std::uint64_t randomAccesses = 0;
        std::uint64_t localAccesses = 0;

        std::uint64_t
        total() const
        {
            return loads + stores + vectorOps + scalarOps;
        }
    };

    Stats stats() const;

    /// @name Steady-loop support (TpcContext::steadyLoop).
    /// @{
    /** The running totals a loop trip moves. */
    struct Totals
    {
        std::size_t instrs = 0;
        double flops = 0;
        Bytes streamBytes = 0;
        Bytes randomBytes = 0;
    };

    Totals
    totals() const
    {
        return {numInstrs_, flops_, streamBytes_, randomBytes_};
    }

    /**
     * True when trips may be advanced without recording them: the
     * program streams into an evaluator that can advance, and keeps
     * no trace.
     */
    bool canAdvance() const;

    /** The evaluator sink (null on a default-constructed program). */
    PipelineEvaluator *sink() const { return sink_.evaluator; }

    /**
     * Add `trips` repeats of the trip that took the totals from `from`
     * to `to` (the current totals). Exact where the flops accumulator
     * stays in one binade (binadeTrips).
     */
    void advance(const Totals &from, const Totals &to, std::int64_t trips);

    /**
     * What the recorded instructions of one loop trip look like, for
     * comparing trips. `signature` hashes every timing-relevant field,
     * with value ids taken relative to `tripFirstValue` and local
     * memory offsets included (they set the local high-water mark).
     */
    struct LoopWatch
    {
        std::int32_t loopFirstValue = 0; ///< First value of the loop.
        std::int32_t tripFirstValue = 0; ///< First value of this trip.
        std::uint64_t signature = 0;     ///< Of this trip so far.
        /// Latest ready time of a value from before the loop read.
        double invariantReady = 0;
        /// A trip read a value that an earlier trip defined.
        bool crossTrip = false;
    };

    /** Show every appended instruction to `watch` (null detaches);
     *  only on a program that canAdvance. */
    void watch(LoopWatch *watch);

    /** True while a LoopWatch is attached. */
    bool watched() const { return sink_.watch != nullptr; }
    /// @}

  private:
    /// The evaluator append() issues to, if any, and the loop watch.
    /// Copies drop both: a copy is a snapshot of the trace, not a
    /// second recording.
    struct Sink
    {
        PipelineEvaluator *evaluator = nullptr;
        LoopWatch *watch = nullptr;

        Sink() = default;
        explicit Sink(PipelineEvaluator *e) : evaluator(e) {}
        Sink(const Sink &) {}
        Sink &
        operator=(const Sink &other)
        {
            if (this != &other) {
                evaluator = nullptr;
                watch = nullptr;
            }
            return *this;
        }
    };

    void issueToSink(const Instr &instr);
    void watchInstr(const Instr &instr);
    [[noreturn]] void traceDropped() const;

    Sink sink_;
    bool keepTrace_ = true;
    InstrVec instrs_;
    std::size_t numInstrs_ = 0;
    std::int32_t nextValue_ = 0;
    double flops_ = 0;
    Bytes streamBytes_ = 0;
    Bytes randomBytes_ = 0;
    std::string kernelName_;
    std::vector<std::string> labels_;
};

} // namespace vespera::tpc

#endif // VESPERA_TPC_PROGRAM_H
