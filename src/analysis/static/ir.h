/**
 * @file
 * SSA-form kernel IR lifted from recorded tpc::Program traces.
 *
 * The functional TPC kernels record fully unrolled, linear SSA
 * instruction streams (every TPC-C intrinsic appends one tpc::Instr).
 * This module lifts that flat stream back into compiler-shaped
 * structure:
 *
 *  - def-use chains: for every SSA value, its defining instruction and
 *    the ordered list of its users;
 *  - loop structure: counted loops recovered by periodicity detection
 *    over instruction signatures (slot, op label, access class, width,
 *    stream) — iterating twice through the same body produces the same
 *    signature sequence even though SSA ids differ. Detection runs
 *    bottom-up, so an unrolled inner loop nests inside the element
 *    loop that repeats it;
 *  - basic blocks: the straight-line segments between loop boundaries
 *    plus one body block per loop (representing all its trips);
 *  - loop-carried dependences: values defined in iteration t and
 *    consumed in iteration t+1, the recurrences that bound software
 *    pipelining.
 *
 * The static pipeline's passes (passes.h) read this structure; its
 * cycle numbers come from the timing model itself (cost_model.h), so
 * the IR adds loop and live-range context, not a second predictor.
 */

#ifndef VESPERA_ANALYSIS_STATIC_IR_H
#define VESPERA_ANALYSIS_STATIC_IR_H

#include <cstdint>
#include <string>
#include <vector>

#include "tpc/program.h"

namespace vespera::analysis {

/** Block kind: straight-line code or a recovered loop body. */
enum class BlockKind : std::uint8_t {
    Straight,
    LoopBody,
};

/**
 * One basic block. A LoopBody block covers the *first* iteration's
 * instructions; its owning Loop records the trip count (the remaining
 * iterations repeat the same signature sequence).
 */
struct BasicBlock
{
    std::int32_t id = -1;
    BlockKind kind = BlockKind::Straight;
    /// First instruction index (into Program::instrs()).
    std::size_t first = 0;
    /// Instructions in the block (one iteration for LoopBody).
    std::size_t count = 0;
    /// Owning loop id for LoopBody blocks; -1 for straight-line code.
    std::int32_t loopId = -1;
};

/** One value flowing across a loop back-edge (iteration t -> t+1). */
struct LoopCarriedDep
{
    /// Body-relative index of the producing instruction.
    std::size_t defBodyIndex = 0;
    /// Body-relative index of the consuming instruction.
    std::size_t useBodyIndex = 0;
    /// Result latency of the producer, in cycles (recurrence weight).
    double latencyCycles = 0;
};

/**
 * Per-(body-position) global-memory access pattern across a loop's
 * trips: offset(t) = base + t * stride when `affine`.
 */
struct AffineAccess
{
    std::size_t bodyIndex = 0;  ///< Body-relative instruction index.
    std::uint32_t stream = 0;   ///< Instr::memStream.
    Bytes bytes = 0;            ///< Access payload.
    std::int64_t base = -1;     ///< Offset at trip 0.
    std::int64_t stride = 0;    ///< Per-trip offset delta.
    bool affine = false;        ///< Uniform stride across all trips.
};

/** A counted loop recovered from the trace. */
struct Loop
{
    std::int32_t id = -1;
    /// First instruction of the first iteration.
    std::size_t first = 0;
    /// Instructions per iteration (nested loops fully included).
    std::size_t bodyLength = 0;
    std::int64_t tripCount = 0;
    /// Nesting depth: 0 = innermost-level detection, parents above.
    int depth = 0;
    /// Enclosing loop id; -1 when top-level.
    std::int32_t parent = -1;
    /// Values flowing across the back-edge (recurrences).
    std::vector<LoopCarriedDep> carried;
    /// Symbolic per-position stride analysis of global accesses
    /// (innermost loops only; empty for outer loops).
    std::vector<AffineAccess> accesses;

    /// Total instructions covered by all trips.
    std::size_t span() const
    {
        return bodyLength * static_cast<std::size_t>(tripCount);
    }

    /// Max single-edge recurrence weight, a lower bound on the
    /// initiation interval no amount of pipelining removes.
    double recurrenceLatency() const
    {
        double worst = 0;
        for (const LoopCarriedDep &d : carried)
            worst = worst > d.latencyCycles ? worst : d.latencyCycles;
        return worst;
    }
};

/** An SSA well-formedness violation found during lifting. */
struct SsaViolation
{
    std::size_t instrIndex = 0;
    std::int32_t value = -1;
    enum class Kind : std::uint8_t {
        UseBeforeDef,    ///< Source never (yet) defined.
        UseOutOfRange,   ///< Source id >= Program::numValues().
        Redefinition,    ///< Destination already defined.
        DefOutOfRange,   ///< Destination id >= Program::numValues().
    } kind = Kind::UseBeforeDef;
};

/** The lifted IR of one recorded kernel trace. */
struct StaticIr
{
    /// The lifted program. Non-owning; must outlive the IR.
    const tpc::Program *program = nullptr;

    /// @name Def-use chains.
    /// @{
    /// Value id -> defining instruction index (-1 = no definition).
    std::vector<std::int64_t> defIndex;
    /// Value id -> user instruction indices, in program order.
    std::vector<std::vector<std::int64_t>> users;
    /// @}

    /// Blocks in program order (loop bodies appear once).
    std::vector<BasicBlock> blocks;
    /// Loops in discovery order, innermost first.
    std::vector<Loop> loops;

    /// SSA violations; when non-empty the IR is not analyzable and
    /// blocks/loops are left empty.
    std::vector<SsaViolation> violations;

    bool valid() const { return violations.empty(); }
    std::size_t size() const
    {
        return program != nullptr ? program->instrs().size() : 0;
    }

    /// Innermost loop covering instruction `index`, or nullptr.
    const Loop *innermostLoopAt(std::size_t index) const;

    /// Deepest loop nesting across the trace (0 = no loops).
    int maxLoopDepth() const;
};

/** Lifting knobs. */
struct LiftOptions
{
    /// Longest iteration body (in instructions at the current
    /// detection level) the periodicity scan will consider.
    std::size_t maxLoopPeriod = 128;
    /// Levels of bottom-up loop-nesting recovery.
    int maxLoopNesting = 3;
};

/**
 * Def-use chains and SSA well-formedness of `program` in one pass:
 * sets `defIndex` (value id -> first defining instruction, -1 when
 * none) and, when non-null, `users`; returns the violations in
 * program order. Both analyzers' invalid-ssa rule reads them.
 */
std::vector<SsaViolation>
checkSsa(const tpc::Program &program, std::vector<std::int64_t> &defIndex,
         std::vector<std::vector<std::int64_t>> *users = nullptr);

/**
 * Lift `program` into SSA IR. Always succeeds; on malformed SSA the
 * result carries `violations` and no block/loop structure.
 */
StaticIr liftProgram(const tpc::Program &program,
                     const LiftOptions &options = {});

} // namespace vespera::analysis

#endif // VESPERA_ANALYSIS_STATIC_IR_H
