#include "analysis/static/cost_model.h"

#include <algorithm>
#include <array>

#include "analysis/kernel_rules.h"
#include "common/logging.h"

namespace vespera::analysis {

StaticSchedule
scheduleStatic(const StaticIr &ir, const tpc::TpcParams &params)
{
    vassert(ir.valid(), "cannot schedule IR with SSA violations");
    StaticSchedule sched;
    if (ir.program == nullptr || ir.program->empty())
        return sched;
    const tpc::Program &program = *ir.program;
    const tpc::PipelineResult pr =
        tpc::evaluatePipeline(program, params, &sched.issue);
    sched.cycles = pr.cycles;
    sched.stallCycles = pr.stallCycles;
    sched.drainStallCycles = sched.issue.drainStall;
    const StallSums stalls = sumStalls(sched.issue);
    sched.dependencyStallCycles = stalls.dependency;
    sched.memoryStallCycles = stalls.memory;
    sched.slotStallCycles = stalls.slot;

    // Analytic roofline terms.
    sched.criticalPathBound = criticalPath(program, params);
    std::array<std::uint64_t, tpc::numSlots> slot_count{};
    for (const tpc::Instr &instr : program.instrs()) {
        slot_count[static_cast<std::size_t>(instr.slot)]++;
        if (tpc::isGlobalMemAccess(instr)) {
            const std::uint64_t txns =
                (instr.memBytes + params.granule - 1) / params.granule;
            sched.memoryBound += static_cast<double>(txns) *
                                 params.memIssueIntervalCycles;
        }
    }
    sched.slotResourceBound = static_cast<double>(
        *std::max_element(slot_count.begin(), slot_count.end()));
    return sched;
}

} // namespace vespera::analysis
