/**
 * @file
 * Times a compiled graph against one device's engine models and
 * produces the activity profile the power model consumes. Execution is
 * a pure evaluate() and a fold() that charges what was evaluated, so a
 * memoized evaluation (graph/replay_cache.h) charges like a fresh one.
 */

#ifndef VESPERA_GRAPH_EXECUTOR_H
#define VESPERA_GRAPH_EXECUTOR_H

#include <vector>

#include "coll/collective.h"
#include "graph/graph.h"
#include "hw/power.h"

namespace vespera::graph {

/**
 * One operation's placement on the execution timeline — the
 * information the Intel Gaudi Profiler exposes and the paper used to
 * reverse-engineer the graph compiler (Section 3.2). Pipelined vector
 * ops appear overlapping their producer GEMM.
 */
struct TimelineEntry
{
    int nodeId = -1;
    std::string name;
    OpKind kind = OpKind::Input;
    Seconds start = 0;
    Seconds duration = 0;
};

/** Aggregate outcome of executing a graph once. */
struct ExecutionReport
{
    Seconds time = 0;
    Flops flops = 0;
    Bytes hbmBytes = 0;
    Seconds matrixBusy = 0;
    Seconds vectorBusy = 0;
    Seconds commTime = 0;
    /// Time hidden by MME-TPC pipelining.
    Seconds overlapSaved = 0;
    /// Matrix utilization weighted by matrix busy time.
    double avgMatrixUtil = 0;
    /// Powered-MAC fraction weighted by matrix busy time.
    double avgMacFraction = 1;
    std::vector<OpCost> perNode;
    /// Profiler-style timeline (live nodes only, in issue order).
    std::vector<TimelineEntry> timeline;

    /** Engine activity profile for hw::PowerModel. */
    hw::ActivityProfile activity(const hw::DeviceSpec &spec) const;
};

/**
 * Accumulate `part`, scaled `scale` times, into `total` (used by model
 * simulators that execute one representative layer and multiply).
 * Utilization averages stay matrix-busy-time weighted.
 */
void accumulate(ExecutionReport &total, const ExecutionReport &part,
                double scale = 1.0);

/** Per-device graph executor. */
class Executor
{
  public:
    explicit Executor(DeviceKind device);

    /** evaluate(), then fold() its per-node costs. */
    ExecutionReport run(const Graph &graph) const;

    /**
     * Cost every live node (through the node memo) and compose the
     * report. Charges nothing; only samples the per-op counter tracks
     * while the profiler traces.
     */
    ExecutionReport evaluate(const Graph &graph) const;

    /**
     * Charge `n` runs of one graph's ExecutionReport::perNode in node
     * order: each MatMul through kern::chargeGemm, then
     * `graph.time.<kind>` and `graph.ops`. A MatMul whose geometry
     * differs from the previous MatMul of the same graph reconfigured
     * the MME, so `mme.reconfigs` counts per graph run.
     */
    static void fold(const std::vector<OpCost> &perNode,
                     std::uint64_t n = 1);

    DeviceKind device() const { return device_; }

  private:
    OpCost costNode(const Node &node) const;

    DeviceKind device_;
    const hw::DeviceSpec &spec_;
    coll::CollectiveModel collective_;
};

} // namespace vespera::graph

#endif // VESPERA_GRAPH_EXECUTOR_H
