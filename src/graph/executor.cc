#include "graph/executor.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "graph/replay_cache.h"
#include "kern/gemm.h"
#include "kern/vector_op.h"
#include "obs/counters.h"
#include "obs/profiler.h"

namespace vespera::graph {

namespace {

/** `graph.time.<kind>`, registered on the kind's first use. */
template <OpKind K>
obs::Counter &
timeCounter(const char *name)
{
    static obs::Counter &c = obs::CounterRegistry::instance().counter(name);
    return c;
}

obs::Counter &
timeCounter(OpKind kind)
{
    switch (kind) {
      case OpKind::Input:
        break;
      case OpKind::MatMul:
        return timeCounter<OpKind::MatMul>("graph.time.matmul");
      case OpKind::Elementwise:
        return timeCounter<OpKind::Elementwise>("graph.time.elementwise");
      case OpKind::Normalization:
        return timeCounter<OpKind::Normalization>(
            "graph.time.normalization");
      case OpKind::AllReduce:
        return timeCounter<OpKind::AllReduce>("graph.time.allreduce");
      case OpKind::Custom:
        return timeCounter<OpKind::Custom>("graph.time.custom");
    }
    vpanic("input nodes take no time");
}

} // namespace

hw::ActivityProfile
ExecutionReport::activity(const hw::DeviceSpec &spec) const
{
    hw::ActivityProfile a;
    if (time <= 0)
        return a;
    a.matrixActivity =
        std::min(1.0, matrixBusy / time) * std::min(1.0, avgMatrixUtil);
    a.matrixMacFraction = avgMacFraction;
    a.vectorActivity = std::min(1.0, vectorBusy / time);
    a.hbmActivity = std::min(
        1.0, static_cast<double>(hbmBytes) / (time * spec.hbmBandwidth));
    return a;
}

void
accumulate(ExecutionReport &total, const ExecutionReport &part,
           double scale)
{
    // Re-derive the weighted utilization sums before merging.
    const double w_total = total.matrixBusy;
    const double w_part = part.matrixBusy * scale;
    const double util_sum =
        total.avgMatrixUtil * w_total + part.avgMatrixUtil * w_part;
    const double mac_sum =
        total.avgMacFraction * w_total + part.avgMacFraction * w_part;

    // Timeline: keep one representative copy of the part (not `scale`
    // replicas), offset to the accumulation point — enough for
    // profiling a repeated layer without exploding the trace.
    for (const TimelineEntry &e : part.timeline) {
        TimelineEntry shifted = e;
        shifted.start += total.time;
        total.timeline.push_back(std::move(shifted));
    }

    total.time += part.time * scale;
    total.flops += part.flops * scale;
    total.hbmBytes += static_cast<Bytes>(
        static_cast<double>(part.hbmBytes) * scale);
    total.matrixBusy += part.matrixBusy * scale;
    total.vectorBusy += part.vectorBusy * scale;
    total.commTime += part.commTime * scale;
    total.overlapSaved += part.overlapSaved * scale;
    if (w_total + w_part > 0) {
        total.avgMatrixUtil = util_sum / (w_total + w_part);
        total.avgMacFraction = mac_sum / (w_total + w_part);
    }
}

Executor::Executor(DeviceKind device)
    : device_(device), spec_(hw::deviceSpec(device)),
      collective_(device == DeviceKind::Gaudi2
                      ? coll::CollectiveModel::hcclOnGaudi2()
                      : coll::CollectiveModel::ncclOnDgxA100())
{
}

OpCost
Executor::costNode(const Node &node) const
{
    OpCost c;
    switch (node.kind) {
      case OpKind::Input:
        break;
      case OpKind::MatMul: {
        hw::GemmCost g = kern::gemmCost(device_, node.gemm,
                                        node.output.dt);
        c.time = g.time;
        c.matrixBusy = std::min(g.computeTime, g.time);
        c.flops = node.gemm.flops();
        c.hbmBytes = node.gemm.idealTraffic(node.output.dt);
        c.matrixUtil = g.utilization;
        c.macFraction = g.activeMacFraction;
        c.engine = g.engine;
        c.gemm = node.gemm;
        c.geometry = std::move(g.geometry);
        c.memoryTime = g.memoryTime;
        break;
      }
      case OpKind::Elementwise:
      case OpKind::Normalization: {
        const Flops flops =
            node.flopsPerElement *
            static_cast<double>(node.output.elements());
        auto v = kern::vectorOpCost(spec_, node.trafficBytes, flops,
                                    node.output.dt, node.usesFma);
        c.time = v.time;
        c.vectorBusy = v.time;
        c.flops = flops;
        c.hbmBytes = node.trafficBytes;
        break;
      }
      case OpKind::AllReduce: {
        auto r = collective_.run(coll::CollectiveOp::AllReduce,
                                 node.output.bytes(), node.commDevices);
        c.time = r.time;
        c.commTime = r.time;
        break;
      }
      case OpKind::Custom:
        c = node.customCost(device_);
        break;
    }
    c.kind = node.kind;
    return c;
}

ExecutionReport
Executor::run(const Graph &graph) const
{
    ExecutionReport report = evaluate(graph);
    fold(report.perNode);
    return report;
}

void
Executor::fold(const std::vector<OpCost> &perNode, std::uint64_t n)
{
    static obs::Counter &ops =
        obs::CounterRegistry::instance().counter("graph.ops");
    const std::string *prev_geometry = nullptr;
    for (const OpCost &c : perNode) {
        if (c.kind == OpKind::Input)
            continue;
        if (c.kind == OpKind::MatMul) {
            const bool reconfigured = c.engine == hw::GemmEngine::Mme &&
                                      prev_geometry &&
                                      *prev_geometry != c.geometry;
            kern::chargeGemm(c.engine, c.gemm, c.geometry, c.time,
                             c.matrixBusy, c.memoryTime, reconfigured, n);
            prev_geometry = &c.geometry;
        }
        // Per-OpKind execution-time breakdown (the per-op view the
        // Gaudi profiler timeline aggregates to).
        timeCounter(c.kind).add(c.time * static_cast<double>(n), n);
        ops.add(static_cast<double>(n), n);
    }
}

ExecutionReport
Executor::evaluate(const Graph &graph) const
{
    ExecutionReport report;
    report.perNode.resize(graph.size());

    // Remaining "shadow" of each MatMul node that pipelined consumers
    // can hide under (MME-TPC pipelining; Gaudi only — the compiler
    // pass is a Gaudi graph-compiler feature, but CUDA kernels overlap
    // similarly via streams, so we honour the annotation on both).
    std::map<int, Seconds> shadow;

    double util_weight = 0, util_sum = 0, mac_sum = 0;

    obs::Profiler &profiler = obs::Profiler::instance();
    const bool sampling = profiler.enabled();

    // Node memo (replay_cache.h): identical nodes across steps are
    // costed once; un-keyable nodes evaluate fresh.
    ReplayCache<OpCost> &cache = nodeReplayCache();
    const bool memoize = cache.enabled() && !sampling;

    for (const Node &node : graph.nodes()) {
        if (node.fusedAway)
            continue;
        OpCost &c = report.perNode[static_cast<std::size_t>(node.id)];
        std::string key;
        if (memoize && !(key = nodeReplayKey(node, device_)).empty())
            c = cache.runMemoized(key, [&] { return costNode(node); });
        else
            c = costNode(node);

        Seconds contribution = c.time;
        if (node.pipelinedWithProducer) {
            for (int in : node.inputs) {
                auto it = shadow.find(in);
                if (it == shadow.end())
                    continue;
                // Slicing into S sub-operations exposes one slice of
                // ramp-in: at most (S-1)/S of this op can hide under
                // the producer.
                const int slices = std::max(1, node.pipelineSlices);
                const Seconds hideable =
                    contribution * (slices - 1) / slices;
                const Seconds hidden = std::min(it->second, hideable);
                contribution -= hidden;
                it->second -= hidden;
                report.overlapSaved += hidden;
                break;
            }
        }
        if (node.kind == OpKind::MatMul)
            shadow[node.id] = c.time;

        TimelineEntry entry;
        entry.nodeId = node.id;
        entry.name = node.name;
        entry.kind = node.kind;
        entry.start = report.time - (c.time - contribution);
        entry.duration = c.time;

        // Counter tracks alongside the spans: per-op MME utilization
        // and achieved HBM bandwidth, sampled at the op boundaries so
        // the Perfetto counter plot steps with the timeline.
        if (sampling && c.time > 0) {
            if (node.kind == OpKind::MatMul) {
                profiler.sample("mme.utilization", entry.start,
                                c.matrixUtil * 100.0);
                profiler.sample("mme.utilization",
                                entry.start + entry.duration, 0.0);
            }
            if (c.hbmBytes > 0) {
                profiler.sample("hbm.bandwidth_gbps", entry.start,
                                static_cast<double>(c.hbmBytes) /
                                    c.time / 1e9);
                profiler.sample("hbm.bandwidth_gbps",
                                entry.start + entry.duration, 0.0);
            }
        }
        report.timeline.push_back(std::move(entry));

        report.time += contribution;
        report.flops += c.flops;
        report.hbmBytes += c.hbmBytes;
        report.matrixBusy += c.matrixBusy;
        report.vectorBusy += c.vectorBusy;
        report.commTime += c.commTime;
        if (c.matrixBusy > 0) {
            util_weight += c.matrixBusy;
            util_sum += c.matrixBusy * c.matrixUtil;
            mac_sum += c.matrixBusy * c.macFraction;
        }
    }

    if (util_weight > 0) {
        report.avgMatrixUtil = util_sum / util_weight;
        report.avgMacFraction = mac_sum / util_weight;
    }
    return report;
}

} // namespace vespera::graph
