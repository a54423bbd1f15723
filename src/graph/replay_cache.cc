#include "graph/replay_cache.h"

#include "common/logging.h"

namespace vespera::graph {

ReplayCache<OpCost> &
nodeReplayCache()
{
    static ReplayCache<OpCost> cache("node", 4096);
    return cache;
}

ReplayCache<StepEval> &
stepReplayCache()
{
    static ReplayCache<StepEval> cache("step", 1024);
    return cache;
}

std::string
nodeReplayKey(const Node &node, DeviceKind device)
{
    switch (node.kind) {
      case OpKind::Input:
        // Free; nothing to memoize.
        return "";
      case OpKind::MatMul:
        return strfmt("mm|%s|%lld.%lld.%lld.%lld|%s",
                      deviceName(device),
                      static_cast<long long>(node.gemm.m),
                      static_cast<long long>(node.gemm.k),
                      static_cast<long long>(node.gemm.n),
                      static_cast<long long>(node.gemm.batch),
                      dtypeName(node.output.dt));
      case OpKind::Elementwise:
      case OpKind::Normalization:
        // costNode's vector path is a pure function of flops/element,
        // output element count, traffic, dtype and the FMA flag.
        return strfmt("vec|%s|%a|%d|%llu|%lld|%s",
                      deviceName(device), node.flopsPerElement,
                      node.usesFma ? 1 : 0,
                      static_cast<unsigned long long>(node.trafficBytes),
                      static_cast<long long>(node.output.elements()),
                      dtypeName(node.output.dt));
      case OpKind::AllReduce:
        return strfmt("ar|%s|%llu|%d", deviceName(device),
                      static_cast<unsigned long long>(node.output.bytes()),
                      node.commDevices);
      case OpKind::Custom:
        // Custom nodes carry an opaque cost callback; only the
        // builder knows what it depends on. No signature, no caching.
        if (node.costSignature.empty())
            return "";
        return strfmt("custom|%s|%s", deviceName(device),
                      node.costSignature.c_str());
    }
    return "";
}

} // namespace vespera::graph
