#include "kern/stream.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "cuda/simt.h"
#include "tpc/dispatcher.h"

namespace vespera::kern {

namespace {

/// Bytes of global traffic per element (reads + writes).
double
bytesPerElement(StreamOp op, DataType dt)
{
    const double es = static_cast<double>(dtypeSize(dt));
    switch (op) {
      case StreamOp::Add:
      case StreamOp::Triad:
        return 3 * es; // Two reads, one write.
      case StreamOp::Scale:
        return 2 * es; // One read, one write.
    }
    vpanic("unknown stream op");
}

double
baseFlopsPerElement(StreamOp op)
{
    return op == StreamOp::Triad ? 2.0 : 1.0;
}

constexpr float streamScalar = 3.0f;

} // namespace

const char *
streamOpName(StreamOp op)
{
    switch (op) {
      case StreamOp::Add:
        return "ADD";
      case StreamOp::Scale:
        return "SCALE";
      case StreamOp::Triad:
        return "TRIAD";
    }
    return "?";
}

StreamResult
runStreamGaudi(const StreamConfig &config)
{
    vassert(config.numElements > 0,
            "bad stream config: numElements must be positive, got %llu",
            static_cast<unsigned long long>(config.numElements));
    vassert(config.unroll >= 1,
            "bad stream config: unroll must be >= 1, got %d", config.unroll);
    vassert(config.numTpcs >= 1,
            "bad stream config: numTpcs must be >= 1, got %d",
            config.numTpcs);

    const auto n = static_cast<std::int64_t>(config.numElements);
    tpc::Tensor a({n}, config.dt);
    tpc::Tensor b({n}, config.dt);
    tpc::Tensor c({n}, config.dt);
    a.fill([](std::int64_t i) { return static_cast<float>(i % 251); });
    b.fill([](std::int64_t i) { return static_cast<float>(i % 127); });

    const Bytes es = dtypeSize(config.dt);
    vassert(config.accessBytes >= es,
            "access granularity below element size");
    const auto lanes = static_cast<std::int64_t>(config.accessBytes / es);
    const std::int64_t per_tpc =
        (n + config.numTpcs - 1) / config.numTpcs;

    const StreamOp op = config.op;
    const int unroll = config.unroll;
    const int extra = config.extraComputePerVector;

    tpc::Kernel kernel = [&, per_tpc, lanes, op, unroll,
                          extra](tpc::TpcContext &ctx) {
        // Reused across iterations: one allocation per slice, not per
        // unroll block.
        std::vector<tpc::Vec> xs, ys, rs;
        for (std::int64_t w = ctx.memberStart(1); w < ctx.memberEnd(1);
             w++) {
            const std::int64_t begin = w * per_tpc;
            const std::int64_t end = std::min(begin + per_tpc, n);
            for (std::int64_t d = begin; d < end;
                 d += lanes * unroll) {
                xs.clear();
                ys.clear();
                for (int u = 0; u < unroll; u++) {
                    const std::int64_t at = d + u * lanes;
                    if (at >= end)
                        break;
                    tpc::Int5 coord{at, 0, 0, 0, 0};
                    xs.push_back(ctx.v_ld_tnsr(coord, a,
                                               config.accessBytes));
                    if (op != StreamOp::Scale)
                        ys.push_back(ctx.v_ld_tnsr(coord, b,
                                                   config.accessBytes));
                }
                rs.resize(xs.size());
                for (std::size_t u = 0; u < xs.size(); u++) {
                    switch (op) {
                      case StreamOp::Add:
                        rs[u] = ctx.v_add(xs[u], ys[u]);
                        break;
                      case StreamOp::Scale:
                        rs[u] = ctx.v_mul_s(xs[u], streamScalar);
                        break;
                      case StreamOp::Triad:
                        rs[u] = ctx.v_mac_s(xs[u], streamScalar,
                                            ys[u]);
                        break;
                    }
                }
                // Value-preserving filler compute used to raise
                // operational intensity (Figure 8(d,e,f)); rounds are
                // interleaved across the unrolled chains so the
                // 4-cycle latency stays hidden, as a hand-tuned
                // kernel would arrange.
                for (int e = 0; e < extra; e++) {
                    for (auto &r : rs) {
                        r = op == StreamOp::Triad
                                ? ctx.v_mac_s(r, 0.0f, r)
                                : ctx.v_mul_s(r, 1.0f);
                    }
                }
                for (std::size_t u = 0; u < rs.size(); u++) {
                    const std::int64_t at =
                        d + static_cast<std::int64_t>(u) * lanes;
                    tpc::Int5 coord{at, 0, 0, 0, 0};
                    ctx.v_st_tnsr(coord, op == StreamOp::Scale ? b : c,
                                  rs[u]);
                }
            }
        }
    };

    static const tpc::TpcDispatcher dispatcher;
    tpc::IndexSpace space;
    space.size = {1, config.numTpcs, 1, 1, 1};
    tpc::LaunchParams params;
    params.numTpcs = config.numTpcs;
    params.vectorBytes = config.accessBytes;
    params.kernelName = std::string("stream_") + streamOpName(op);
    auto launch = dispatcher.launch(kernel, space, params);

    // Spot-verify functional output.
    for (std::int64_t i = 0; i < n; i += std::max<std::int64_t>(1, n / 7)) {
        const float x = static_cast<float>(i % 251);
        const float y = static_cast<float>(i % 127);
        float want = 0;
        switch (op) {
          case StreamOp::Add:
            want = x + y;
            break;
          case StreamOp::Scale:
            want = streamScalar * x;
            break;
          case StreamOp::Triad:
            want = streamScalar * x + y;
            break;
        }
        const float got =
            op == StreamOp::Scale ? b.at(i) : c.at(i);
        vassert(got == want, "STREAM %s mismatch at %lld: %f != %f",
                streamOpName(op), static_cast<long long>(i),
                static_cast<double>(got), static_cast<double>(want));
    }

    const double useful_bytes =
        bytesPerElement(op, config.dt) * static_cast<double>(n);
    StreamResult r;
    r.time = launch.time;
    r.flops = launch.totalFlops;
    r.gflops = r.flops / r.time / 1e9;
    r.vectorUtilization =
        r.flops / r.time / hw::gaudi2Spec().vectorPeak(config.dt);
    r.hbmUtilization =
        useful_bytes / (r.time * hw::gaudi2Spec().hbmBandwidth);
    r.operationalIntensity = r.flops / useful_bytes;
    return r;
}

StreamResult
runStreamA100(const StreamConfig &config)
{
    static const cuda::SimtModel model;

    cuda::StreamKernelDesc desc;
    desc.numElements = config.numElements;
    desc.bytesPerElement = bytesPerElement(config.op, config.dt);
    const double extra_flops =
        config.extraComputePerVector *
        (config.op == StreamOp::Triad ? 2.0 : 1.0);
    desc.flopsPerElement = baseFlopsPerElement(config.op) + extra_flops;
    desc.usesFma = config.op == StreamOp::Triad;
    auto cost = model.streamKernel(desc, config.dt);

    StreamResult r;
    r.time = cost.time;
    r.flops = cost.flops;
    r.gflops = r.flops / r.time / 1e9;
    r.vectorUtilization =
        r.flops / r.time / hw::a100Spec().vectorPeak(config.dt);
    r.hbmUtilization = cost.hbmUtilization;
    r.operationalIntensity =
        desc.flopsPerElement / desc.bytesPerElement;
    return r;
}

} // namespace vespera::kern
