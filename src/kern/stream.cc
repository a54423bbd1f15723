#include "kern/stream.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "cuda/simt.h"
#include "obs/selfprof.h"
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

/// Writes i % period to elements [begin, end) of `t`: one period by
/// formula, then copied forward in doubling runs.
void
fillPattern(tpc::Tensor &t, std::int64_t begin, std::int64_t end,
            int period)
{
    const std::int64_t len = end - begin;
    float *p = t.range(begin, len);
    const std::int64_t head = std::min<std::int64_t>(period, len);
    for (std::int64_t i = 0; i < head; i++)
        p[i] = static_cast<float>((begin + i) % period);
    for (std::int64_t run = head; run < len; run *= 2)
        std::copy_n(p, std::min(run, len - run), p + run);
}

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
    // Large storage is mapped zero pages (tpc/tensor.h): only the pages
    // the simulated slices touch below ever cost memory.
    tpc::Tensor a({n}, config.dt);
    tpc::Tensor b({n}, config.dt);
    tpc::Tensor c({n}, config.dt);

    const Bytes es = dtypeSize(config.dt);
    vassert(config.accessBytes >= es,
            "access granularity below element size");
    const auto lanes = static_cast<std::int64_t>(config.accessBytes / es);

    const StreamOp op = config.op;
    const int unroll = config.unroll;
    const int extra = config.extraComputePerVector;

    tpc::Kernel kernel = [&, lanes, op, unroll,
                          extra](tpc::TpcContext &ctx) {
        // Reused across iterations: one allocation per slice, not per
        // unroll block.
        std::vector<tpc::Vec> xs, ys, rs;
        const std::int64_t begin = ctx.memberStart(1);
        const std::int64_t end = ctx.memberEnd(1);
        for (std::int64_t d = begin; d < end; d += lanes * unroll) {
            xs.clear();
            ys.clear();
            for (int u = 0; u < unroll; u++) {
                const std::int64_t at = d + u * lanes;
                if (at >= end)
                    break;
                tpc::Int5 coord{at, 0, 0, 0, 0};
                xs.push_back(ctx.v_ld_tnsr(coord, a, config.accessBytes));
                if (op != StreamOp::Scale)
                    ys.push_back(
                        ctx.v_ld_tnsr(coord, b, config.accessBytes));
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
                    rs[u] = ctx.v_mac_s(xs[u], streamScalar, ys[u]);
                    break;
                }
            }
            // Value-preserving filler compute used to raise
            // operational intensity (Figure 8(d,e,f)); rounds are
            // interleaved across the unrolled chains so the 4-cycle
            // latency stays hidden, as a hand-tuned kernel would
            // arrange.
            for (int e = 0; e < extra; e++) {
                for (auto &r : rs) {
                    r = op == StreamOp::Triad ? ctx.v_mac_s(r, 0.0f, r)
                                              : ctx.v_mul_s(r, 1.0f);
                }
            }
            // The slice's last vector may reach past its end, into the
            // next TPC's slice: predicate its tail off, so concurrently
            // simulated slices never write the same elements.
            for (std::size_t u = 0; u < rs.size(); u++) {
                const std::int64_t at =
                    d + static_cast<std::int64_t>(u) * lanes;
                tpc::Int5 coord{at, 0, 0, 0, 0};
                ctx.v_st_tnsr(coord, op == StreamOp::Scale ? b : c,
                              rs[u], tpc::Access::Stream, end - at);
            }
        }
    };

    // The index space is the elements themselves, so the dispatcher's
    // per-TPC split is the kernel's element split. Every slice's
    // trace depends only on its length: the launch simulates one
    // slice per distinct length, and only those slices need data.
    static const tpc::TpcDispatcher dispatcher;
    tpc::IndexSpace space;
    space.size = {1, n, 1, 1, 1};
    tpc::LaunchParams params;
    params.numTpcs = config.numTpcs;
    params.vectorBytes = config.accessBytes;
    params.kernelName = std::string("stream_") + streamOpName(op);
    params.uniformSlices = true;
    const std::vector<tpc::MemberRange> ran =
        dispatcher.planSlices(space, params).simulatedSlices();

    // Inputs over each simulated slice. The lanes of a slice's last
    // vector that read past its end are never stored, so their data
    // does not matter. SCALE only writes `b`.
    {
        obs::SelfTimer self(obs::SelfCat::HostData);
        for (const tpc::MemberRange &s : ran) {
            fillPattern(a, s.start[1], s.end[1], 251);
            if (op != StreamOp::Scale)
                fillPattern(b, s.start[1], s.end[1], 127);
        }
    }

    auto launch = dispatcher.launch(kernel, space, params);

    // Spot-verify functional output at the start, middle and last
    // element of every simulated slice.
    obs::SelfTimer self(obs::SelfCat::HostData);
    for (const tpc::MemberRange &s : ran) {
        const std::int64_t begin = s.start[1];
        const std::int64_t end = s.end[1];
        for (const std::int64_t i :
             {begin, begin + (end - begin) / 2, end - 1}) {
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
            const float got = op == StreamOp::Scale ? b.at(i) : c.at(i);
            vassert(got == want, "STREAM %s mismatch at %lld: %f != %f",
                    streamOpName(op), static_cast<long long>(i),
                    static_cast<double>(got), static_cast<double>(want));
        }
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
