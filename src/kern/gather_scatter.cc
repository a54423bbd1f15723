#include "kern/gather_scatter.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "cuda/simt.h"
#include "tpc/dispatcher.h"

namespace vespera::kern {

GatherScatterResult
runGatherScatterGaudi(const GatherScatterConfig &c, Rng &rng)
{
    const Bytes es = dtypeSize(c.dt);
    vassert(c.numVectors > 0,
            "bad gather/scatter config: numVectors must be positive, got %llu",
            static_cast<unsigned long long>(c.numVectors));
    vassert(c.vectorBytes >= es,
            "bad gather/scatter config: vectorBytes must be at least the "
            "%llu B element size, got %llu",
            static_cast<unsigned long long>(es),
            static_cast<unsigned long long>(c.vectorBytes));
    vassert(c.accessFraction > 0 && c.accessFraction <= 1.0,
            "bad gather/scatter config: accessFraction out of (0,1], "
            "got %g", c.accessFraction);

    const auto lanes = static_cast<std::int64_t>(c.vectorBytes / es);
    const auto num_vectors = static_cast<std::int64_t>(c.numVectors);
    const auto num_accesses = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(c.accessFraction * num_vectors));

    // Index list, read by the kernel in 256 B chunks.
    tpc::Tensor indices({num_accesses}, DataType::FP32);
    std::vector<std::int64_t> idx(static_cast<std::size_t>(num_accesses));
    for (auto &v : idx)
        v = static_cast<std::int64_t>(
            rng.below(static_cast<std::uint64_t>(num_vectors)));
    indices.fill([&idx](std::int64_t i) {
        return static_cast<float>(idx[static_cast<std::size_t>(i)]);
    });

    // The index space is the accesses themselves, so the dispatcher's
    // ceil split is the kernel's per-TPC split. A slice's trace depends
    // only on its length (timing never reads which rows it gathers):
    // the launch simulates one slice per distinct length, and only
    // those slices need data.
    static const tpc::TpcDispatcher dispatcher;
    tpc::IndexSpace space;
    space.size = {1, num_accesses, 1, 1, 1};
    tpc::LaunchParams params;
    params.numTpcs = c.numTpcs;
    params.vectorBytes = std::min<Bytes>(c.vectorBytes, 256);
    params.kernelName = c.scatter ? "scatter" : "gather";
    params.uniformSlices = true;
    const std::vector<tpc::MemberRange> ran =
        dispatcher.planSlices(space, params).simulatedSlices();

    // Row r holds r % 61 in every lane. Only rows gathered by simulated
    // slices are ever read (scatter only writes), so only they are
    // filled; the zeroed storage of every other row is never touched.
    tpc::Tensor array({lanes, num_vectors}, c.dt);
    if (!c.scatter) {
        for (const tpc::MemberRange &s : ran) {
            for (std::int64_t j = s.start[1]; j < s.end[1]; j++) {
                const std::int64_t row = idx[static_cast<std::size_t>(j)];
                float *p = array.range(row * lanes, lanes);
                std::fill(p, p + lanes, static_cast<float>(row % 61));
            }
        }
    }

    // Per-TPC accumulator output (one column per TPC).
    tpc::Tensor out({lanes, c.numTpcs}, DataType::FP32);

    const std::int64_t per_tpc =
        (num_accesses + c.numTpcs - 1) / c.numTpcs;
    const bool scatter = c.scatter;
    const int unroll = std::max(1, c.unroll);
    const int num_accs = std::max(1, c.accumulators);
    const Bytes vec_bytes = c.vectorBytes;

    tpc::Kernel kernel = [&, per_tpc, lanes, scatter, unroll, num_accs,
                          vec_bytes](tpc::TpcContext &ctx) {
        const std::int64_t begin = ctx.memberStart(1);
        const std::int64_t end = ctx.memberEnd(1);
        // Independent accumulator chains keep the reduction off the
        // critical path (4-cycle vector latency, Section 2.2).
        std::vector<tpc::Vec> accs;
        for (int q = 0; q < num_accs; q++)
            accs.push_back(ctx.v_zero(static_cast<int>(lanes)));
        constexpr std::int64_t idx_chunk = 64; // 256 B of indices.
        std::vector<tpc::Vec> vs; // Reused across unroll blocks.
        for (std::int64_t i = begin; i < end; i += idx_chunk) {
            // Stage a 256 B block of indices (streaming load).
            (void)ctx.v_ld_tnsr({i, 0, 0, 0, 0}, indices, 256,
                                tpc::Access::Stream);
            const std::int64_t blk_end = std::min(i + idx_chunk, end);
            for (std::int64_t j = i; j < blk_end; j += unroll) {
                vs.clear();
                for (int u = 0; u < unroll && j + u < blk_end; u++) {
                    const std::int64_t target =
                        idx[static_cast<std::size_t>(j + u)];
                    tpc::Int5 coord{0, target, 0, 0, 0};
                    if (scatter) {
                        ctx.v_st_tnsr(coord, array, accs[0],
                                      tpc::Access::Random);
                    } else {
                        vs.push_back(ctx.v_ld_tnsr(coord, array,
                                                   vec_bytes,
                                                   tpc::Access::Random));
                    }
                }
                for (std::size_t u = 0; u < vs.size(); u++) {
                    auto &acc = accs[u % accs.size()];
                    acc = ctx.v_add(acc, vs[u]);
                }
            }
        }
        tpc::Vec total = accs[0];
        for (std::size_t q = 1; q < accs.size(); q++)
            total = ctx.v_add(total, accs[q]);
        // One streaming store of the accumulator, in this TPC's column.
        ctx.v_st_tnsr({0, begin / per_tpc, 0, 0, 0}, out, total,
                      tpc::Access::Stream);
    };

    auto launch = dispatcher.launch(kernel, space, params);

    if (!scatter) {
        // Verify: each simulated TPC's accumulator equals the reference
        // sum over the rows its slice gathered (lane 0 suffices: rows
        // are constant).
        for (const tpc::MemberRange &s : ran) {
            const std::int64_t t = s.start[1] / per_tpc;
            const double got = out.at(tpc::Int5{0, t, 0, 0, 0});
            double want = 0;
            for (std::int64_t j = s.start[1]; j < s.end[1]; j++)
                want += static_cast<double>(
                    idx[static_cast<std::size_t>(j)] % 61);
            vassert(std::abs(got - want) <= 1e-4 * std::max(1.0, want),
                    "gather verification failed at TPC %lld: %f != %f",
                    static_cast<long long>(t), got, want);
        }
    }

    GatherScatterResult r;
    r.time = launch.time;
    r.usefulBytes =
        static_cast<Bytes>(num_accesses) * c.vectorBytes;
    r.hbmUtilization = static_cast<double>(r.usefulBytes) /
                       (r.time * hw::gaudi2Spec().hbmBandwidth);
    return r;
}

GatherScatterResult
runGatherScatterA100(const GatherScatterConfig &c)
{
    static const cuda::SimtModel model;
    const auto num_accesses = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(c.accessFraction * c.numVectors));
    auto cost =
        model.gatherScatter(c.vectorBytes, num_accesses, c.scatter);

    GatherScatterResult r;
    r.time = cost.time;
    r.usefulBytes = num_accesses * c.vectorBytes;
    r.hbmUtilization = cost.hbmUtilization;
    return r;
}

} // namespace vespera::kern
