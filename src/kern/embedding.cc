#include "kern/embedding.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/logging.h"
#include "cuda/simt.h"

namespace vespera::kern {

namespace {

constexpr int optimizedUnroll = 4;     // Figure 14(a): unroll factor 4.
constexpr int optimizedInterleave = 4; // Samples pipelined per TPC.
// The SDK operator has no manual unrolling, but the TPC compiler still
// overlaps a couple of lookups; the paper measures our optimized
// SingleTable at ~1.6x the SDK's throughput.
constexpr int sdkUnroll = 2;
constexpr int sdkInterleave = 3;

/// FBGEMM's CUDA kernel sustains this fraction of the achievable
/// random-access bandwidth (warp-level pooling and index arithmetic).
constexpr double fbgemmEfficiency = 0.85;

const tpc::TpcDispatcher &
dispatcher()
{
    static const tpc::TpcDispatcher d;
    return d;
}

/**
 * Builds the pooled-gather TPC kernel shared by all Gaudi variants.
 *
 * Index-space dim 1 enumerates `members` (one pooled output each).
 * The optimized variants process two members' lookups interleaved
 * with the lookup loop unrolled by `unroll` and two accumulator
 * chains per member — keeping enough random loads in flight to cover
 * the HBM round trip. The SDK variant (`unroll`=1,
 * `member_interleave`=1) degenerates to the serial form.
 */
tpc::Kernel
makeGatherKernel(const tpc::Tensor &indices, tpc::Tensor &out,
                 const tpc::Tensor &tables,
                 std::function<std::int64_t(std::int64_t, std::int64_t)>
                     row_of,
                 std::int64_t lanes, Bytes vec_bytes, std::int64_t P,
                 int unroll, int member_interleave,
                 std::function<std::int64_t(std::int64_t)> out_col)
{
    return [&indices, &out, &tables, row_of = std::move(row_of), lanes,
            vec_bytes, P, unroll, member_interleave,
            out_col = std::move(out_col)](tpc::TpcContext &ctx) {
        const std::int64_t step = member_interleave;
        // Reused across members and unroll blocks.
        std::vector<tpc::Vec> vs;
        std::vector<int> owner;
        for (std::int64_t m0 = ctx.memberStart(1);
             m0 < ctx.memberEnd(1); m0 += step) {
            const std::int64_t m_end =
                std::min(m0 + step, ctx.memberEnd(1));
            const int group = static_cast<int>(m_end - m0);

            // Stage each member's pooling indices (one granule each).
            for (int g = 0; g < group; g++) {
                (void)ctx.v_ld_tnsr({0, m0 + g, 0, 0, 0}, indices,
                                    static_cast<Bytes>(P) * 4,
                                    tpc::Access::Stream);
            }

            // Two accumulator chains per member.
            std::vector<tpc::Vec> acc;
            for (int g = 0; g < 2 * group; g++)
                acc.push_back(ctx.v_zero(static_cast<int>(lanes)));
            std::vector<int> spin(static_cast<std::size_t>(group), 0);

            for (std::int64_t p = 0; p < P; p += unroll) {
                // Issue the group's gathers for this unroll block
                // before consuming any of them.
                vs.clear();
                owner.clear();
                for (int g = 0; g < group; g++) {
                    for (int u = 0; u < unroll && p + u < P; u++) {
                        const std::int64_t row = row_of(m0 + g, p + u);
                        vs.push_back(ctx.v_ld_tnsr(
                            {0, row, 0, 0, 0}, tables, vec_bytes,
                            tpc::Access::Random));
                        owner.push_back(g);
                    }
                }
                for (std::size_t i = 0; i < vs.size(); i++) {
                    const int g = owner[i];
                    auto &slot = acc[static_cast<std::size_t>(
                        2 * g + (spin[static_cast<std::size_t>(g)]++ &
                                 1))];
                    slot = ctx.v_add(slot, vs[i]);
                }
            }

            for (int g = 0; g < group; g++) {
                tpc::Vec pooled =
                    ctx.v_add(acc[static_cast<std::size_t>(2 * g)],
                              acc[static_cast<std::size_t>(2 * g + 1)]);
                // Stage in local memory before writeback
                // (Figure 14(a): gathered vectors held in TPC local
                // memory).
                ctx.v_st_local(g * lanes, pooled);
                ctx.v_st_tnsr({0, out_col(m0 + g), 0, 0, 0}, out,
                              pooled, tpc::Access::Stream);
            }
        }
    };
}

} // namespace

const char *
embeddingVariantName(EmbeddingVariant v)
{
    switch (v) {
      case EmbeddingVariant::SdkSingleTable:
        return "SDK-SingleTable";
      case EmbeddingVariant::SingleTable:
        return "SingleTable";
      case EmbeddingVariant::BatchedTable:
        return "BatchedTable";
    }
    return "?";
}

float
EmbeddingLayerGaudi::rowValue(std::int64_t global_row)
{
    return static_cast<float>(global_row % 89);
}

EmbeddingLayerGaudi::EmbeddingLayerGaudi(const EmbeddingConfig &config)
    : config_(config)
{
    vassert(config.numTables >= 1 && config.rowsPerTable >= 1 &&
            config.batch >= 1 && config.pooling >= 1,
            "bad embedding config");
    const Bytes es = dtypeSize(config.dt);
    vassert(config.vectorBytes >= es && config.vectorBytes % es == 0,
            "vector size must be a multiple of the element size");
    lanes_ = static_cast<std::int64_t>(config.vectorBytes / es);

    const std::int64_t total_rows =
        config.rowsPerTable * config.numTables;
    tables_ = std::make_unique<tpc::Tensor>(
        std::vector<std::int64_t>{lanes_, total_rows}, config.dt);
    tables_->fillRows(rowValue);
}

EmbeddingResult
EmbeddingLayerGaudi::run(EmbeddingVariant variant, Rng &rng) const
{
    return run(variant, rng, 0, 0);
}

EmbeddingResult
EmbeddingLayerGaudi::run(EmbeddingVariant variant, Rng &rng, int unroll,
                         int interleave) const
{
    // idx[(sample * T + table) * P + p] = row within the table.
    const std::size_t count = static_cast<std::size_t>(config_.batch) *
                              config_.numTables * config_.pooling;
    std::vector<std::int64_t> idx(count);
    for (auto &v : idx)
        v = static_cast<std::int64_t>(rng.below(
            static_cast<std::uint64_t>(config_.rowsPerTable)));

    const bool sdk = variant == EmbeddingVariant::SdkSingleTable;
    const int u = unroll > 0 ? unroll
                             : (sdk ? sdkUnroll : optimizedUnroll);
    const int il = interleave > 0
                       ? interleave
                       : (sdk ? sdkInterleave : optimizedInterleave);
    switch (variant) {
      case EmbeddingVariant::BatchedTable:
        return runBatched(idx, u, il);
      case EmbeddingVariant::SingleTable:
      case EmbeddingVariant::SdkSingleTable:
        return runPerTable(idx, u, il);
    }
    vpanic("unknown embedding variant");
}

EmbeddingResult
EmbeddingLayerGaudi::runBatched(const std::vector<std::int64_t> &idx,
                                int unroll, int interleave) const
{
    const std::int64_t T = config_.numTables;
    const std::int64_t B = config_.batch;
    const std::int64_t P = config_.pooling;
    const std::int64_t rows = config_.rowsPerTable;
    const std::int64_t members = B * T;

    // Lookup indices handed to the kernel in one call (Figure 14(b):
    // "indices and offsets for all tables passed in a single call").
    tpc::Tensor indices({P, members}, DataType::FP32);
    indices.fill([&idx](std::int64_t flat) {
        return static_cast<float>(idx[static_cast<std::size_t>(flat)]);
    });
    tpc::Tensor out({lanes_, members}, config_.dt);

    tpc::Kernel kernel = makeGatherKernel(
        indices, out, *tables_,
        [&idx, P, rows, T](std::int64_t m, std::int64_t p) {
            return (m % T) * rows +
                   idx[static_cast<std::size_t>(m * P + p)];
        },
        lanes_, config_.vectorBytes, P, unroll, interleave,
        [](std::int64_t m) { return m; });

    // A slice's trace depends only on its member count, P, unroll and
    // interleave, never on the rows it gathers: the launch simulates
    // one slice per distinct length.
    tpc::IndexSpace space;
    space.size = {1, members, 1, 1, 1};
    tpc::LaunchParams params;
    params.vectorBytes = std::min<Bytes>(config_.vectorBytes, 256);
    params.kernelName = "embedding_batched";
    params.uniformSlices = true;
    auto launch = dispatcher().launch(kernel, space, params);

    verify(idx, out, dispatcher().planSlices(space, params), false);

    EmbeddingResult r;
    r.time = launch.time;
    r.gatheredBytes =
        static_cast<Bytes>(B) * T * P * config_.vectorBytes;
    r.hbmUtilization = static_cast<double>(r.gatheredBytes) /
                       (r.time * hw::gaudi2Spec().hbmBandwidth);
    r.kernelLaunches = 1;
    return r;
}

EmbeddingResult
EmbeddingLayerGaudi::runPerTable(const std::vector<std::int64_t> &idx,
                                 int unroll, int interleave) const
{
    const std::int64_t T = config_.numTables;
    const std::int64_t B = config_.batch;
    const std::int64_t P = config_.pooling;
    const std::int64_t rows = config_.rowsPerTable;

    tpc::Tensor out({lanes_, B * T}, config_.dt);

    // Every table's launch splits the samples the same way and, like
    // the batched launch, simulates one slice per distinct length.
    tpc::IndexSpace space;
    space.size = {1, B, 1, 1, 1};
    tpc::LaunchParams params;
    params.vectorBytes = std::min<Bytes>(config_.vectorBytes, 256);
    params.kernelName = unroll == sdkUnroll ? "embedding_sdk_single_table"
                                            : "embedding_single_table";
    params.uniformSlices = true;

    EmbeddingResult r;
    for (std::int64_t table = 0; table < T; table++) {
        // Per-table index staging tensor (separate kernel launch).
        tpc::Tensor indices({P, B}, DataType::FP32);
        indices.fill([&idx, table, T, P](std::int64_t flat) {
            const std::int64_t s = flat / P;
            const std::int64_t p = flat % P;
            return static_cast<float>(
                idx[static_cast<std::size_t>(((s * T) + table) * P + p)]);
        });

        const std::int64_t table_offset = table * rows;
        tpc::Kernel kernel = makeGatherKernel(
            indices, out, *tables_,
            [&idx, P, T, table, table_offset](std::int64_t s,
                                              std::int64_t p) {
                return table_offset +
                       idx[static_cast<std::size_t>(
                           ((s * T) + table) * P + p)];
            },
            lanes_, config_.vectorBytes, P, unroll, interleave,
            [T, table](std::int64_t s) { return s * T + table; });

        auto launch = dispatcher().launch(kernel, space, params);
        r.time += launch.time;
        r.kernelLaunches++;
    }

    verify(idx, out, dispatcher().planSlices(space, params), true);

    r.gatheredBytes =
        static_cast<Bytes>(B) * T * P * config_.vectorBytes;
    r.hbmUtilization = static_cast<double>(r.gatheredBytes) /
                       (r.time * hw::gaudi2Spec().hbmBandwidth);
    return r;
}

void
EmbeddingLayerGaudi::verify(const std::vector<std::int64_t> &idx,
                            const tpc::Tensor &out,
                            const tpc::SlicePlan &plan,
                            bool per_table) const
{
    const std::int64_t T = config_.numTables;
    const std::int64_t P = config_.pooling;
    auto check = [&](std::int64_t m) {
        const std::int64_t table = m % T;
        float want = 0;
        for (std::int64_t p = 0; p < P; p++) {
            const std::int64_t row = table * config_.rowsPerTable +
                idx[static_cast<std::size_t>(m * P + p)];
            want += rowValue(row);
        }
        const float got = out.at(tpc::Int5{0, m, 0, 0, 0});
        vassert(got == want,
                "embedding verification failed at member %lld: %f != %f",
                static_cast<long long>(m), static_cast<double>(got),
                static_cast<double>(want));
    };
    // Only simulated slices produce output. A per-table slice is a
    // range of samples s, whose pooled outputs are members s*T + table.
    for (const tpc::MemberRange &slice : plan.simulatedSlices()) {
        for (std::int64_t i = slice.start[1]; i < slice.end[1]; i++) {
            if (!per_table) {
                check(i);
                continue;
            }
            for (std::int64_t table = 0; table < T; table++)
                check(i * T + table);
        }
    }
}

EmbeddingResult
runEmbeddingA100(const EmbeddingConfig &config)
{
    static const cuda::SimtModel model;
    const auto accesses = static_cast<std::uint64_t>(config.batch) *
                          config.numTables * config.pooling;
    // FBGEMM's BatchedTable: one kernel, massive thread-level
    // parallelism; occupancy scales with the number of lookups.
    const double occupancy =
        std::min<double>(2048.0, static_cast<double>(accesses) / 32.0);
    auto gather = model.gatherScatter(config.vectorBytes, accesses,
                                      false, std::max(1.0, occupancy));
    // Pooled outputs written back streaming.
    const Bytes out_bytes = static_cast<Bytes>(config.batch) *
                            config.numTables * config.vectorBytes;
    const Seconds write = model.hbm().streamTime(out_bytes);

    EmbeddingResult r;
    r.time = gather.memoryTime / fbgemmEfficiency + write +
             hw::a100Spec().launchOverhead;
    r.gatheredBytes = accesses * config.vectorBytes;
    r.hbmUtilization = static_cast<double>(r.gatheredBytes) /
                       (r.time * hw::a100Spec().hbmBandwidth);
    r.kernelLaunches = 1;
    return r;
}

} // namespace vespera::kern
