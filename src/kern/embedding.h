/**
 * @file
 * Batched-embedding lookup operators (Section 4.1, Figures 14-15).
 *
 * Three Gaudi TPC-C implementations:
 *  - SdkSingleTable: models the operator shipped with the Gaudi SDK —
 *    one kernel launch per table, no manual unrolling (the paper
 *    measures it at 37% of FBGEMM-A100; our optimized SingleTable is
 *    ~1.6x faster than it).
 *  - SingleTable: our optimized per-table operator — lookup-index loop
 *    unrolled by 4 for memory-level parallelism, gathered vectors
 *    staged in TPC local memory, work spread across all TPCs
 *    (Figure 14(a)).
 *  - BatchedTable: all tables fused into one kernel launch, treating
 *    them as one large table with per-table offsets (Figure 14(b)),
 *    matching FBGEMM's CUDA BatchedTable design.
 *
 * Plus an A100 comparator modeling FBGEMM's batched embedding kernel.
 */

#ifndef VESPERA_KERN_EMBEDDING_H
#define VESPERA_KERN_EMBEDDING_H

#include <memory>
#include <vector>

#include "common/rng.h"
#include "tpc/dispatcher.h"

namespace vespera::kern {

/** Embedding layer configuration (RM1/RM2 shapes come from Table 3). */
struct EmbeddingConfig
{
    int numTables = 10;
    /// Rows per table. The paper's RM configs use 1M rows; the default
    /// here is smaller so functional tables stay memory-friendly —
    /// timing depends on access counts and sizes, not on row count,
    /// once tables exceed any cache.
    std::int64_t rowsPerTable = 1 << 15;
    /// Embedding vector size in bytes (Figures 11/15 sweep 64..2048).
    Bytes vectorBytes = 256;
    int batch = 1024;
    /// Lookups pooled (summed) per sample per table.
    int pooling = 20;
    DataType dt = DataType::FP32;
};

/** Operator variants. */
enum class EmbeddingVariant {
    SdkSingleTable,
    SingleTable,
    BatchedTable,
};

const char *embeddingVariantName(EmbeddingVariant v);

/** Outcome of one embedding lookup pass. */
struct EmbeddingResult
{
    Seconds time = 0;
    /// Payload bytes gathered from embedding tables.
    Bytes gatheredBytes = 0;
    /// gatheredBytes / (time x peak HBM bandwidth) — Figure 15 y-axis.
    double hbmUtilization = 0;
    int kernelLaunches = 0;
};

/**
 * Functional + timed embedding layer on the simulated Gaudi-2.
 * Construction materializes the (concatenated) embedding tables;
 * run() draws indices, executes the TPC kernels, and verifies the
 * pooled output against a reference. The launches declare
 * LaunchParams::uniformSlices, so only one slice per distinct slice
 * length is simulated and produces output; verification covers every
 * pooled output of those simulated slices, and only those.
 */
class EmbeddingLayerGaudi
{
  public:
    explicit EmbeddingLayerGaudi(const EmbeddingConfig &config);

    EmbeddingResult run(EmbeddingVariant variant, Rng &rng) const;

    /**
     * run() with the variant's tuning knobs overridden: `unroll` is
     * the lookup-loop unroll factor, `interleave` the samples
     * pipelined per TPC; 0 keeps the variant's shipped value. The
     * static autotuner (analysis/predict) sweeps these axes.
     */
    EmbeddingResult run(EmbeddingVariant variant, Rng &rng, int unroll,
                        int interleave) const;

    const EmbeddingConfig &config() const { return config_; }

  private:
    EmbeddingResult runBatched(const std::vector<std::int64_t> &idx,
                               int unroll, int interleave) const;
    EmbeddingResult runPerTable(const std::vector<std::int64_t> &idx,
                                int unroll, int interleave) const;
    /** Check every pooled output of the slices `plan` simulates
     *  against the reference sum; `per_table` when the plan splits
     *  samples (one launch per table) rather than members. */
    void verify(const std::vector<std::int64_t> &idx,
                const tpc::Tensor &out, const tpc::SlicePlan &plan,
                bool per_table) const;

    /// Deterministic content of table row `global_row`, lane 0.
    static float rowValue(std::int64_t global_row);

    EmbeddingConfig config_;
    std::int64_t lanes_;
    std::unique_ptr<tpc::Tensor> tables_; ///< [lanes, rows x tables].
};

/** FBGEMM-style batched embedding on the A100 model. */
EmbeddingResult runEmbeddingA100(const EmbeddingConfig &config);

} // namespace vespera::kern

#endif // VESPERA_KERN_EMBEDDING_H
