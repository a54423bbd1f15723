/**
 * @file
 * Extension: projecting the analysis onto Gaudi-3.
 *
 * The paper's footnote 1 states Gaudi-3's architecture is virtually
 * identical to Gaudi-2's (chiplet-scaled compute and bandwidth). This
 * bench reuses the same MME/HBM models with the Gaudi-3 specification
 * to project the Figure 4/5 GEMM results and the memory-bound decode
 * arithmetic forward one generation.
 */

#include <cstdio>

#include "common/logging.h"
#include "common/table.h"
#include "common/units.h"
#include "hw/mme.h"
#include "kern/gemm.h"
#include "mem/hbm.h"
#include "runtime/sweep.h"

#include "bench_common.h"

using namespace vespera;

int
main(int argc, char **argv)
{
    auto opts = bench::parseArgs(argc, argv, "bench_ext_gaudi3");
    const auto &g3 = hw::gaudi3Spec();
    hw::MmeModel mme3(g3);

    printHeading("Projected GEMM throughput (BF16 TFLOPS)");
    Table t({"Shape", "A100", "Gaudi-2", "Gaudi-3 (proj.)",
             "G3 util"});
    const std::vector<std::int64_t> sizes = {1024, 4096, 8192, 16384};
    runtime::SweepRunner sweepr("ext_gaudi3.gemm");
    auto rows = sweepr.map(sizes, [&](std::int64_t s) {
        hw::GemmShape shape{s, s, s};
        auto a = kern::runGemm(DeviceKind::A100, shape, DataType::BF16);
        auto g2 = kern::runGemm(DeviceKind::Gaudi2, shape, DataType::BF16);
        auto g3c = mme3.gemm(shape, DataType::BF16);
        kern::chargeGemm(g3c.engine, shape, g3c.geometry, g3c.time,
                         g3c.computeTime, g3c.memoryTime, false);
        return std::vector<std::string>{
            strfmt("%lld^3", static_cast<long long>(s)),
            Table::num(a.achievedFlops / TFLOPS, 0),
            Table::num(g2.achievedFlops / TFLOPS, 0),
            Table::num(g3c.achievedFlops / TFLOPS, 0),
            Table::pct(g3c.utilization)};
    });
    for (auto &row : rows)
        t.addRow(std::move(row));
    t.print();

    printHeading("Projected memory-bound LLM decode arithmetic");
    mem::HbmModel h2(hw::gaudi2Spec());
    mem::HbmModel h3(g3);
    mem::HbmModel ha(hw::a100Spec());
    const double weights_8b = 8e9 * 2; // Llama-8B BF16 weights.
    Table d({"Device", "Stream BW (TB/s)",
             "8B weight pass (ms)", "Decode tok/s (batch 1)"});
    struct Row { const char *name; const mem::HbmModel *m; };
    for (auto [name, m] : {Row{"A100", &ha}, Row{"Gaudi-2", &h2},
                           Row{"Gaudi-3 (proj.)", &h3}}) {
        const Seconds pass =
            m->streamTime(static_cast<Bytes>(weights_8b));
        d.addRow({name, Table::num(m->streamBandwidth() / TB, 2),
                  Table::num(pass * 1e3, 2),
                  Table::num(1.0 / pass, 0)});
    }
    d.print();

    printHeading("Spec ratios vs A100");
    Table s({"Metric", "Gaudi-2", "Gaudi-3 (proj.)"});
    const auto &g2s = hw::gaudi2Spec();
    const auto &as = hw::a100Spec();
    s.addRow({"Matrix BF16 peak",
              Table::num(g2s.matrixPeakBf16 / as.matrixPeakBf16, 2),
              Table::num(g3.matrixPeakBf16 / as.matrixPeakBf16, 2)});
    s.addRow({"HBM bandwidth",
              Table::num(g2s.hbmBandwidth / as.hbmBandwidth, 2),
              Table::num(g3.hbmBandwidth / as.hbmBandwidth, 2)});
    s.addRow({"Comm bandwidth",
              Table::num(g2s.commBandwidthBidir / as.commBandwidthBidir,
                         2),
              Table::num(g3.commBandwidthBidir / as.commBandwidthBidir,
                         2)});
    s.addRow({"TDP", Table::num(g2s.tdp / as.tdp, 2),
              Table::num(g3.tdp / as.tdp, 2)});
    s.print();
    return bench::finish(opts);
}
