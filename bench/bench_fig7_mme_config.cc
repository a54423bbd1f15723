/**
 * @file
 * Regenerates Figure 7: (a) the MME systolic-array geometry the graph
 * compiler selects as a function of the GEMM's (M, N) with K=16384,
 * (b) the corresponding compute utilization, and (c) the ablation of
 * configurable vs fixed 2x(256x256) output-stationary geometry while
 * sweeping N at M=K=16384.
 *
 * Paper anchor: configurability buys up to ~15% utilization over the
 * fixed array.
 */

#include <cstdio>
#include <vector>

#include "common/logging.h"
#include "common/table.h"
#include "common/units.h"
#include "hw/mme.h"
#include "kern/gemm.h"
#include "runtime/sweep.h"

#include "bench_common.h"

using namespace vespera;

int
main(int argc, char **argv)
{
    auto opts = bench::parseArgs(argc, argv, "bench_fig7_mme_config");
    hw::MmeModel mme;
    const std::vector<std::int64_t> dims = {128, 256, 512, 1024, 4096,
                                            16384};

    printHeading("Figure 7(a,b): selected MME geometry and utilization"
                 " (K=16384)");
    Table geo({"M", "N", "Geometry", "Active MACs", "Utilization"});
    runtime::SweepRunner geo_sweep("fig7ab.geometry");
    auto geo_rows = geo_sweep.mapIndex(
        dims.size() * dims.size(), [&](std::size_t i) {
            const auto m = dims[i / dims.size()];
            const auto n = dims[i % dims.size()];
            hw::GemmShape shape{m, 16384, n};
            auto g = mme.selectGeometry(shape, DataType::BF16);
            auto cost =
                kern::runGemm(DeviceKind::Gaudi2, shape, DataType::BF16);
            return std::vector<std::string>{
                Table::integer(m), Table::integer(n), g.label(),
                Table::pct(cost.activeMacFraction, 0),
                Table::pct(cost.utilization)};
        });
    for (auto &row : geo_rows)
        geo.addRow(std::move(row));
    geo.print();

    printHeading("Figure 7(c): configurable vs fixed geometry "
                 "(M=K=16384, N sweep)");
    Table ab({"N", "Fixed 2x(256x256)", "Configurable", "Improvement"});
    double best_gain = 0;
    const std::vector<std::int64_t> ns = {16,  32,  64,  128,
                                          256, 512, 1024};
    struct UtilPair
    {
        double fixed = 0;
        double conf = 0;
    };
    runtime::SweepRunner ab_sweep("fig7c.geometry_ablation");
    auto utils = ab_sweep.map(ns, [&](std::int64_t n) {
        hw::GemmShape shape{16384, 16384, n};
        auto fixed = mme.gemmWithGeometry(shape, DataType::BF16,
                                          hw::MmeModel::fixedGeometry());
        auto conf =
            kern::runGemm(DeviceKind::Gaudi2, shape, DataType::BF16);
        return UtilPair{fixed.utilization, conf.utilization};
    });
    for (std::size_t i = 0; i < ns.size(); i++) {
        const double gain = utils[i].conf - utils[i].fixed;
        best_gain = std::max(best_gain, gain);
        ab.addRow({Table::integer(ns[i]), Table::pct(utils[i].fixed),
                   Table::pct(utils[i].conf),
                   strfmt("%+.1f pp", gain * 100)});
    }
    ab.print();
    std::printf("\nMax improvement from configurability: %+.1f pp "
                "(paper: up to ~15%%)\n",
                best_gain * 100);
    return bench::finish(opts);
}
