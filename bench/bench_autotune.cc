/**
 * @file
 * Design-space autotuner sweep: runs `vespera-lint tune` as a bench.
 *
 *  (a) the full registry tune — every tunable kernel screened through
 *      the proxy cost model and verified with the exact static
 *      scheduler; reports the best configuration found per kernel and
 *      the end-to-end throughput of the tuner itself,
 *  (b) an amplified screening sweep — each kernel's knob axes tiled
 *      4x so the cross product grows ~two orders of magnitude, which
 *      isolates proxy-screening throughput (the path that must run at
 *      thousands of configurations per second for tuning to stay
 *      interactive; the acceptance floor is 1000/s in Release).
 *
 * Tiling repeats only values already on the axes, so the exact
 * verification of the top-k never traces a configuration the shipped
 * space could not produce. Run with --selfprof to attribute the
 * screening loop (SelfCat::KernelEval) against trace/lift/schedule
 * time. The configs/sec lines are host wall-clock rates, so they go to
 * stderr: stdout and the metrics document stay deterministic.
 */

#include <chrono>
#include <cstdio>

#include "analysis/predict/tunable.h"
#include "analysis/predict/tuner.h"
#include "common/table.h"

#include "bench_common.h"

using namespace vespera;
using namespace vespera::analysis;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Every knob axis tiled `factor` times: the cross product grows by
 *  factor^(active axes) while anchors and top-k verification still see
 *  only shipped axis values. */
TunableKernel
amplifyAxes(const TunableKernel &k, int factor)
{
    TunableKernel a = k;
    auto tile = [factor](auto &axis) {
        if (axis.empty())
            return;
        auto base = axis;
        for (int i = 1; i < factor; i++)
            axis.insert(axis.end(), base.begin(), base.end());
    };
    tile(a.unrolls);
    tile(a.tpcCounts);
    tile(a.accessBytes);
    tile(a.accumulators);
    tile(a.interleaves);
    tile(a.geometries);
    return a;
}

void
fullSweep()
{
    printHeading("Autotune (a): full registry tune, proxy screen + "
                 "exact top-k verify");
    const auto start = std::chrono::steady_clock::now();
    const std::vector<TuneResult> results = autotuneAll();
    const double elapsed = secondsSince(start);

    Table t({"Kernel", "Base cycles", "Best cycles", "Gain",
             "Screened", "Verified", "Proxy err (ppm)"});
    std::uint64_t screened = 0;
    for (const TuneResult &r : results) {
        screened += r.configsScreened;
        t.addRow({r.kernel, Table::num(r.base.exactCycles, 0),
                  Table::num(r.best.exactCycles, 0),
                  Table::pct(r.improvementFrac),
                  Table::integer(static_cast<long long>(
                      r.configsScreened)),
                  Table::integer(static_cast<long long>(
                      r.exactVerifications)),
                  Table::integer(static_cast<long long>(
                      r.proxyErrorPpm))});
    }
    t.print();
    std::fflush(stdout); // keep a merged log in print order
    std::fprintf(stderr,
                 "%llu configs in %.3f s end-to-end (%.0f configs/s, "
                 "anchors + screening + verification)\n",
                 static_cast<unsigned long long>(screened), elapsed,
                 static_cast<double>(screened) / elapsed);
}

void
amplifiedSweep()
{
    constexpr int kTileFactor = 4;
    printHeading("Autotune (b): amplified screening sweep (axes "
                 "tiled 4x)");
    const TunableRegistry &reg = TunableRegistry::instance();
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t screened = 0;
    Table t({"Kernel", "Space", "Amplified", "Best cycles"});
    for (const std::string &name : reg.names()) {
        const TunableKernel &k = reg.get(name);
        const TunableKernel a = amplifyAxes(k, kTileFactor);
        const TuneResult r = autotuneKernel(a);
        screened += r.configsScreened;
        t.addRow({name,
                  Table::integer(static_cast<long long>(
                      k.configCount())),
                  Table::integer(static_cast<long long>(
                      r.configsScreened)),
                  Table::num(r.best.exactCycles, 0)});
    }
    const double elapsed = secondsSince(start);
    t.print();
    std::fflush(stdout); // keep a merged log in print order
    std::fprintf(stderr,
                 "%llu configs in %.3f s (%.0f configs/s; floor for "
                 "interactive tuning: 1000/s)\n",
                 static_cast<unsigned long long>(screened), elapsed,
                 static_cast<double>(screened) / elapsed);
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = bench::parseArgs(argc, argv, "bench_autotune");
    registerTunableKernels();
    fullSweep();
    amplifiedSweep();
    return bench::finish(opts);
}
