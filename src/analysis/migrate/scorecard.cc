#include "analysis/migrate/scorecard.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "analysis/kernel_registry.h"
#include "common/logging.h"
#include "obs/counters.h"
#include "port/lower.h"
#include "port/reference.h"

namespace vespera::analysis {

namespace {

/** Max per-element relative error across the desc's output buffers. */
double
maxRelativeError(const port::CudaKernelDesc &desc,
                 const port::PortRun &run,
                 const port::ReferenceResult &ref)
{
    double worst = 0;
    for (std::size_t b = 0; b < desc.buffers.size(); b++) {
        if (!desc.buffers[b].output)
            continue;
        const std::int64_t n = desc.buffers[b].elems;
        const float *lowered = (*run.tensors)[b].range(0, n);
        const std::vector<float> &want = ref.buffers[b];
        for (std::int64_t i = 0; i < n; i++) {
            const double got = lowered[i];
            const double exp = want[static_cast<std::size_t>(i)];
            const double denom = std::max(1.0, std::fabs(exp));
            worst = std::max(worst, std::fabs(got - exp) / denom);
        }
    }
    return worst;
}

} // namespace

MigrateEntry
migrateKernel(const port::CorpusEntry &entry,
              const MigrateOptions &options)
{
    MigrateEntry out;
    out.kernel = entry.desc.name;
    out.shape = entry.desc.shape;
    out.notes = entry.notes;

    // Lower and run under serial trace capture; keep the tensors for
    // the parity check and the largest per-TPC trace for analysis.
    std::optional<port::PortRun> run;
    const tpc::Program program = captureTrace(
        [&] { run = port::lowerAndRun(entry.desc, entry.lower); });

    const port::ReferenceResult ref = port::runReference(entry.desc);
    out.maxRelError = maxRelativeError(entry.desc, *run, ref);
    out.parity = out.maxRelError <= options.parityTolerance;

    out.portedTime = run->launch.time;
    out.handTime = entry.handTime ? entry.handTime() : 0;
    out.achievedFraction =
        out.portedTime > 0 ? out.handTime / out.portedTime : 0;
    out.a100Time = entry.a100Time ? entry.a100Time() : 0;
    out.slowdownVsA100 =
        out.a100Time > 0 ? out.portedTime / out.a100Time : 0;

    out.analysis = analyzeProgramStatic(program, options.analyzer);
    out.portedCycles = out.analysis.predictedCycles();

    if (options.exportCounters) {
        obs::CounterRegistry &reg = obs::CounterRegistry::instance();
        reg.counter("port.kernels").add(1.0);
        if (!out.parity)
            reg.counter("port.parity_failures").add(1.0);
        reg.counter("port.findings")
            .add(static_cast<double>(
                out.analysis.report.diagnostics.size()));
    }
    return out;
}

std::vector<MigrateEntry>
runMigrationCorpus(const MigrateOptions &options)
{
    std::vector<MigrateEntry> out;
    const auto &corpus = port::migrationCorpus();
    out.reserve(corpus.size());
    for (const port::CorpusEntry &entry : corpus)
        out.push_back(migrateKernel(entry, options));
    return out;
}

} // namespace vespera::analysis
