/**
 * @file
 * The premise behind LaunchParams::uniformSlices on data-dependent
 * kernels: TPC timing is address-blind. evaluatePipeline must return
 * the same result and issue schedule for a recorded trace whatever
 * its memory offsets and streams say, on every registered kernel.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "analysis/kernel_registry.h"
#include "common/logging.h"
#include "common/rng.h"
#include "tpc/pipeline.h"

namespace vespera::analysis {
namespace {

/** `program` with every memOffset and memStream replaced by `rewrite`. */
template <typename Rewrite>
tpc::Program
withAddresses(const tpc::Program &program, Rewrite rewrite)
{
    tpc::Program out;
    out.setKernelName(program.kernelName());
    for (std::int32_t v = 0; v < program.numValues(); v++)
        (void)out.newValue();
    for (tpc::Instr instr : program.instrs()) {
        rewrite(instr);
        out.append(instr);
    }
    return out;
}

/** Every PipelineResult and IssueTrace field, bit for bit. */
std::string
timingDoc(const tpc::Program &program)
{
    tpc::IssueTrace trace;
    const tpc::PipelineResult r = evaluatePipeline(
        program, tpc::TpcParams::forGaudi2(), &trace);
    std::string doc = strfmt(
        "%a|%a|%a|%a|%llu|%llu|%llu|%llu|%a|drain %a\n", r.cycles, r.time,
        r.flops, r.stallCycles,
        static_cast<unsigned long long>(r.instructions),
        static_cast<unsigned long long>(r.busBytes),
        static_cast<unsigned long long>(r.randomTxns),
        static_cast<unsigned long long>(r.randomAccesses),
        r.memConcurrency, trace.drainStall);
    for (const tpc::IssuedInstr &i : trace.instrs)
        doc += strfmt("%a %a %d %d\n", i.issueCycle, i.stallCycles,
                      static_cast<int>(i.cause), i.criticalSrc);
    return doc;
}

TEST(AddressBlind, TimingIgnoresOffsetsAndStreamsOnEveryKernel)
{
    registerBuiltinKernels();
    const KernelRegistry &reg = KernelRegistry::instance();
    EXPECT_GE(reg.size(), 32u);
    for (const std::string &name : reg.names()) {
        const TracedKernel k = reg.trace(name);
        const std::string want = timingDoc(k.program);

        const tpc::Program zeroed =
            withAddresses(k.program, [](tpc::Instr &i) {
                i.memOffset = 0;
                i.memStream = 0;
            });
        Rng rng(0x5eed);
        const tpc::Program scrambled =
            withAddresses(k.program, [&rng](tpc::Instr &i) {
                i.memOffset =
                    static_cast<std::int64_t>(rng.below(1ull << 40));
                i.memStream =
                    static_cast<std::uint32_t>(rng.below(1ull << 32));
            });
        using Rewritten = std::pair<const char *, const tpc::Program *>;
        for (const auto &[rewrite, program] :
             {Rewritten{"zeros", &zeroed},
              Rewritten{"seeded scramble", &scrambled}}) {
            EXPECT_EQ(timingDoc(*program), want)
                << "timing became address-dependent: " << name
                << " evaluates differently once every memOffset and "
                   "memStream is rewritten to "
                << rewrite
                << ". One simulated slice no longer stands for every "
                   "slice of its length; revisit the four "
                   "LaunchParams::uniformSlices declarations in "
                   "kern/stream.cc, kern/gather_scatter.cc and "
                   "kern/embedding.cc (runBatched, runPerTable).";
        }
    }
}

} // namespace
} // namespace vespera::analysis
