#include "kern/gemm.h"

#include <algorithm>

#include "common/logging.h"
#include "hw/mme.h"
#include "hw/tensor_core.h"
#include "obs/attrib.h"
#include "obs/counters.h"
#include "obs/profiler.h"
#include "obs/selfprof.h"

namespace vespera::kern {

namespace {

/** One engine's counters and attribution scope, resolved once. */
struct EngineStats
{
    obs::Counter &gemms, &flops, &busy;
    obs::Counter *reconfigs; ///< MME only.
    int scope;
};

EngineStats
engineStats(const std::string &ns)
{
    auto &reg = obs::CounterRegistry::instance();
    return {reg.counter(ns + ".gemms"), reg.counter(ns + ".flops"),
            reg.counter(ns + ".busy_seconds"),
            ns == "mme" ? &reg.counter("mme.reconfigs") : nullptr,
            obs::AttributionLedger::instance().scope(ns)};
}

} // namespace

void
chargeGemm(hw::GemmEngine engine, const hw::GemmShape &shape,
           const std::string &geometry, Seconds time, Seconds compute,
           Seconds memory, bool reconfigured, std::uint64_t n)
{
    // Registered on each engine's first charge, so a run publishes
    // only the engines it used.
    const EngineStats *s;
    if (engine == hw::GemmEngine::Mme) {
        static const EngineStats mme = engineStats("mme");
        s = &mme;
    } else {
        static const EngineStats tc = engineStats("tc");
        s = &tc;
    }
    vassert(!reconfigured || s->reconfigs,
            "only the MME reconfigures its array");
    const double times = static_cast<double>(n);
    s->gemms.add(times, n);
    s->flops.add(shape.flops() * times, n);
    s->busy.add(time * times, n);
    if (reconfigured)
        s->reconfigs->add(times, n);

    obs::AttribBreakdown b;
    b[obs::AttribCat::Compute] = compute;
    b[obs::AttribCat::MemoryBw] = std::max(0.0, memory - compute);
    b.settle(reconfigured ? obs::AttribCat::Reconfig
                          : obs::AttribCat::ExposedLat,
             time);
    std::string op;
    if (obs::Profiler::instance().enabled())
        op = strfmt("gemm %lldx%lldx%lld %s",
                    static_cast<long long>(shape.m),
                    static_cast<long long>(shape.k),
                    static_cast<long long>(shape.n), geometry.c_str());
    obs::AttributionLedger::instance().charge(s->scope, std::move(op), b,
                                              n);
}

hw::GemmCost
gemmCost(DeviceKind device, const hw::GemmShape &shape, DataType dt)
{
    obs::SelfTimer self(obs::SelfCat::KernelEval);
    switch (device) {
      case DeviceKind::Gaudi2: {
        static const hw::MmeModel mme;
        return mme.gemm(shape, dt);
      }
      case DeviceKind::A100: {
        static const hw::TensorCoreModel tc;
        return tc.gemm(shape, dt);
      }
    }
    vpanic("unknown device");
}

hw::GemmCost
runGemm(DeviceKind device, const hw::GemmShape &shape, DataType dt)
{
    hw::GemmCost c = gemmCost(device, shape, dt);
    chargeGemm(c.engine, shape, c.geometry, c.time, c.computeTime,
               c.memoryTime, false);
    return c;
}

} // namespace vespera::kern
