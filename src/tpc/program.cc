#include "tpc/program.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "tpc/pipeline.h"

namespace vespera::tpc {

void
Program::issueToSink(const Instr &instr)
{
    sink_.evaluator->issue(instr);
}

bool
Program::canAdvance() const
{
    return sink_.evaluator != nullptr && !keepTrace_ &&
           sink_.evaluator->canAdvance();
}

void
Program::watch(LoopWatch *watch)
{
    vassert(watch == nullptr || canAdvance(),
            "kernel '%s': a loop watch on a program that cannot advance",
            kernelName_.c_str());
    sink_.watch = watch;
}

void
Program::watchInstr(const Instr &instr)
{
    LoopWatch &w = *sink_.watch;
    // Value ids as the trip sees them: this trip's relative to its
    // first, earlier ones absolute (their ready times cannot move).
    auto id = [&](std::int32_t v) -> std::uint64_t {
        if (v < 0)
            return 0;
        if (v >= w.tripFirstValue)
            return static_cast<std::uint64_t>(v - w.tripFirstValue) << 2 |
                   1;
        if (v >= w.loopFirstValue)
            w.crossTrip = true;
        else
            w.invariantReady =
                std::max(w.invariantReady, sink_.evaluator->readyTime(v));
        return static_cast<std::uint64_t>(v) << 2 | 2;
    };
    std::uint32_t flops_bits = 0;
    std::memcpy(&flops_bits, &instr.flopsPerLane, sizeof(flops_bits));
    const std::uint64_t words[] = {
        static_cast<std::uint64_t>(instr.slot) |
            static_cast<std::uint64_t>(instr.access) << 8 |
            static_cast<std::uint64_t>(flops_bits) << 16,
        id(instr.dst),
        id(instr.src0),
        id(instr.src1),
        id(instr.src2),
        instr.memBytes,
        static_cast<std::uint64_t>(instr.lanes),
        instr.access == Access::Local
            ? static_cast<std::uint64_t>(instr.memOffset)
            : 0,
    };
    for (const std::uint64_t v : words) {
        w.signature ^= v + 0x9e3779b97f4a7c15ull + (w.signature << 6) +
                       (w.signature >> 2);
    }
}

void
Program::advance(const Totals &from, const Totals &to, std::int64_t trips)
{
    vassert(trips >= 0 && numInstrs_ == to.instrs,
            "bad program advance");
    const auto n = static_cast<std::uint64_t>(trips);
    numInstrs_ = to.instrs + n * (to.instrs - from.instrs);
    flops_ = to.flops + static_cast<double>(trips) * (to.flops - from.flops);
    streamBytes_ = to.streamBytes + n * (to.streamBytes - from.streamBytes);
    randomBytes_ = to.randomBytes + n * (to.randomBytes - from.randomBytes);
}

void
Program::traceDropped() const
{
    vpanic("kernel '%s': instrs() on a program that streamed its %zu "
           "instructions into the timing model without keeping the "
           "trace (the TPC dispatcher keeps it only while a trace "
           "observer is installed)",
           kernelName_.c_str(), numInstrs_);
}

std::int16_t
Program::internLabel(std::string_view label)
{
    for (std::size_t i = 0; i < labels_.size(); i++) {
        if (labels_[i] == label)
            return static_cast<std::int16_t>(i);
    }
    vassert(labels_.size() < 0x7fff, "label table overflow");
    labels_.emplace_back(label);
    return static_cast<std::int16_t>(labels_.size() - 1);
}

const std::string &
Program::label(std::int16_t index) const
{
    static const std::string empty;
    if (index < 0 || static_cast<std::size_t>(index) >= labels_.size())
        return empty;
    return labels_[static_cast<std::size_t>(index)];
}

std::uint64_t
Program::randomTransactions(Bytes granule) const
{
    vassert(granule > 0, "zero granule");
    std::uint64_t txns = 0;
    for (const auto &i : instrs()) {
        if ((i.slot == Slot::Load || i.slot == Slot::Store) &&
            i.access == Access::Random) {
            txns += (i.memBytes + granule - 1) / granule;
        }
    }
    return txns;
}

Bytes
Program::busBytes(Bytes granule) const
{
    vassert(granule > 0, "zero granule");
    Bytes total = 0;
    for (const auto &i : instrs()) {
        if (i.slot != Slot::Load && i.slot != Slot::Store)
            continue;
        if (i.access == Access::Local)
            continue;
        total += (i.memBytes + granule - 1) / granule * granule;
    }
    return total;
}

Program::Stats
Program::stats() const
{
    Stats s;
    for (const auto &i : instrs()) {
        switch (i.slot) {
          case Slot::Load:
            s.loads++;
            break;
          case Slot::Store:
            s.stores++;
            break;
          case Slot::Vector:
            s.vectorOps++;
            break;
          case Slot::Scalar:
            s.scalarOps++;
            break;
        }
        if (i.memBytes > 0) {
            switch (i.access) {
              case Access::Stream:
                s.streamAccesses++;
                break;
              case Access::Random:
                s.randomAccesses++;
                break;
              case Access::Local:
                s.localAccesses++;
                break;
            }
        }
    }
    return s;
}

} // namespace vespera::tpc
