#include "tpc/program.h"

#include "common/logging.h"
#include "tpc/pipeline.h"

namespace vespera::tpc {

void
Program::issueToSink(const Instr &instr)
{
    sink_.evaluator->issue(instr);
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
