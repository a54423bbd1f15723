#include "obs/capture.h"

#include "obs/counters.h"

namespace vespera::obs {

namespace {
thread_local SideEffectLog *t_capture = nullptr;
} // namespace

// A log entry is a counter update, never a closure: anything that is
// not a plain accumulation is returned by value and published after
// the join instead.
static_assert(sizeof(SideEffectOp) <= 32);

ScopedCapture::ScopedCapture(SideEffectLog &log) : prev_(t_capture)
{
    t_capture = &log;
}

ScopedCapture::~ScopedCapture()
{
    t_capture = prev_;
}

SideEffectLog *
ScopedCapture::current()
{
    return t_capture;
}

void
SideEffectLog::replay()
{
    // Move out first: replaying into an enclosing capture must not
    // append to the log being drained.
    std::vector<SideEffectOp> ops = std::move(ops_);
    ops_.clear();
    for (const SideEffectOp &op : ops) {
        switch (op.kind) {
          case SideEffectOp::Kind::CounterAdd:
            static_cast<Counter *>(op.target)->add(
                op.a, static_cast<std::uint64_t>(op.b));
            break;
          case SideEffectOp::Kind::CounterSet:
            static_cast<Counter *>(op.target)->set(
                op.a, static_cast<std::uint64_t>(op.b));
            break;
          case SideEffectOp::Kind::RateAdd:
            static_cast<RateMeter *>(op.target)->add(op.a, op.b);
            break;
        }
    }
}

} // namespace vespera::obs
