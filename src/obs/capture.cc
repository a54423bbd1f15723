#include "obs/capture.h"

#include "obs/counters.h"

namespace vespera::obs {

namespace {
thread_local SideEffectLog *t_capture = nullptr;
} // namespace

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
    for (SideEffectOp &op : ops) {
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
          case SideEffectOp::Kind::Deferred:
            // Keep propagating outward: the closure may read or write
            // state shared across tasks, so it must only run at the
            // outermost join, where replay is serial and index-ordered.
            if (SideEffectLog *outer = ScopedCapture::current())
                outer->append(std::move(op));
            else
                op.fn();
            break;
        }
    }
}

} // namespace vespera::obs
