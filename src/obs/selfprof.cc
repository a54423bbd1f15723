#include "obs/selfprof.h"

#include "common/logging.h"

namespace vespera::obs {

namespace {

/// Innermost active SelfTimer on this thread (self-time stack).
thread_local SelfTimer *tlsTop = nullptr;

std::uint64_t
elapsedNs(std::chrono::steady_clock::time_point from,
          std::chrono::steady_clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
}

} // namespace

const char *
selfCatName(SelfCat cat)
{
    switch (cat) {
    case SelfCat::KernelEval:
        return "kernel_eval";
    case SelfCat::TraceRecord:
        return "trace_record";
    case SelfCat::GraphBuild:
        return "graph_build";
    case SelfCat::EngineStep:
        return "engine_step";
    case SelfCat::Alloc:
        return "alloc";
    case SelfCat::TelemetryExport:
        return "telemetry_export";
    case SelfCat::Other:
        return "other";
    }
    return "unknown";
}

std::uint64_t
SelfLedger::totalNs() const
{
    // Fixed left-to-right order for symmetry with AttribBreakdown::sum;
    // with integers any order gives the same bits, which is the point.
    std::uint64_t total = 0;
    for (std::uint64_t v : ns)
        total += v;
    return total;
}

void
SelfLedger::merge(const SelfLedger &other)
{
    for (int c = 0; c < kSelfCats; ++c) {
        const auto i = static_cast<std::size_t>(c);
        ns[i] += other.ns[i];
        calls[i] += other.calls[i];
        allocBytes[i] += other.allocBytes[i];
        allocCount[i] += other.allocCount[i];
    }
}

void
SelfLedger::settle(std::uint64_t windowNs)
{
    const std::uint64_t categorized = totalNs();
    if (windowNs > categorized)
        ns[static_cast<std::size_t>(SelfCat::Other)] +=
            windowNs - categorized;
}

void
SelfProf::setEnabled(bool on)
{
    const bool was = enabled_.exchange(on);
    if (on && !was) {
        std::lock_guard<std::mutex> lock(mu_);
        windowStart_ = std::chrono::steady_clock::now();
    }
}

void
SelfProf::charge(SelfCat cat, std::uint64_t ns)
{
    // Integer sums commute, so a worker-thread charge can land at once:
    // the totals come out the same in any interleaving.
    std::lock_guard<std::mutex> lock(mu_);
    ledger_.ns[static_cast<std::size_t>(cat)] += ns;
    ledger_.calls[static_cast<std::size_t>(cat)] += 1;
}

void
SelfProf::recordAlloc(std::uint64_t bytes)
{
    recordAlloc(currentCat(), bytes);
}

void
SelfProf::recordAlloc(SelfCat cat, std::uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mu_);
    ledger_.allocBytes[static_cast<std::size_t>(cat)] += bytes;
    ledger_.allocCount[static_cast<std::size_t>(cat)] += 1;
}

void
SelfProf::cacheHit(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    cacheHits_++;
    cacheKeys_.insert(key);
}

void
SelfProf::cacheMiss(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    cacheMisses_++;
    cacheKeys_.insert(key);
}

SelfSnapshot
SelfProf::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    SelfSnapshot snap;
    snap.ledger = ledger_;
    snap.windowNs =
        windowStart_.time_since_epoch().count() == 0
            ? 0
            : elapsedNs(windowStart_, std::chrono::steady_clock::now());
    snap.cacheHits = cacheHits_;
    snap.cacheMisses = cacheMisses_;
    snap.cacheKeyCount = cacheKeys_.size();
    return snap;
}

SelfSnapshot
SelfProf::settle()
{
    SelfSnapshot snap = snapshot();
    snap.ledger.settle(snap.windowNs);
    // THE invariant (ctest-enforced, acceptance criterion): the
    // settled categories reproduce the total bitwise. Integer sums
    // make this unconditional; the assert documents it at runtime.
    vassert(snap.ledger.totalNs() >= snap.windowNs,
            "selfprof settle lost wall time");
    return snap;
}

void
SelfProf::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    ledger_ = SelfLedger{};
    cacheHits_ = 0;
    cacheMisses_ = 0;
    cacheKeys_.clear();
    windowStart_ = std::chrono::steady_clock::now();
}

SelfCat
SelfProf::currentCat()
{
    return tlsTop ? tlsTop->cat_ : SelfCat::Alloc;
}

SelfTimer::SelfTimer(SelfCat cat) : cat_(cat)
{
    if (!SelfProf::instance().enabled())
        return; // Disabled cost: the one relaxed load above.
    active_ = true;
    parent_ = tlsTop;
    tlsTop = this;
    begin_ = std::chrono::steady_clock::now();
}

SelfTimer::~SelfTimer()
{
    if (!active_)
        return;
    const std::uint64_t elapsed =
        elapsedNs(begin_, std::chrono::steady_clock::now());
    tlsTop = parent_;
    if (parent_)
        parent_->childNs_ += elapsed;
    // Self time only: children already charged their share. Clamp
    // guards clock coarseness (a child can observe more time than the
    // parent when both round to the same tick).
    SelfProf::instance().charge(
        cat_, elapsed > childNs_ ? elapsed - childNs_ : 0);
}

} // namespace vespera::obs
