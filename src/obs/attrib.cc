#include "obs/attrib.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "obs/counters.h"
#include "obs/profiler.h"

namespace vespera::obs {

const char *attribCatName(AttribCat cat)
{
    switch (cat) {
    case AttribCat::Compute:
        return "compute";
    case AttribCat::MemoryBw:
        return "memory_bw";
    case AttribCat::ExposedLat:
        return "exposed_latency";
    case AttribCat::Reconfig:
        return "reconfig";
    case AttribCat::Idle:
        return "idle";
    }
    return "unknown";
}

double AttribBreakdown::sum() const
{
    // Fixed left-to-right order: the bits of the total must not depend
    // on which components happen to be nonzero.
    double s = 0;
    for (double v : seconds)
        s += v;
    return s;
}

void AttribBreakdown::settle(AttribCat residual, Seconds total)
{
    double &r = (*this)[residual];
    r = 0;
    r = std::max(0.0, total - sum());
    // Fold the fp residue into the largest component, then refine by
    // single ulps until the fixed-order sum reproduces `total`
    // bitwise. The coarse fold alone can oscillate around `total` when
    // the largest component sits early in the sum chain; an ulp step
    // on the largest addend moves the rounded sum by at most one ulp,
    // so the refinement cannot skip past the target.
    for (int pass = 0; pass < 64; ++pass) {
        const double d = total - sum();
        if (d == 0.0)
            return;
        auto it = std::max_element(seconds.begin(), seconds.end());
        const double folded = std::max(0.0, *it + d);
        if (pass == 0 && folded != *it) {
            *it = folded;
            continue;
        }
        const double next = std::nextafter(
            *it, d > 0 ? std::numeric_limits<double>::infinity() : 0.0);
        if (next == *it || next < 0)
            break;
        *it = next;
    }
    vassert(std::abs(total - sum()) <=
                1e-9 * std::max(std::abs(total), 1e-30),
            "attribution breakdown cannot reach op total");
}

AttributionLedger &AttributionLedger::instance()
{
    static AttributionLedger ledger;
    return ledger;
}

int AttributionLedger::scope(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < scopes_.size(); ++i)
        if (scopes_[i].name == name)
            return static_cast<int>(i);
    Scope s;
    s.name = name;
    s.lane = kFirstLane + static_cast<int>(scopes_.size());
    auto &reg = CounterRegistry::instance();
    for (int c = 0; c < kAttribCats; ++c)
        s.cats[static_cast<std::size_t>(c)] = &reg.counter(
            "attrib." + name + "." +
            attribCatName(static_cast<AttribCat>(c)));
    s.ops = &reg.counter("attrib." + name + ".ops");
    scopes_.push_back(std::move(s));
    return static_cast<int>(scopes_.size()) - 1;
}

void AttributionLedger::charge(int scopeId, std::string opName,
                               const AttribBreakdown &b, std::uint64_t n)
{
    Profiler &profiler = Profiler::instance();
    // Copy the counter pointers out under the lock: scopes_ may
    // reallocate on concurrent scope() registration, but the Counters
    // themselves are registry-owned and never move.
    std::array<Counter *, kAttribCats> cats{};
    Counter *ops = nullptr;
    {
        std::lock_guard<std::mutex> lock(mu_);
        vassert(scopeId >= 0 &&
                    scopeId < static_cast<int>(scopes_.size()),
                "unregistered attribution scope");
        Scope &s = scopes_[static_cast<std::size_t>(scopeId)];
        cats = s.cats;
        ops = s.ops;
        // The per-op span advances the scope's lane cursor in charge
        // order. That order is the serial one at one thread; the trace
        // file is outside the determinism contract, so parallel
        // workers simply take their turn under the lock.
        for (std::uint64_t i = 0; profiler.enabled() && i < n; ++i) {
            AttributedSpan rec;
            rec.scope = scopeId;
            rec.name = opName;
            rec.start = s.cursor;
            rec.duration = b.sum();
            rec.breakdown = b;
            s.cursor += rec.duration;

            SpanEvent e;
            e.name = opName;
            e.category = "attrib." + s.name;
            e.group = TrackGroup::Device;
            e.track = s.lane;
            e.start = rec.start;
            e.duration = rec.duration;
            records_.push_back(std::move(rec));
            profiler.nameTrack(TrackGroup::Device, s.lane,
                               s.name + " attrib");
            profiler.recordSpan(std::move(e));
        }
    }
    // Aggregates ride the normal capture-aware counter path.
    const double times = static_cast<double>(n);
    for (int c = 0; c < kAttribCats; ++c) {
        const double v = b.seconds[static_cast<std::size_t>(c)];
        if (v != 0.0)
            cats[static_cast<std::size_t>(c)]->add(v * times, n);
    }
    ops->add(times, n);
}

std::vector<AttributedSpan> AttributionLedger::records() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
}

std::vector<std::string> AttributionLedger::scopeNames() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(scopes_.size());
    for (const Scope &s : scopes_)
        out.push_back(s.name);
    return out;
}

void AttributionLedger::clearRecords()
{
    std::lock_guard<std::mutex> lock(mu_);
    records_.clear();
    for (Scope &s : scopes_)
        s.cursor = 0;
}

} // namespace vespera::obs
