#include "obs/counters.h"

#include <algorithm>

#include "obs/capture.h"

namespace vespera::obs {

namespace {

/** Portable atomic double accumulate (CAS loop; relaxed is enough —
 *  counters are statistics, not synchronization). */
void
atomicAdd(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (!a.compare_exchange_weak(cur, cur + v,
                                    std::memory_order_relaxed)) {
    }
}

void
atomicMax(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (cur < v &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

} // namespace

void
Counter::add(double v, std::uint64_t updates)
{
    if (updates == 0)
        return;
    if (SideEffectLog *log = ScopedCapture::current()) {
        log->append({SideEffectOp::Kind::CounterAdd, this, v,
                     static_cast<double>(updates)});
        return;
    }
    atomicAdd(value_, v);
    updates_.fetch_add(updates, std::memory_order_relaxed);
    bumpPeak(value_.load(std::memory_order_relaxed));
}

void
Counter::set(double v, std::uint64_t updates)
{
    if (updates == 0)
        return;
    if (SideEffectLog *log = ScopedCapture::current()) {
        log->append({SideEffectOp::Kind::CounterSet, this, v,
                     static_cast<double>(updates)});
        return;
    }
    value_.store(v, std::memory_order_relaxed);
    updates_.fetch_add(updates, std::memory_order_relaxed);
    bumpPeak(v);
}

void
Counter::bumpPeak(double candidate)
{
    atomicMax(peak_, candidate);
}

void
Counter::reset()
{
    value_.store(0.0, std::memory_order_relaxed);
    peak_.store(0.0, std::memory_order_relaxed);
    updates_.store(0, std::memory_order_relaxed);
}

void
RateMeter::add(double amount, Seconds dt)
{
    if (SideEffectLog *log = ScopedCapture::current()) {
        log->append({SideEffectOp::Kind::RateAdd, this, amount, dt});
        return;
    }
    atomicAdd(total_, amount);
    if (dt > 0)
        atomicAdd(elapsed_, dt);
}

double
RateMeter::rate() const
{
    const double t = elapsed();
    return t > 0 ? total() / t : 0.0;
}

void
RateMeter::reset()
{
    total_.store(0.0, std::memory_order_relaxed);
    elapsed_.store(0.0, std::memory_order_relaxed);
}

CounterRegistry &
CounterRegistry::instance()
{
    static CounterRegistry registry;
    return registry;
}

Counter &
CounterRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        it = counters_.emplace(name, std::make_unique<Counter>(name))
                 .first;
    }
    return *it->second;
}

RateMeter &
CounterRegistry::rate(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = rates_.find(name);
    if (it == rates_.end()) {
        it = rates_.emplace(name, std::make_unique<RateMeter>(name))
                 .first;
    }
    return *it->second;
}

Histogram &
CounterRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_
                 .emplace(name, std::make_unique<Histogram>(name))
                 .first;
    }
    return *it->second;
}

const Counter *
CounterRegistry::find(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : it->second.get();
}

const RateMeter *
CounterRegistry::findRate(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = rates_.find(name);
    return it == rates_.end() ? nullptr : it->second.get();
}

const Histogram *
CounterRegistry::findHistogram(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : it->second.get();
}

double
CounterRegistry::rollup(const std::string &prefix) const
{
    std::lock_guard<std::mutex> lock(mu_);
    double sum = 0;
    const std::string subtree = prefix + ".";
    for (const auto &[name, c] : counters_) {
        if (name == prefix ||
            name.compare(0, subtree.size(), subtree) == 0) {
            sum += c->value();
        }
    }
    return sum;
}

std::vector<CounterSnapshot>
CounterRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<CounterSnapshot> out;
    out.reserve(counters_.size());
    for (const auto &[name, c] : counters_) {
        out.push_back({name, c->value(), c->peak(), c->updates()});
    }
    return out;
}

std::vector<const RateMeter *>
CounterRegistry::rates() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<const RateMeter *> out;
    out.reserve(rates_.size());
    for (const auto &[name, r] : rates_)
        out.push_back(r.get());
    return out;
}

std::vector<const Histogram *>
CounterRegistry::histograms() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<const Histogram *> out;
    out.reserve(histograms_.size());
    for (const auto &[name, h] : histograms_)
        out.push_back(h.get());
    return out;
}

void
CounterRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, r] : rates_)
        r->reset();
    for (auto &[name, h] : histograms_)
        h->reset();
}

std::size_t
CounterRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counters_.size();
}

} // namespace vespera::obs
