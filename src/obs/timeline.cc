#include "obs/timeline.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/profiler.h"

namespace vespera::obs {

// ---------------------------------------------------------------------------
// TimelineSeries

TimelineSeries::TimelineSeries(std::string name, std::size_t capacity)
    : name_(std::move(name)), capacity_(capacity)
{
    vassert(capacity_ >= 1, "timeline series '%s': capacity must be >= 1",
            name_.c_str());
    ring_.reserve(std::min<std::size_t>(capacity_, 64));
}

void TimelineSeries::append(Seconds t, double value)
{
    if (ring_.size() < capacity_) {
        ring_.push_back({t, value});
    } else {
        ring_[next_] = {t, value};
        next_ = (next_ + 1) % capacity_;
    }
    total_ += 1;
}

std::vector<TimelineSample> TimelineSeries::samples() const
{
    if (ring_.size() < capacity_)
        return ring_;
    // Full ring: next_ points at the oldest retained sample.
    std::vector<TimelineSample> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(next_ + i) % capacity_]);
    return out;
}

// ---------------------------------------------------------------------------
// TimelineRecorder

TimelineRecorder::TimelineRecorder(Seconds interval, std::size_t capacity,
                                   std::vector<SloSpec> slos)
    : interval_(interval), capacity_(capacity), slos_(std::move(slos))
{
    vassert(interval_ > 0, "timeline interval must be > 0 (got %g)",
            interval_);
    vassert(capacity_ >= 1, "timeline capacity must be >= 1");
}

int TimelineRecorder::gaugeId(const std::string &name)
{
    auto it = ids_.find(name);
    if (it != ids_.end())
        return it->second;
    const int id = static_cast<int>(gauges_.size());
    Gauge g{name, 0.0, Reset::Keep, TimelineSeries(name, capacity_),
            nullptr, SloResult{}};
    // Bind at most one SLO monitor per gauge (first spec wins).
    for (const SloSpec &s : slos_) {
        if (s.gauge == name) {
            g.slo = &s;
            g.result.gauge = name;
            g.result.bound = s.bound;
            break;
        }
    }
    gauges_.push_back(std::move(g));
    ids_.emplace(name, id);
    return id;
}

void TimelineRecorder::set(int id, double v)
{
    Gauge &g = gauges_[static_cast<std::size_t>(id)];
    g.value = v;
    g.reset = Reset::Keep;
}

void TimelineRecorder::add(int id, double delta)
{
    Gauge &g = gauges_[static_cast<std::size_t>(id)];
    g.value += delta;
    g.reset = Reset::Zero;
}

void TimelineRecorder::max(int id, double v)
{
    Gauge &g = gauges_[static_cast<std::size_t>(id)];
    g.value = std::max(g.value, v);
    g.reset = Reset::Zero;
}

void TimelineRecorder::emitAll(Seconds t)
{
    for (Gauge &g : gauges_) {
        g.series.append(t, g.value);
        if (g.slo && !g.result.violated && g.value > g.slo->bound) {
            g.result.violated = true;
            g.result.firstViolationT = t;
            g.result.firstViolationValue = g.value;
        }
        if (g.reset == Reset::Zero)
            g.value = 0;
    }
}

void TimelineRecorder::closeWindow()
{
    emitAll(windowEnd());
    window_start_ += interval_;
}

void TimelineRecorder::closeFinal(Seconds t)
{
    vassert(t >= window_start_ && t <= windowEnd(),
            "timeline closeFinal(%g) outside window [%g, %g)", t,
            window_start_, windowEnd());
    if (t <= window_start_)
        return; // run ended exactly on a boundary; nothing to emit
    emitAll(t);
    window_start_ = t;
}

TimelineRunData TimelineRecorder::snapshot() const
{
    TimelineRunData data;
    data.interval = interval_;
    data.series.reserve(gauges_.size());
    for (const Gauge &g : gauges_) {
        data.series.push_back(
            {g.name, g.series.dropped(), g.series.samples()});
        if (g.slo)
            data.slos.push_back(g.result);
    }
    return data;
}

// ---------------------------------------------------------------------------
// Timeline

Timeline &Timeline::instance()
{
    static Timeline tl;
    return tl;
}

Seconds Timeline::interval() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return interval_;
}

void Timeline::setInterval(Seconds s)
{
    vassert(s > 0, "timeline interval must be > 0 (got %g)", s);
    std::lock_guard<std::mutex> lock(mu_);
    interval_ = s;
}

std::size_t Timeline::capacity() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return capacity_;
}

void Timeline::setCapacity(std::size_t n)
{
    vassert(n >= 1, "timeline capacity must be >= 1");
    std::lock_guard<std::mutex> lock(mu_);
    capacity_ = n;
}

void Timeline::addSlo(SloSpec spec)
{
    std::lock_guard<std::mutex> lock(mu_);
    slos_.push_back(std::move(spec));
}

void Timeline::clearSlos()
{
    std::lock_guard<std::mutex> lock(mu_);
    slos_.clear();
}

std::vector<SloSpec> Timeline::slos() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return slos_;
}

void Timeline::publishRun(const std::string &label,
                          const TimelineRunData &data)
{
    std::lock_guard<std::mutex> lock(mu_);
    // publishRun runs on the serial path in sweep-index order, so the
    // counter yields the same "runN" sequence at any thread count.
    const std::string run =
        label.empty() ? strfmt("run%llu",
                               static_cast<unsigned long long>(run_counter_++))
                      : label;
    Profiler &prof = Profiler::instance();
    for (const TimelineRunData::Series &s : data.series) {
        const std::string name = run + "." + s.gauge;
        auto it = series_.find(name);
        if (it == series_.end()) {
            if (series_.size() >= kMaxSeries) {
                dropped_series_ += 1;
                continue;
            }
            it = series_.emplace(name, TimelineSeries(name, capacity_))
                     .first;
        }
        for (const TimelineSample &smp : s.samples) {
            it->second.append(smp.t, smp.value);
            if (prof.enabled())
                prof.sample("timeline." + name, smp.t, smp.value);
        }
    }
    for (const SloResult &r : data.slos) {
        const std::string name = run + "." + r.gauge;
        auto it = slo_results_.find(name);
        if (it == slo_results_.end()) {
            SloResult qualified = r;
            qualified.gauge = name;
            slo_results_.emplace(name, std::move(qualified));
        } else if (r.violated &&
                   (!it->second.violated ||
                    r.firstViolationT < it->second.firstViolationT)) {
            // Re-published label: keep the earliest violation.
            it->second.violated = true;
            it->second.firstViolationT = r.firstViolationT;
            it->second.firstViolationValue = r.firstViolationValue;
        }
    }
}

std::vector<Timeline::SeriesView> Timeline::series() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SeriesView> out;
    out.reserve(series_.size());
    for (const auto &[name, s] : series_)
        out.push_back({name, s.dropped(), s.samples()});
    return out;
}

std::vector<SloResult> Timeline::sloResults() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SloResult> out;
    out.reserve(slo_results_.size());
    for (const auto &[name, r] : slo_results_)
        out.push_back(r);
    return out;
}

bool Timeline::hasData() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return !series_.empty() || !slo_results_.empty();
}

std::uint64_t Timeline::droppedSeries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_series_;
}

void Timeline::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    series_.clear();
    slo_results_.clear();
    run_counter_ = 0;
    dropped_series_ = 0;
}

} // namespace vespera::obs
