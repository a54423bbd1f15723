#include "spans.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "common/io.h"
#include "common/json.h"

namespace perfbench {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
SpanRecorder::open(std::string name, std::string detail)
{
    SpanRecord s;
    s.name = std::move(name);
    s.detail = std::move(detail);
    s.job = job_;
    s.parent = current();
    s.start = nowSeconds();
    spans_.push_back(std::move(s));
    const auto id = static_cast<std::int64_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
}

void
SpanRecorder::close(std::int64_t id)
{
    if (stack_.empty() || stack_.back() != id)
        throw std::logic_error("span closed out of order");
    spans_[static_cast<std::size_t>(id)].end = nowSeconds();
    stack_.pop_back();
}

std::int64_t
SpanRecorder::add(std::string name, double start, double end,
                  std::int64_t parent)
{
    SpanRecord s;
    s.name = std::move(name);
    s.start = start;
    s.end = std::max(start, end);
    s.job = job_;
    s.parent = parent;
    spans_.push_back(std::move(s));
    return static_cast<std::int64_t>(spans_.size() - 1);
}

std::map<std::string, double>
SpanRecorder::selfTimeByName() const
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const SpanRecord &s : spans_) {
        if (s.parent >= 0 && s.end >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.start, s.end);
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const SpanRecord &s = spans_[i];
        if (s.end < 0)
            continue;
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0;
        double cur_lo = 0, cur_hi = -1;
        for (auto [lo, hi] : kids) {
            lo = std::max(lo, s.start);
            hi = std::min(hi, s.end);
            if (hi <= lo)
                continue;
            if (lo > cur_hi) {
                if (cur_hi > cur_lo)
                    covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (cur_hi > cur_lo)
            covered += cur_hi - cur_lo;
        self[s.name] += std::max(0.0, (s.end - s.start) - covered);
    }
    return self;
}

bool
SpanRecorder::writePerfetto(const std::string &path,
                            const std::string &process_name) const
{
    namespace json = vespera::json;
    auto num = [](double v) { return json::Value::makeNumber(v); };
    auto str = [](std::string v) {
        return json::Value::makeString(std::move(v));
    };
    double t0 = 0;
    for (std::size_t i = 0; i < spans_.size(); i++)
        t0 = i == 0 ? spans_[i].start : std::min(t0, spans_[i].start);

    std::vector<json::Value> events;
    events.push_back(json::Value::makeObject(
        {{"name", str("process_name")},
         {"ph", str("M")},
         {"pid", num(1)},
         {"tid", num(1)},
         {"args", json::Value::makeObject({{"name", str(process_name)}})}}));
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const SpanRecord &s = spans_[i];
        if (s.end < 0)
            continue;
        std::map<std::string, json::Value> args = {
            {"job", num(static_cast<double>(s.job))},
            {"span", num(static_cast<double>(i))},
            {"parent", num(static_cast<double>(s.parent))}};
        if (!s.detail.empty())
            args["config"] = str(s.detail);
        events.push_back(json::Value::makeObject(
            {{"name", str(s.name)},
             {"cat", str(s.name.substr(0, s.name.find('.')))},
             {"ph", str("X")},
             {"pid", num(1)},
             {"tid", num(1)},
             {"ts", num((s.start - t0) * 1e6)},
             {"dur", num((s.end - s.start) * 1e6)},
             {"args", json::Value::makeObject(std::move(args))}}));
    }
    const json::Value doc = json::Value::makeObject(
        {{"displayTimeUnit", str("ms")},
         {"traceEvents", json::Value::makeArray(std::move(events))}});
    return vespera::writeFile(path, json::serialize(doc) + "\n");
}

} // namespace perfbench
