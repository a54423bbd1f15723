#include "obs/export.h"

#include <algorithm>
#include <cstdint>

#include "common/json.h"
#include "common/logging.h"
#include "common/table.h"
#include "obs/timeline.h"

namespace vespera::obs {

namespace {

/** JSON string-escape for event names (quotes/backslashes/control). */
std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strfmt("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

const char *
groupName(TrackGroup g)
{
    return g == TrackGroup::Device ? "Device (simulated time)"
                                   : "Host (simulator wall time)";
}

} // namespace

std::string
chromeTraceJson(const Profiler &profiler)
{
    const auto spans = profiler.spans();
    const auto samples = profiler.samples();
    const auto names = profiler.trackNames();

    std::vector<std::string> events;
    events.reserve(spans.size() + samples.size() + names.size() + 2);

    // Process-name metadata for each track group in use.
    bool groupUsed[2] = {false, false};
    for (const SpanEvent &s : spans)
        groupUsed[s.group == TrackGroup::Host] = true;
    for (const TrackSample &c : samples)
        groupUsed[c.group == TrackGroup::Host] = true;
    for (int g = 0; g < 2; g++) {
        if (!groupUsed[g])
            continue;
        const TrackGroup group =
            g == 0 ? TrackGroup::Device : TrackGroup::Host;
        events.push_back(strfmt(
            "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, "
            "\"args\": {\"name\": \"%s\"}}",
            static_cast<int>(group), groupName(group)));
    }
    for (const auto &[key, label] : names) {
        events.push_back(strfmt(
            "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %d, "
            "\"tid\": %d, \"args\": {\"name\": \"%s\"}}",
            key.first, key.second, escape(label).c_str()));
    }

    for (const SpanEvent &s : spans) {
        events.push_back(strfmt(
            "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
            "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %d, \"tid\": %d}",
            escape(s.name).c_str(), escape(s.category).c_str(),
            s.start * 1e6, s.duration * 1e6,
            static_cast<int>(s.group), s.track));
    }

    // Counter tracks: one "C" event per sample; Perfetto groups them
    // by name into per-counter tracks under the sample's track group
    // (Device for simulated-time counters, Host for selfprof tracks).
    for (const TrackSample &c : samples) {
        events.push_back(strfmt(
            "{\"name\": \"%s\", \"ph\": \"C\", \"ts\": %.3f, "
            "\"pid\": %d, \"args\": {\"value\": %.6g}}",
            escape(c.track).c_str(), c.t * 1e6,
            static_cast<int>(c.group), c.value));
    }

    // Flow arrows: spans sharing a nonzero flowId form one flow. The
    // chrome format wants a flow-start ("s") anchored to the first
    // slice, steps ("t") on the middle ones, and a binding-enclosing
    // finish ("f", bp=e) on the last; the viewer matches them by id
    // and draws arrows between the anchoring slices.
    std::map<std::uint64_t, std::vector<std::size_t>> flows;
    for (std::size_t i = 0; i < spans.size(); i++) {
        if (spans[i].flowId != 0)
            flows[spans[i].flowId].push_back(i);
    }
    for (auto &[id, idx] : flows) {
        if (idx.size() < 2)
            continue; // A single span has nothing to link to.
        std::stable_sort(idx.begin(), idx.end(),
                         [&spans](std::size_t a, std::size_t b) {
                             return spans[a].start < spans[b].start;
                         });
        for (std::size_t k = 0; k < idx.size(); k++) {
            const SpanEvent &s = spans[idx[k]];
            const char *ph = k == 0 ? "s"
                             : k + 1 == idx.size() ? "f"
                                                   : "t";
            const char *bind =
                k + 1 == idx.size() ? ", \"bp\": \"e\"" : "";
            events.push_back(strfmt(
                "{\"name\": \"flow\", \"cat\": \"flow\", "
                "\"ph\": \"%s\", \"id\": %llu, \"ts\": %.3f, "
                "\"pid\": %d, \"tid\": %d%s}",
                ph, static_cast<unsigned long long>(id), s.start * 1e6,
                static_cast<int>(s.group), s.track, bind));
        }
    }

    std::string out = "{\n  \"traceEvents\": [\n";
    for (std::size_t i = 0; i < events.size(); i++) {
        out += "    " + events[i];
        out += i + 1 == events.size() ? "\n" : ",\n";
    }
    out += "  ],\n  \"displayTimeUnit\": \"ms\"\n}\n";
    return out;
}

std::string
metricsJson(const CounterRegistry &registry, const MetricsMeta &meta)
{
    std::map<std::string, json::Value> root;
    root["schema"] = json::Value::makeString(metricsSchema);
    if (!meta.tool.empty())
        root["tool"] = json::Value::makeString(meta.tool);

    std::map<std::string, json::Value> counters;
    // scope -> (category -> seconds), parsed from `attrib.*` names.
    std::map<std::string, std::map<std::string, json::Value>> attrib;
    for (const CounterSnapshot &c : registry.snapshot()) {
        // `runtime.*` counters describe the simulator's own host-side
        // execution (task counts, steals, worker busy time) and vary
        // with --threads and scheduling. The metrics document records
        // what the *simulated device* did, and its determinism contract
        // (docs/runtime.md) is byte-identity at any thread count, so
        // host telemetry stays out; it still appears in the end-of-run
        // counter summary and the Perfetto trace.
        if (c.name.rfind("runtime.", 0) == 0)
            continue;
        // Likewise `replay.*`: the replay cache's hit/miss/evict
        // counts depend on thread count (concurrent sweep points race
        // to fill the cache) and on process history, while the cache's
        // *replayed effects* are what keeps the rest of this document
        // bitwise cache-invariant (graph/replay_cache.h).
        if (c.name.rfind("replay.", 0) == 0)
            continue;
        // Attribution counters ("attrib.<scope>.<category>") become
        // the structured v2 section instead of counter entries.
        if (c.name.rfind("attrib.", 0) == 0 &&
            c.name.rfind('.') > 7) {
            const std::size_t dot = c.name.rfind('.');
            const std::string scope =
                c.name.substr(7, dot - 7); // between the dots
            const std::string cat = c.name.substr(dot + 1);
            attrib[scope][cat] = json::Value::makeNumber(c.value);
            continue;
        }
        std::map<std::string, json::Value> entry;
        entry["value"] = json::Value::makeNumber(c.value);
        entry["peak"] = json::Value::makeNumber(c.peak);
        entry["updates"] =
            json::Value::makeNumber(static_cast<double>(c.updates));
        counters[c.name] = json::Value::makeObject(std::move(entry));
    }
    root["counters"] = json::Value::makeObject(std::move(counters));

    if (!attrib.empty()) {
        std::map<std::string, json::Value> scopes;
        for (auto &[scope, cats] : attrib)
            scopes[scope] = json::Value::makeObject(std::move(cats));
        root["attribution"] =
            json::Value::makeObject(std::move(scopes));
    }

    const auto hists = registry.histograms();
    if (!hists.empty()) {
        std::map<std::string, json::Value> section;
        for (const Histogram *h : hists) {
            std::map<std::string, json::Value> entry;
            entry["count"] = json::Value::makeNumber(
                static_cast<double>(h->count()));
            entry["sum"] = json::Value::makeNumber(h->sum());
            entry["min"] = json::Value::makeNumber(h->min());
            entry["max"] = json::Value::makeNumber(h->max());
            entry["mean"] = json::Value::makeNumber(h->mean());
            entry["p50"] = json::Value::makeNumber(h->percentile(50));
            entry["p90"] = json::Value::makeNumber(h->percentile(90));
            entry["p99"] = json::Value::makeNumber(h->percentile(99));
            entry["p999"] =
                json::Value::makeNumber(h->percentile(99.9));
            std::vector<json::Value> buckets;
            for (const Histogram::Bucket &b : h->nonzeroBuckets()) {
                buckets.push_back(json::Value::makeArray(
                    {json::Value::makeNumber(b.lo),
                     json::Value::makeNumber(b.hi),
                     json::Value::makeNumber(
                         static_cast<double>(b.count))}));
            }
            entry["buckets"] =
                json::Value::makeArray(std::move(buckets));
            section[h->name()] =
                json::Value::makeObject(std::move(entry));
        }
        root["histograms"] =
            json::Value::makeObject(std::move(section));
    }

    std::map<std::string, json::Value> rates;
    for (const RateMeter *r : registry.rates()) {
        std::map<std::string, json::Value> entry;
        entry["total"] = json::Value::makeNumber(r->total());
        entry["seconds"] = json::Value::makeNumber(r->elapsed());
        entry["rate"] = json::Value::makeNumber(r->rate());
        rates[r->name()] = json::Value::makeObject(std::move(entry));
    }
    root["rates"] = json::Value::makeObject(std::move(rates));

    if (!meta.benchmarks.empty()) {
        std::map<std::string, json::Value> bm;
        for (const auto &[name, ns] : meta.benchmarks)
            bm[name] = json::Value::makeNumber(ns);
        root["benchmarks"] = json::Value::makeObject(std::move(bm));
    }

    // v2.1 "host" section (--selfprof): the simulator's own settled
    // wall-time attribution, allocation telemetry, and kernel-eval
    // cache counters. Every category is emitted even when zero so the
    // document shape is stable across runs (vespera-stat treats a
    // disappearing metric as a failure).
    if (meta.hostPresent) {
        const SelfLedger &l = meta.host.ledger;
        std::map<std::string, json::Value> host;
        host["total_ns"] = json::Value::makeNumber(
            static_cast<double>(l.totalNs()));
        host["window_ns"] = json::Value::makeNumber(
            static_cast<double>(meta.host.windowNs));
        std::map<std::string, json::Value> time, calls, alloc;
        for (int c = 0; c < kSelfCats; ++c) {
            const auto i = static_cast<std::size_t>(c);
            const char *name =
                selfCatName(static_cast<SelfCat>(c));
            time[name] = json::Value::makeNumber(
                static_cast<double>(l.ns[i]));
            calls[name] = json::Value::makeNumber(
                static_cast<double>(l.calls[i]));
            std::map<std::string, json::Value> a;
            a["bytes"] = json::Value::makeNumber(
                static_cast<double>(l.allocBytes[i]));
            a["count"] = json::Value::makeNumber(
                static_cast<double>(l.allocCount[i]));
            alloc[name] = json::Value::makeObject(std::move(a));
        }
        host["time"] = json::Value::makeObject(std::move(time));
        host["calls"] = json::Value::makeObject(std::move(calls));
        host["alloc"] = json::Value::makeObject(std::move(alloc));
        std::map<std::string, json::Value> cache, ke;
        ke["hits"] = json::Value::makeNumber(
            static_cast<double>(meta.host.cacheHits));
        ke["misses"] = json::Value::makeNumber(
            static_cast<double>(meta.host.cacheMisses));
        ke["key_count"] = json::Value::makeNumber(
            static_cast<double>(meta.host.cacheKeyCount));
        cache["kernel_eval"] = json::Value::makeObject(std::move(ke));
        host["cache"] = json::Value::makeObject(std::move(cache));
        root["host"] = json::Value::makeObject(std::move(host));
    }

    // v2.2 "timeline" section: virtual-time gauge series and SLO
    // monitors (obs/timeline.h), present only when the Timeline is
    // enabled and at least one producer published. Unlike "host" this
    // section is deterministic — samples are keyed by simulated time —
    // so it is diffable across commits with `vespera-stat timeline`.
    const Timeline &timeline = Timeline::instance();
    if (timeline.enabled() && timeline.hasData()) {
        std::map<std::string, json::Value> section;
        section["interval_seconds"] =
            json::Value::makeNumber(timeline.interval());
        std::map<std::string, json::Value> series;
        for (const Timeline::SeriesView &s : timeline.series()) {
            std::map<std::string, json::Value> entry;
            entry["dropped"] = json::Value::makeNumber(
                static_cast<double>(s.dropped));
            std::vector<json::Value> samples;
            samples.reserve(s.samples.size());
            for (const TimelineSample &smp : s.samples) {
                samples.push_back(json::Value::makeArray(
                    {json::Value::makeNumber(smp.t),
                     json::Value::makeNumber(smp.value)}));
            }
            entry["samples"] =
                json::Value::makeArray(std::move(samples));
            series[s.name] = json::Value::makeObject(std::move(entry));
        }
        section["series"] = json::Value::makeObject(std::move(series));
        const auto slo_results = timeline.sloResults();
        if (!slo_results.empty()) {
            std::map<std::string, json::Value> slo;
            for (const SloResult &r : slo_results) {
                std::map<std::string, json::Value> entry;
                entry["bound"] = json::Value::makeNumber(r.bound);
                entry["violated"] = json::Value::makeBool(r.violated);
                // -1 keeps the shape stable when never violated.
                entry["first_violation_seconds"] =
                    json::Value::makeNumber(
                        r.violated ? r.firstViolationT : -1.0);
                entry["first_violation_value"] =
                    json::Value::makeNumber(
                        r.violated ? r.firstViolationValue : -1.0);
                slo[r.gauge] = json::Value::makeObject(std::move(entry));
            }
            section["slo"] = json::Value::makeObject(std::move(slo));
        }
        root["timeline"] = json::Value::makeObject(std::move(section));
    }

    return json::serialize(json::Value::makeObject(std::move(root))) +
           "\n";
}

void
printCounterSummary(const CounterRegistry &registry, std::FILE *out)
{
    const auto counters = registry.snapshot();
    const auto rates = registry.rates();
    const auto hists = registry.histograms();

    bool anyHist = false;
    for (const Histogram *h : hists)
        anyHist = anyHist || h->count() > 0;

    bool any = anyHist || !rates.empty();
    for (const CounterSnapshot &c : counters)
        any = any || c.updates > 0;
    if (!any)
        return;

    printHeading("Device counters", out);
    Table t({"Counter", "Value", "Peak", "Updates"});
    for (const CounterSnapshot &c : counters) {
        if (c.updates == 0)
            continue;
        t.addRow({c.name, Table::num(c.value, 3), Table::num(c.peak, 3),
                  Table::integer(static_cast<long long>(c.updates))});
    }
    if (t.rowCount() > 0)
        t.print(out);

    if (!rates.empty()) {
        Table rt({"Rate meter", "Total", "Seconds", "Rate/s"});
        for (const RateMeter *r : rates) {
            rt.addRow({r->name(), Table::num(r->total(), 3),
                       Table::num(r->elapsed(), 6),
                       Table::num(r->rate(), 3)});
        }
        rt.print(out);
    }

    if (anyHist) {
        Table ht({"Histogram", "Count", "Mean", "p50", "p99", "Max"});
        for (const Histogram *h : hists) {
            if (h->count() == 0)
                continue;
            ht.addRow({h->name(),
                       Table::integer(
                           static_cast<long long>(h->count())),
                       Table::num(h->mean(), 6),
                       Table::num(h->percentile(50), 6),
                       Table::num(h->percentile(99), 6),
                       Table::num(h->max(), 6)});
        }
        ht.print(out);
    }
}

void
printHostSelfProfile(const SelfSnapshot &snap, std::FILE *out)
{
    const SelfLedger &l = snap.ledger;
    const std::uint64_t total = l.totalNs();
    if (total == 0)
        return;

    printHeading("Host self-profile (wall time)", out);
    Table t({"Category", "Self ms", "Share", "Scopes", "Alloc bytes",
             "Allocs"});
    for (int c = 0; c < kSelfCats; ++c) {
        const auto i = static_cast<std::size_t>(c);
        if (l.ns[i] == 0 && l.calls[i] == 0 && l.allocBytes[i] == 0 &&
            l.allocCount[i] == 0)
            continue;
        t.addRow({selfCatName(static_cast<SelfCat>(c)),
                  Table::num(static_cast<double>(l.ns[i]) * 1e-6, 3),
                  strfmt("%5.1f%%", 100.0 *
                                        static_cast<double>(l.ns[i]) /
                                        static_cast<double>(total)),
                  Table::integer(static_cast<long long>(l.calls[i])),
                  Table::integer(
                      static_cast<long long>(l.allocBytes[i])),
                  Table::integer(
                      static_cast<long long>(l.allocCount[i]))});
    }
    t.addRow({"total",
              Table::num(static_cast<double>(total) * 1e-6, 3),
              "100.0%", "", "", ""});
    t.print(out);

    if (snap.cacheHits + snap.cacheMisses > 0) {
        std::fprintf(
            out,
            "kernel-eval cache: %llu hits / %llu misses (%llu keys)\n",
            static_cast<unsigned long long>(snap.cacheHits),
            static_cast<unsigned long long>(snap.cacheMisses),
            static_cast<unsigned long long>(snap.cacheKeyCount));
    }
}

void
publishHostSelfProfile(const SelfSnapshot &snap, Profiler &profiler)
{
    if (!profiler.enabled())
        return;
    const SelfLedger &l = snap.ledger;
    const Seconds window =
        static_cast<double>(snap.windowNs) * 1e-9;
    for (int c = 0; c < kSelfCats; ++c) {
        const auto i = static_cast<std::size_t>(c);
        if (l.ns[i] == 0)
            continue;
        const std::string track =
            std::string("selfprof.") +
            selfCatName(static_cast<SelfCat>(c)) + ".ms";
        // Two samples per track — zero at the window start and the
        // cumulative self time at its end — so the counter renders as
        // a ramp spanning the run next to the Host span lanes.
        profiler.sample(TrackGroup::Host, track, 0.0, 0.0);
        profiler.sample(TrackGroup::Host, track, window,
                        static_cast<double>(l.ns[i]) * 1e-6);
    }
}

} // namespace vespera::obs
