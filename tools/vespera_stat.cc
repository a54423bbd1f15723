/**
 * @file
 * vespera-stat: diff two vespera-metrics documents and gate on
 * regression — the comparison engine behind the BENCH trajectory
 * (compare a fresh `--metrics` export against the committed baseline
 * in tools/bench_baseline/ and fail CI on drift).
 *
 *   vespera-stat [options] <baseline.json> <candidate.json>
 *
 *     --threshold=<frac>           global relative-change gate
 *                                  (default 0.10 = 10%)
 *     --threshold=<prefix>=<frac>  override for metrics whose name
 *                                  starts with <prefix> (longest
 *                                  matching prefix wins; repeatable)
 *     --ignore=<prefix>            exclude matching metrics entirely
 *                                  (repeatable)
 *     --json                       machine-readable vespera-stat/v1
 *                                  report on stdout instead of text
 *
 * Also accepts `vespera-lint-tune/v1` documents (vespera-lint tune
 * --json) on both sides, flattened to:
 *   tune.<kernel>.base_cycles     shipped-config exact cycles
 *   tune.<kernel>.best_cycles     best-found exact cycles
 *   tune.<kernel>.improvement     1 - best/base
 *   tune.<kernel>.configs_screened
 *   tune.totals.<field>           kernels/configs_screened/
 *                                 exact_verifications/opportunities
 * so the bench trajectory can gate "the tuner stopped finding the
 * known-better config" the same way it gates counter drift.
 *
 * Likewise `vespera-lint-migrate/v1` documents (vespera-lint migrate
 * --json) flatten to:
 *   migrate.<kernel>.parity            1/0 (a lost parity diffs as an
 *                                      infinite relative change)
 *   migrate.<kernel>.achieved_fraction hand-time / ported-time
 *   migrate.<kernel>.ported_cycles     static predicted issue cycles
 *   migrate.<kernel>.findings          migration-aware finding count
 *   migrate.totals.<field>             kernels / parity_failures
 *
 * Compared metrics, flattened to dotted names:
 *   counters.<name>               counter value
 *   rates.<name>                  rate meter mean rate
 *   attribution.<scope>.<cat>     attribution seconds (v2 section; v1
 *                                 docs' attrib.* counters normalize to
 *                                 the same keys, so v1 vs v2 works)
 *   histograms.<name>.<stat>      count/mean/p50/p90/p99/p999
 * The "host" section is host wall-clock data and is never compared:
 * it varies with the machine, and the simulated counters are the
 * deterministic signal.
 *
 * Any relative change beyond the threshold — in either direction — is
 * a regression: a counter that *dropped* 20% usually means lost
 * coverage, not a win. Metrics present only in the candidate are
 * reported but don't fail; metrics that disappeared do fail.
 *
 * Exit codes: 0 = within thresholds, 1 = regression (each offending
 * metric named on stdout), 2 = usage or document error, including two
 * documents of different schema families.
 *
 * Timeline mode:
 *
 *   vespera-stat timeline [options] <baseline.json> <candidate.json>
 *
 * diffs the v2.2 "timeline" sections (virtual-time gauge series +
 * SLO monitors, obs/timeline.h) window by window instead of comparing
 * end-of-run aggregates. Extra option:
 *
 *     --skip-windows=<n>           ignore the first <n> windows of
 *                                  every series (warm-up transients)
 *
 * Per series, the comparison localizes a regression to the *first*
 * offending window (index, virtual timestamp, both values) — the
 * window where a trajectory diverged is where to start debugging, and
 * later windows usually just inherit the divergence. Window-count
 * drift, removed series, SLO violated-flag changes, and
 * first-violation-timestamp drift beyond the threshold all fail.
 * Thresholds and --ignore match against the series name
 * ("<label>.<gauge>"), so `--threshold=fig12.serve.ttft=0.2` works
 * the way counter prefixes do. Same exit codes.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/json.h"
#include "common/logging.h"

namespace {

using vespera::json::Value;
using vespera::strfmt;

/** Absolute slack below which a change is noise, not signal. */
constexpr double kAbsEps = 1e-12;

struct PrefixThreshold
{
    std::string prefix;
    double frac = 0.10;
};

struct Config
{
    double threshold = 0.10;
    std::vector<PrefixThreshold> overrides;
    std::vector<std::string> ignores;
    bool jsonOut = false;
    std::string baselinePath;
    std::string candidatePath;
};

struct Finding
{
    std::string metric;
    double baseline = 0;
    double candidate = 0;
    double change = 0; ///< Relative change (inf when baseline is 0).
};

double
thresholdFor(const Config &cfg, const std::string &name)
{
    std::size_t best_len = 0;
    double frac = cfg.threshold;
    for (const PrefixThreshold &o : cfg.overrides) {
        if (o.prefix.size() >= best_len &&
            name.compare(0, o.prefix.size(), o.prefix) == 0) {
            best_len = o.prefix.size();
            frac = o.frac;
        }
    }
    return frac;
}

bool
ignored(const Config &cfg, const std::string &name)
{
    for (const std::string &p : cfg.ignores)
        if (name.compare(0, p.size(), p) == 0)
            return true;
    return false;
}

/** Flatten a `vespera-lint-tune/v1` document (autotuner results)
 *  into comparable dotted-name scalars. */
void
flattenTune(const Value &doc, std::map<std::string, double> &out)
{
    if (const Value *kernels = doc.find("kernels");
        kernels && kernels->isArray()) {
        for (const Value &k : kernels->array()) {
            const Value *name = k.find("kernel");
            if (!name || !name->isString())
                continue;
            const std::string prefix = "tune." + name->str() + ".";
            if (const Value *base = k.find("base")) {
                if (const Value *v = base->find("exact_cycles");
                    v && v->isNumber())
                    out[prefix + "base_cycles"] = v->number();
            }
            if (const Value *best = k.find("best")) {
                if (const Value *v = best->find("exact_cycles");
                    v && v->isNumber())
                    out[prefix + "best_cycles"] = v->number();
            }
            if (const Value *v = k.find("improvement_frac");
                v && v->isNumber())
                out[prefix + "improvement"] = v->number();
            if (const Value *v = k.find("configs_screened");
                v && v->isNumber())
                out[prefix + "configs_screened"] = v->number();
        }
    }
    if (const Value *totals = doc.find("totals");
        totals && totals->isObject()) {
        for (const auto &[name, v] : totals->object()) {
            if (v.isNumber())
                out["tune.totals." + name] = v.number();
        }
    }
}

/** Flatten a `vespera-lint-migrate/v1` document (migration
 *  scorecards) into comparable dotted-name scalars. Parity flattens
 *  to 0/1 so a lost parity shows as an infinite relative change. */
void
flattenMigrate(const Value &doc, std::map<std::string, double> &out)
{
    if (const Value *kernels = doc.find("kernels");
        kernels && kernels->isArray()) {
        for (const Value &k : kernels->array()) {
            const Value *name = k.find("kernel");
            if (!name || !name->isString())
                continue;
            const std::string prefix = "migrate." + name->str() + ".";
            if (const Value *v = k.find("parity"); v && v->isBool())
                out[prefix + "parity"] = v->boolean() ? 1.0 : 0.0;
            if (const Value *v = k.find("achieved_fraction");
                v && v->isNumber())
                out[prefix + "achieved_fraction"] = v->number();
            if (const Value *v = k.find("ported_cycles");
                v && v->isNumber())
                out[prefix + "ported_cycles"] = v->number();
            if (const Value *v = k.find("migration_findings");
                v && v->isNumber())
                out[prefix + "findings"] = v->number();
        }
    }
    if (const Value *totals = doc.find("totals");
        totals && totals->isObject()) {
        for (const auto &[name, v] : totals->object()) {
            if (v.isNumber())
                out["migrate.totals." + name] = v.number();
        }
    }
}

/** Flatten one metrics document into comparable dotted-name scalars. */
bool
flatten(const Value &doc, const std::string &path,
        std::map<std::string, double> &out)
{
    const Value *schema = doc.find("schema");
    if (schema && schema->isString() &&
        schema->str() == "vespera-lint-tune/v1") {
        flattenTune(doc, out);
        return true;
    }
    if (schema && schema->isString() &&
        schema->str() == "vespera-lint-migrate/v1") {
        flattenMigrate(doc, out);
        return true;
    }
    if (!schema || !schema->isString() ||
        schema->str().rfind("vespera-metrics/", 0) != 0) {
        std::fprintf(stderr,
                     "vespera-stat: %s is not a vespera-metrics, "
                     "vespera-lint-tune, or vespera-lint-migrate "
                     "document\n",
                     path.c_str());
        return false;
    }

    if (const Value *counters = doc.find("counters");
        counters && counters->isObject()) {
        for (const auto &[name, entry] : counters->object()) {
            const Value *v = entry.find("value");
            if (!v || !v->isNumber())
                continue;
            // v1 docs carry attribution as plain attrib.* counters;
            // normalize them onto the v2 section's key space.
            if (name.rfind("attrib.", 0) == 0 && name.rfind('.') > 7) {
                out["attribution." + name.substr(7)] = v->number();
            } else {
                out["counters." + name] = v->number();
            }
        }
    }
    if (const Value *rates = doc.find("rates");
        rates && rates->isObject()) {
        for (const auto &[name, entry] : rates->object()) {
            if (const Value *v = entry.find("rate");
                v && v->isNumber())
                out["rates." + name] = v->number();
        }
    }
    if (const Value *attrib = doc.find("attribution");
        attrib && attrib->isObject()) {
        for (const auto &[scope, cats] : attrib->object()) {
            if (!cats.isObject())
                continue;
            for (const auto &[cat, v] : cats.object()) {
                if (v.isNumber())
                    out["attribution." + scope + "." + cat] =
                        v.number();
            }
        }
    }
    if (const Value *hists = doc.find("histograms");
        hists && hists->isObject()) {
        static const char *stats[] = {"count", "mean", "p50",
                                      "p90",   "p99",  "p999"};
        for (const auto &[name, entry] : hists->object()) {
            for (const char *stat : stats) {
                if (const Value *v = entry.find(stat);
                    v && v->isNumber())
                    out["histograms." + name + "." + stat] =
                        v->number();
            }
        }
    }
    return true;
}

/**
 * Parse and flatten one document; `schema` receives its schema string
 * so the caller can refuse to compare documents of different families.
 */
bool
loadDoc(const std::string &path, std::map<std::string, double> &out,
        std::string &schema)
{
    std::string text;
    if (!vespera::readFile(path, text)) {
        std::fprintf(stderr, "vespera-stat: cannot read %s\n",
                     path.c_str());
        return false;
    }
    Value doc;
    std::string err;
    if (!vespera::json::parse(text, doc, &err)) {
        std::fprintf(stderr, "vespera-stat: %s: %s\n", path.c_str(),
                     err.c_str());
        return false;
    }
    if (const Value *s = doc.find("schema"); s && s->isString())
        schema = s->str();
    return flatten(doc, path, out);
}

/** "vespera-metrics/v2.1" -> "vespera-metrics". */
std::string
schemaFamily(const std::string &schema)
{
    return schema.substr(0, schema.find('/'));
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: vespera-stat [options] <baseline.json> "
        "<candidate.json>\n"
        "  --threshold=<frac>           relative-change gate "
        "(default 0.10)\n"
        "  --threshold=<prefix>=<frac>  per-prefix override "
        "(repeatable)\n"
        "  --ignore=<prefix>            skip matching metrics "
        "(repeatable)\n"
        "  --json                       vespera-stat/v1 JSON report\n");
    return 2;
}

std::string
jsonFindings(const std::vector<Finding> &findings)
{
    std::vector<Value> arr;
    for (const Finding &f : findings) {
        std::map<std::string, Value> e;
        e["metric"] = Value::makeString(f.metric);
        e["baseline"] = Value::makeNumber(f.baseline);
        e["candidate"] = Value::makeNumber(f.candidate);
        e["change"] = Value::makeNumber(
            std::isinf(f.change) ? 1e308 : f.change);
        arr.push_back(Value::makeObject(std::move(e)));
    }
    return vespera::json::serialize(Value::makeArray(std::move(arr)));
}

// ---------------------------------------------------------------------------
// `vespera-stat timeline`: window-by-window diff of v2.2 sections.

int
usageTimeline()
{
    std::fprintf(
        stderr,
        "usage: vespera-stat timeline [options] <baseline.json> "
        "<candidate.json>\n"
        "  --threshold=<frac>           per-window relative gate "
        "(default 0.10)\n"
        "  --threshold=<prefix>=<frac>  per-series override "
        "(repeatable)\n"
        "  --skip-windows=<n>           ignore the first <n> windows "
        "(warm-up)\n"
        "  --ignore=<prefix>            skip matching series "
        "(repeatable)\n"
        "  --json                       vespera-stat-timeline/v1 JSON "
        "report\n");
    return 2;
}

struct TimelineSeriesData
{
    double dropped = 0;
    std::vector<std::pair<double, double>> samples; ///< (t, value)
};

struct TimelineSlo
{
    double bound = 0;
    bool violated = false;
    double firstT = -1;
};

struct TimelineDoc
{
    double interval = 0;
    std::map<std::string, TimelineSeriesData> series;
    std::map<std::string, TimelineSlo> slos;
};

bool
loadTimeline(const std::string &path, TimelineDoc &out)
{
    std::string text;
    if (!vespera::readFile(path, text)) {
        std::fprintf(stderr, "vespera-stat: cannot read %s\n",
                     path.c_str());
        return false;
    }
    Value doc;
    std::string err;
    if (!vespera::json::parse(text, doc, &err)) {
        std::fprintf(stderr, "vespera-stat: %s: %s\n", path.c_str(),
                     err.c_str());
        return false;
    }
    const Value *schema = doc.find("schema");
    if (!schema || !schema->isString() ||
        schema->str().rfind("vespera-metrics/", 0) != 0) {
        std::fprintf(stderr,
                     "vespera-stat: %s is not a vespera-metrics "
                     "document\n",
                     path.c_str());
        return false;
    }
    const Value *tl = doc.find("timeline");
    if (!tl || !tl->isObject()) {
        std::fprintf(stderr,
                     "vespera-stat: %s has no \"timeline\" section "
                     "(produce one with --timeline-interval)\n",
                     path.c_str());
        return false;
    }
    if (const Value *v = tl->find("interval_seconds");
        v && v->isNumber())
        out.interval = v->number();
    if (const Value *series = tl->find("series");
        series && series->isObject()) {
        for (const auto &[name, entry] : series->object()) {
            TimelineSeriesData s;
            if (const Value *d = entry.find("dropped");
                d && d->isNumber())
                s.dropped = d->number();
            if (const Value *samples = entry.find("samples");
                samples && samples->isArray()) {
                for (const Value &smp : samples->array()) {
                    if (!smp.isArray() || smp.array().size() != 2 ||
                        !smp.array()[0].isNumber() ||
                        !smp.array()[1].isNumber())
                        continue;
                    s.samples.emplace_back(smp.array()[0].number(),
                                           smp.array()[1].number());
                }
            }
            out.series.emplace(name, std::move(s));
        }
    }
    if (const Value *slo = tl->find("slo"); slo && slo->isObject()) {
        for (const auto &[name, entry] : slo->object()) {
            TimelineSlo s;
            if (const Value *v = entry.find("bound");
                v && v->isNumber())
                s.bound = v->number();
            if (const Value *v = entry.find("violated");
                v && v->isBool())
                s.violated = v->boolean();
            if (const Value *v = entry.find("first_violation_seconds");
                v && v->isNumber())
                s.firstT = v->number();
            out.slos.emplace(name, s);
        }
    }
    return true;
}

/** Relative change of cand vs base; inf when base is 0, 0 on noise. */
double
relChange(double base, double cand)
{
    const double diff = std::abs(cand - base);
    if (diff <= kAbsEps)
        return 0.0;
    return base != 0.0 ? diff / std::abs(base)
                       : std::numeric_limits<double>::infinity();
}

int
timelineMain(int argc, char **argv)
{
    Config cfg;
    std::size_t skip = 0;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; i++) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--threshold=", 12) == 0) {
            const std::string rest(arg + 12);
            const std::size_t eq = rest.find('=');
            if (eq == std::string::npos) {
                cfg.threshold = std::atof(rest.c_str());
            } else {
                cfg.overrides.push_back(
                    {rest.substr(0, eq),
                     std::atof(rest.c_str() + eq + 1)});
            }
        } else if (std::strncmp(arg, "--skip-windows=", 15) == 0) {
            skip = static_cast<std::size_t>(std::atoi(arg + 15));
        } else if (std::strncmp(arg, "--ignore=", 9) == 0) {
            cfg.ignores.emplace_back(arg + 9);
        } else if (std::strcmp(arg, "--json") == 0) {
            cfg.jsonOut = true;
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            usageTimeline();
            return 0;
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "vespera-stat: unknown flag %s\n",
                         arg);
            return usageTimeline();
        } else {
            positional.emplace_back(arg);
        }
    }
    if (positional.size() != 2)
        return usageTimeline();
    cfg.baselinePath = positional[0];
    cfg.candidatePath = positional[1];

    TimelineDoc base, cand;
    if (!loadTimeline(cfg.baselinePath, base) ||
        !loadTimeline(cfg.candidatePath, cand))
        return 2;

    std::vector<Finding> regressions;
    std::vector<std::string> added, removed, notes;
    std::size_t compared = 0;

    if (relChange(base.interval, cand.interval) > cfg.threshold) {
        regressions.push_back({"timeline.interval_seconds",
                               base.interval, cand.interval,
                               relChange(base.interval,
                                         cand.interval)});
    }

    for (const auto &[name, bs] : base.series) {
        if (ignored(cfg, name))
            continue;
        const auto it = cand.series.find(name);
        if (it == cand.series.end()) {
            removed.push_back(name);
            continue;
        }
        compared++;
        const TimelineSeriesData &cs = it->second;
        if (bs.samples.size() != cs.samples.size()) {
            regressions.push_back(
                {name + " (window count)",
                 static_cast<double>(bs.samples.size()),
                 static_cast<double>(cs.samples.size()),
                 relChange(static_cast<double>(bs.samples.size()),
                           static_cast<double>(cs.samples.size()))});
        }
        const double thr = thresholdFor(cfg, name);
        const std::size_t n =
            std::min(bs.samples.size(), cs.samples.size());
        // Localize to the FIRST offending window: later windows
        // usually inherit the divergence, so the earliest one is
        // where the trajectories actually split.
        for (std::size_t w = skip; w < n; w++) {
            const auto &[bt, bv] = bs.samples[w];
            const auto &[ct, cv] = cs.samples[w];
            const double t_rel = relChange(bt, ct);
            const double v_rel = relChange(bv, cv);
            if (t_rel > cfg.threshold || v_rel > thr) {
                const bool time_off = t_rel > cfg.threshold;
                regressions.push_back(
                    {strfmt("%s window %zu (t=%.6g)%s", name.c_str(),
                            w, bt, time_off ? " [timestamp]" : ""),
                     time_off ? bt : bv, time_off ? ct : cv,
                     std::max(t_rel, v_rel)});
                break;
            }
        }
    }
    for (const auto &[name, cs] : cand.series) {
        (void)cs;
        if (!ignored(cfg, name) &&
            base.series.find(name) == base.series.end())
            added.push_back(name);
    }

    for (const auto &[name, bslo] : base.slos) {
        if (ignored(cfg, name))
            continue;
        const auto it = cand.slos.find(name);
        if (it == cand.slos.end()) {
            removed.push_back("slo." + name);
            continue;
        }
        compared++;
        const TimelineSlo &cslo = it->second;
        if (bslo.violated != cslo.violated) {
            regressions.push_back(
                {"slo." + name + " (violated flag)",
                 bslo.violated ? 1.0 : 0.0, cslo.violated ? 1.0 : 0.0,
                 std::numeric_limits<double>::infinity()});
        } else if (bslo.violated &&
                   relChange(bslo.firstT, cslo.firstT) >
                       thresholdFor(cfg, "slo." + name)) {
            regressions.push_back(
                {"slo." + name + " (first violation t)", bslo.firstT,
                 cslo.firstT, relChange(bslo.firstT, cslo.firstT)});
        }
    }

    const bool fail = !regressions.empty() || !removed.empty();

    if (cfg.jsonOut) {
        std::string out = "{\n";
        out += "  \"schema\": \"vespera-stat-timeline/v1\",\n";
        out += strfmt("  \"baseline\": \"%s\",\n",
                      cfg.baselinePath.c_str());
        out += strfmt("  \"candidate\": \"%s\",\n",
                      cfg.candidatePath.c_str());
        out += strfmt("  \"threshold\": %g,\n", cfg.threshold);
        out += strfmt("  \"skip_windows\": %zu,\n", skip);
        out += strfmt("  \"compared\": %zu,\n", compared);
        out += "  \"regressions\": " + jsonFindings(regressions) +
               ",\n";
        std::vector<Value> rm, ad;
        for (const std::string &n : removed)
            rm.push_back(Value::makeString(n));
        for (const std::string &n : added)
            ad.push_back(Value::makeString(n));
        out += "  \"removed\": " +
               vespera::json::serialize(
                   Value::makeArray(std::move(rm))) +
               ",\n";
        out += "  \"added\": " +
               vespera::json::serialize(
                   Value::makeArray(std::move(ad))) +
               ",\n";
        out += strfmt("  \"pass\": %s\n", fail ? "false" : "true");
        out += "}\n";
        std::fputs(out.c_str(), stdout);
        return fail ? 1 : 0;
    }

    std::printf("vespera-stat timeline: %s vs %s "
                "(threshold %g%%, skipping %zu warm-up windows)\n",
                cfg.baselinePath.c_str(), cfg.candidatePath.c_str(),
                cfg.threshold * 100.0, skip);
    for (const Finding &f : regressions) {
        std::printf("  REGRESSION %-56s %.6g -> %.6g\n",
                    f.metric.c_str(), f.baseline, f.candidate);
    }
    for (const std::string &n : removed)
        std::printf("  REMOVED    %s (present in baseline only)\n",
                    n.c_str());
    for (const std::string &n : added)
        std::printf("  added      %s (not gated)\n", n.c_str());
    std::printf("%s: %zu series/SLOs compared, %zu regression%s, "
                "%zu removed, %zu added\n",
                fail ? "FAIL" : "OK", compared, regressions.size(),
                regressions.size() == 1 ? "" : "s", removed.size(),
                added.size());
    return fail ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Subcommand dispatch: `vespera-stat timeline ...` diffs timeline
    // sections; everything else is the classic metrics diff.
    if (argc >= 2 && std::strcmp(argv[1], "timeline") == 0)
        return timelineMain(argc - 1, argv + 1);

    Config cfg;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; i++) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--threshold=", 12) == 0) {
            const std::string rest(arg + 12);
            const std::size_t eq = rest.find('=');
            if (eq == std::string::npos) {
                cfg.threshold = std::atof(rest.c_str());
            } else {
                cfg.overrides.push_back(
                    {rest.substr(0, eq),
                     std::atof(rest.c_str() + eq + 1)});
            }
        } else if (std::strncmp(arg, "--ignore=", 9) == 0) {
            cfg.ignores.emplace_back(arg + 9);
        } else if (std::strcmp(arg, "--json") == 0) {
            cfg.jsonOut = true;
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            usage();
            return 0;
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "vespera-stat: unknown flag %s\n",
                         arg);
            return usage();
        } else {
            positional.emplace_back(arg);
        }
    }
    if (positional.size() != 2)
        return usage();
    cfg.baselinePath = positional[0];
    cfg.candidatePath = positional[1];

    std::map<std::string, double> base, cand;
    std::string base_schema, cand_schema;
    if (!loadDoc(cfg.baselinePath, base, base_schema) ||
        !loadDoc(cfg.candidatePath, cand, cand_schema))
        return 2;
    // Versions of one family compare (v1 vs v2.x metrics); different
    // families share no keys, so a diff would only list every key as
    // REMOVED.
    if (schemaFamily(base_schema) != schemaFamily(cand_schema)) {
        std::fprintf(stderr,
                     "vespera-stat: schema mismatch: %s is %s but %s "
                     "is %s\n",
                     cfg.baselinePath.c_str(), base_schema.c_str(),
                     cfg.candidatePath.c_str(), cand_schema.c_str());
        return 2;
    }

    std::vector<Finding> regressions;
    std::vector<std::string> added, removed;
    std::size_t compared = 0;

    for (const auto &[name, bval] : base) {
        if (ignored(cfg, name))
            continue;
        const auto it = cand.find(name);
        if (it == cand.end()) {
            removed.push_back(name);
            continue;
        }
        compared++;
        const double cval = it->second;
        const double diff = std::abs(cval - bval);
        if (diff <= kAbsEps)
            continue;
        const double rel =
            bval != 0.0
                ? diff / std::abs(bval)
                : std::numeric_limits<double>::infinity();
        if (rel > thresholdFor(cfg, name))
            regressions.push_back({name, bval, cval, rel});
    }
    for (const auto &[name, cval] : cand) {
        (void)cval;
        if (!ignored(cfg, name) && base.find(name) == base.end())
            added.push_back(name);
    }

    const bool fail = !regressions.empty() || !removed.empty();

    if (cfg.jsonOut) {
        std::string out = "{\n";
        out += "  \"schema\": \"vespera-stat/v1\",\n";
        out += strfmt("  \"baseline\": \"%s\",\n",
                      cfg.baselinePath.c_str());
        out += strfmt("  \"candidate\": \"%s\",\n",
                      cfg.candidatePath.c_str());
        out += strfmt("  \"threshold\": %g,\n", cfg.threshold);
        out += strfmt("  \"compared\": %zu,\n", compared);
        out += "  \"regressions\": " + jsonFindings(regressions) +
               ",\n";
        std::vector<Value> rm, ad;
        for (const std::string &n : removed)
            rm.push_back(Value::makeString(n));
        for (const std::string &n : added)
            ad.push_back(Value::makeString(n));
        out += "  \"removed\": " +
               vespera::json::serialize(
                   Value::makeArray(std::move(rm))) +
               ",\n";
        out += "  \"added\": " +
               vespera::json::serialize(
                   Value::makeArray(std::move(ad))) +
               ",\n";
        out += strfmt("  \"pass\": %s\n", fail ? "false" : "true");
        out += "}\n";
        std::fputs(out.c_str(), stdout);
        return fail ? 1 : 0;
    }

    std::printf("vespera-stat: %s vs %s (threshold %g%%)\n",
                cfg.baselinePath.c_str(), cfg.candidatePath.c_str(),
                cfg.threshold * 100.0);
    std::sort(regressions.begin(), regressions.end(),
              [](const Finding &a, const Finding &b) {
                  return a.change > b.change;
              });
    for (const Finding &f : regressions) {
        std::printf("  REGRESSION %-48s %.6g -> %.6g (%+.1f%%)\n",
                    f.metric.c_str(), f.baseline, f.candidate,
                    (f.candidate - f.baseline) /
                        (f.baseline != 0 ? std::abs(f.baseline)
                                         : 1.0) *
                        100.0);
    }
    for (const std::string &n : removed)
        std::printf("  REMOVED    %s (present in baseline only)\n",
                    n.c_str());
    for (const std::string &n : added)
        std::printf("  added      %s (not gated)\n", n.c_str());
    std::printf("%s: %zu metrics compared, %zu regression%s, "
                "%zu removed, %zu added\n",
                fail ? "FAIL" : "OK", compared, regressions.size(),
                regressions.size() == 1 ? "" : "s", removed.size(),
                added.size());
    return fail ? 1 : 0;
}
