#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <mutex>
#include <unordered_set>

#include "analysis/analyzer.h"
#include "analysis/kernel_registry.h"
#include "analysis/migrate/scorecard.h"
#include "analysis/static/ir.h"
#include "analysis/static/static_analyzer.h"
#include "common/rng.h"
#include "digest.h"
#include "graph/replay_cache.h"
#include "hw/device_spec.h"
#include "kern/embedding.h"
#include "kern/gather_scatter.h"
#include "kern/stream.h"
#include "models/llama.h"
#include "obs/counters.h"
#include "port/corpus.h"
#include "port/lower.h"
#include "port/reference.h"
#include "serve/engine.h"
#include "serve/kv_cache.h"
#include "serve/trace.h"
#include "tpc/dispatcher.h"
#include "tpc/pipeline.h"

namespace perfbench {

namespace {

using namespace vespera;

// Jobs per pass. Each list takes about 1-1.5 s at --threads 1 on a
// 4-vCPU x86 host in a Release build, so a run holds several passes
// of each kind.
constexpr std::size_t kStreamJobs = 28;
constexpr std::size_t kGatherJobs = 6;
constexpr std::size_t kEmbeddingJobs = 9;
constexpr std::size_t kServeJobs = 40;

// ---------------------------------------------------------------------------
// Seeded draws
// ---------------------------------------------------------------------------

/** Seeded permutation of 0..n-1. */
std::vector<std::size_t>
permutation(Rng &rng, std::size_t n)
{
    std::vector<std::size_t> p(n);
    for (std::size_t k = 0; k < n; k++)
        p[k] = k;
    for (std::size_t k = n; k > 1; k--)
        std::swap(p[k - 1], p[rng.below(k)]);
    return p;
}

/** Integer in [lo, hi] at quantile q. */
int
pickInt(double q, int lo, int hi)
{
    return lo + std::min(hi - lo, static_cast<int>(q * (hi - lo + 1)));
}

/** Log-uniform value in [lo, hi] at quantile q. */
double
logPick(double q, double lo, double hi)
{
    return lo * std::pow(hi / lo, q);
}

/**
 * Latin-hypercube draws for one job list of n jobs. Each axis splits
 * its range into n strata, one job per stratum. Which stratum each job
 * takes on each axis (the layout) is fixed per workload, so every seed
 * combines the axes the same way, and the list's total work, latency
 * mix and largest job barely depend on the seed. A discrete axis
 * takes its stratum's level; the seed places each continuous value in
 * the middle half of its stratum and draws everything else: traces,
 * indices, lint's job order.
 */
class Design
{
  public:
    Design(const std::string &workload, std::uint64_t seed, std::size_t n)
        : layout_(Digest().add(workload).value()),
          rng_(Digest().add(workload).add(seed).value()), n_(n)
    {
    }

    /** A continuous axis: a seeded quantile in [0,1) per job. */
    std::vector<double> axis() { return draw(true); }

    /** A discrete axis: the stratum's centre quantile per job. */
    std::vector<double> levels() { return draw(false); }

    /** The seeded stream, for draws outside the layout. */
    Rng &rng() { return rng_; }

  private:
    std::vector<double>
    draw(bool jitter)
    {
        const std::vector<std::size_t> stratum = permutation(layout_, n_);
        std::vector<double> q(n_);
        for (std::size_t k = 0; k < n_; k++)
            q[k] = (static_cast<double>(stratum[k]) + 0.25 +
                    (jitter ? 0.5 * rng_.uniform() : 0.25)) /
                   static_cast<double>(n_);
        return q;
    }

    Rng layout_;
    Rng rng_;
    std::size_t n_;
};

// ---------------------------------------------------------------------------
// Traced-pass helpers
// ---------------------------------------------------------------------------

SpanRecorder *
spansOf(Tracer *tr)
{
    return tr ? &tr->spans : nullptr;
}

/**
 * Hash of a per-TPC program up to its base offsets: every field of
 * every instruction, with each memory stream's offsets taken relative
 * to that stream's first offset in the program. Two slices of one
 * launch hash equal when they record the same trace shifted in memory,
 * which is what a slice dedupe could evaluate once.
 */
std::uint64_t
sliceHash(const tpc::Program &p)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    std::vector<std::pair<std::uint32_t, std::int64_t>> bases;
    for (const tpc::Instr &in : p.instrs()) {
        std::int64_t off = in.memOffset;
        if (off >= 0) {
            auto it = std::find_if(bases.begin(), bases.end(),
                                   [&](const auto &b) {
                                       return b.first == in.memStream;
                                   });
            if (it == bases.end()) {
                bases.emplace_back(in.memStream, off);
                off = 0;
            } else {
                off -= it->second;
            }
        }
        std::uint32_t flops_bits = 0;
        std::memcpy(&flops_bits, &in.flopsPerLane, sizeof(flops_bits));
        mix(static_cast<std::uint64_t>(in.slot) |
            static_cast<std::uint64_t>(in.access) << 8 |
            static_cast<std::uint64_t>(flops_bits) << 16);
        mix(static_cast<std::uint32_t>(in.dst) |
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(in.src0))
                << 32);
        mix(static_cast<std::uint32_t>(in.src1) |
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(in.src2))
                << 32);
        mix(in.memBytes);
        mix(static_cast<std::uint32_t>(in.lanes) |
            static_cast<std::uint64_t>(
                static_cast<std::uint16_t>(in.opLabel))
                << 32);
        mix(in.memStream);
        mix(static_cast<std::uint64_t>(off));
    }
    mix(p.instrs().size());
    mix(std::hash<std::string>{}(p.kernelName()));
    return h;
}

/**
 * Brackets one kern call in a traced pass. A trace observer sees each
 * per-TPC program after it is recorded and before the dispatcher
 * evaluates it; the capture re-evaluates it there (timing
 * tpc::evaluatePipeline on the same trace) and hashes it for the
 * duplicate-slice count. From the observer's timestamps it then lays
 * out, under the kern call's span:
 *   trace.observe  the observer's own work (re-evaluation, hashing);
 *   tpc.eval       the dispatcher's evaluation, which follows the
 *                  observer and lasts as long as the re-evaluation;
 *   tpc.record     the recording of the next slice, which fills the
 *                  rest of the gap to its observer call.
 * What remains of the kern span is host data set-up and functional
 * verification (kern.* self time).
 */
class TpcCapture
{
  public:
    explicit TpcCapture(Tracer &tr)
        : tr_(tr),
          observer_([this](const tpc::Program &p, int t) { onSlice(p, t); })
    {
    }
    TpcCapture(const TpcCapture &) = delete;
    TpcCapture &operator=(const TpcCapture &) = delete;

    /** Lay the slice spans out under the (closed) kern span. */
    void
    emit(std::int64_t kern_span)
    {
        SpanRecorder &sp = tr_.spans;
        for (std::size_t k = 0; k < slices_.size(); k++) {
            const Slice &s = slices_[k];
            const bool first = k == 0 || slices_[k - 1].launch != s.launch;
            if (first) {
                // Recording start is not observable; placed later.
                tr_.pendingRecord.emplace_back(
                    sp.add("tpc.record", s.entry, s.entry, kern_span),
                    s.instrs);
            } else {
                const Slice &prev = slices_[k - 1];
                const double start = prev.exit + prev.eval;
                sp.add("tpc.record", start, s.entry, kern_span);
                tr_.add("_record_measured_s", s.entry - start);
                tr_.add("_record_measured_instrs",
                        static_cast<double>(s.instrs));
            }
            sp.add("trace.observe", s.entry, s.exit, kern_span);
            sp.add("tpc.eval", s.exit, s.exit + s.eval, kern_span);
        }
    }

  private:
    struct Slice
    {
        int tpc = 0;
        int launch = 0;
        double entry = 0;
        double exit = 0;
        double eval = 0;
        std::uint64_t instrs = 0;
    };

    void
    onSlice(const tpc::Program &p, int t)
    {
        const double entry = nowSeconds();
        if (slices_.empty() || t <= slices_.back().tpc) {
            launch_++;
            hashes_.clear();
        }
        if (!hashes_.insert(sliceHash(p)).second)
            tr_.add("tpc.dup_programs", 1);
        const double e0 = nowSeconds();
        const tpc::PipelineResult pr = tpc::evaluatePipeline(p, params_);
        const double eval = nowSeconds() - e0;
        tr_.add("tpc.programs", 1);
        tr_.add("tpc.instrs", static_cast<double>(p.instrs().size()));
        tr_.add("tpc.bus_bytes", static_cast<double>(pr.busBytes));
        tr_.add("tpc.random_txns", static_cast<double>(pr.randomTxns));
        slices_.push_back(
            {t, launch_, entry, 0, eval, p.instrs().size()});
        slices_.back().exit = nowSeconds();
    }

    Tracer &tr_;
    const tpc::TpcParams params_ = tpc::TpcParams::forGaudi2();
    std::vector<Slice> slices_;
    std::unordered_set<std::uint64_t> hashes_;
    int launch_ = -1;
    tpc::ScopedTraceObserver observer_; ///< Last: uses the state above.
};

/** Run a kern call, under a TpcCapture in traced passes. */
template <typename Fn>
auto
tpcCall(Tracer *tr, const char *span, Fn &&fn)
{
    if (!tr)
        return fn();
    TpcCapture capture(*tr);
    const std::int64_t id = tr->spans.open(span);
    auto result = fn();
    tr->spans.close(id);
    capture.emit(id);
    return result;
}

// ---------------------------------------------------------------------------
// tpc_stream
// ---------------------------------------------------------------------------

void
addResult(Digest &d, const kern::StreamResult &r)
{
    d.add(r.time).add(r.flops).add(r.gflops).add(r.vectorUtilization)
        .add(r.hbmUtilization).add(r.operationalIntensity);
}

class StreamWorkload final : public Workload
{
  public:
    explicit StreamWorkload(std::uint64_t seed)
    {
        Design design("tpc_stream", seed, kStreamJobs);
        const auto q_op = design.levels(), q_gran = design.levels(),
                   q_unroll = design.levels(), q_tpcs = design.levels(),
                   q_extra = design.levels(), q_work = design.axis();
        constexpr kern::StreamOp ops[] = {kern::StreamOp::Add,
                                          kern::StreamOp::Scale,
                                          kern::StreamOp::Triad};
        for (std::size_t k = 0; k < kStreamJobs; k++) {
            kern::StreamConfig c;
            c.op = ops[pickInt(q_op[k], 0, 2)];
            c.accessBytes = Bytes{16} << pickInt(q_gran[k], 0, 7);
            c.unroll = pickInt(q_unroll[k], 1, 16);
            c.numTpcs = pickInt(q_tpcs[k], 1, 24);
            c.extraComputePerVector = pickInt(q_extra[k], 0, 32);
            // The element count is drawn through the trace length it
            // implies (loads + op + filler + store per vector), so
            // that host cost, not only array size, is stratified.
            const double per_vector =
                (c.op == kern::StreamOp::Scale ? 1 : 2) + 2 +
                c.extraComputePerVector;
            const double lanes =
                static_cast<double>(c.accessBytes / dtypeSize(c.dt));
            const double instrs = logPick(q_work[k], 2e4, 6e5);
            c.numElements = static_cast<std::uint64_t>(std::clamp(
                instrs / per_vector * lanes, 256.0 * 1024,
                8.0 * 1024 * 1024));
            jobs_.push_back(c);
        }
    }

    std::size_t size() const override { return jobs_.size(); }

    std::string
    describe(std::size_t job) const override
    {
        const kern::StreamConfig &c = jobs_[job];
        return strfmt("tpc_stream op=%s elements=%llu access=%lluB "
                      "unroll=%d tpcs=%d extra=%d",
                      kern::streamOpName(c.op),
                      static_cast<unsigned long long>(c.numElements),
                      static_cast<unsigned long long>(c.accessBytes),
                      c.unroll, c.numTpcs, c.extraComputePerVector);
    }

    std::string
    run(std::size_t job, Tracer *tr) override
    {
        const kern::StreamConfig &c = jobs_[job];
        Digest d;
        addResult(d, tpcCall(tr, "kern.stream",
                             [&] { return kern::runStreamGaudi(c); }));
        ScopedSpan cuda(spansOf(tr), "cuda.stream");
        addResult(d, kern::runStreamA100(c));
        return d.hex();
    }

  private:
    std::vector<kern::StreamConfig> jobs_;
};

// ---------------------------------------------------------------------------
// tpc_gather
// ---------------------------------------------------------------------------

/**
 * Embedding tables built in set-up: three shapes with the same lane x
 * row footprint (~34 MB of host floats each), from many narrow rows to
 * few wide ones.
 */
std::vector<kern::EmbeddingConfig>
embeddingShapes()
{
    std::vector<kern::EmbeddingConfig> shapes(3);
    shapes[0].numTables = 16;
    shapes[0].rowsPerTable = 32 << 10;
    shapes[0].vectorBytes = 64;
    shapes[0].batch = 256;
    shapes[0].pooling = 10;
    shapes[1].numTables = 8;
    shapes[1].rowsPerTable = 16 << 10;
    shapes[1].vectorBytes = 256;
    shapes[1].batch = 256;
    shapes[1].pooling = 20;
    shapes[2].numTables = 4;
    shapes[2].rowsPerTable = 8 << 10;
    shapes[2].vectorBytes = 1024;
    shapes[2].batch = 128;
    shapes[2].pooling = 20;
    return shapes;
}

class GatherWorkload final : public Workload
{
  public:
    GatherWorkload(std::uint64_t seed, Tracer *setup)
    {
        {
            ScopedSpan span(spansOf(setup), "setup.embedding_tables");
            for (const kern::EmbeddingConfig &shape : embeddingShapes())
                layers_.push_back(
                    std::make_unique<kern::EmbeddingLayerGaudi>(shape));
        }

        Design gs("tpc_gather", seed, kGatherJobs);
        // The footprint sets each job's largest array, so it is held
        // at its level too: peak RSS and the heaviest jobs then do not
        // move with the seed.
        const auto q_kind = gs.levels(), q_vec = gs.levels(),
                   q_foot = gs.levels(), q_acc = gs.axis();
        for (std::size_t k = 0; k < kGatherJobs; k++) {
            Job j;
            j.gs.scatter = q_kind[k] >= 0.5;
            j.gs.vectorBytes = Bytes{16} << pickInt(q_vec[k], 0, 7);
            const double footprint =
                logPick(q_foot[k], 8.0 * (1 << 20), 128.0 * (1 << 20));
            j.gs.numVectors = static_cast<std::uint64_t>(
                footprint / static_cast<double>(j.gs.vectorBytes));
            // Access fraction, drawn through the access count it
            // implies so that trace length stays bounded on the
            // narrow-vector, large-array corner.
            const double accesses = logPick(q_acc[k], 16e3, 256e3);
            j.gs.accessFraction = std::min(
                1.0, accesses / static_cast<double>(j.gs.numVectors));
            j.rngSeed = gs.rng().next();
            jobs_.push_back(j);
        }

        Design emb("tpc_gather.embedding", seed, kEmbeddingJobs);
        const auto q_layer = emb.levels(), q_var = emb.levels();
        for (std::size_t k = 0; k < kEmbeddingJobs; k++) {
            Job j;
            j.embedding = true;
            j.layer = pickInt(q_layer[k], 0, 2);
            j.variant = static_cast<kern::EmbeddingVariant>(
                pickInt(q_var[k], 0, 2));
            j.rngSeed = emb.rng().next();
            jobs_.push_back(j);
        }
        // Scatter writes, gather reads and embedding lookups
        // interleave in the pass, in a fixed order.
        Rng order(Digest().add("tpc_gather.order").value());
        std::vector<Job> mixed;
        for (std::size_t k : permutation(order, jobs_.size()))
            mixed.push_back(jobs_[k]);
        jobs_ = std::move(mixed);
    }

    std::size_t size() const override { return jobs_.size(); }

    std::string
    describe(std::size_t job) const override
    {
        const Job &j = jobs_[job];
        if (j.embedding) {
            const kern::EmbeddingConfig &c = layers_[j.layer]->config();
            return strfmt("tpc_gather embedding variant=%s tables=%d "
                          "rows=%lld vector=%lluB batch=%d pooling=%d "
                          "index_seed=%llu",
                          kern::embeddingVariantName(j.variant),
                          c.numTables,
                          static_cast<long long>(c.rowsPerTable),
                          static_cast<unsigned long long>(c.vectorBytes),
                          c.batch, c.pooling,
                          static_cast<unsigned long long>(j.rngSeed));
        }
        return strfmt("tpc_gather %s vector=%lluB vectors=%llu "
                      "fraction=%.6g index_seed=%llu",
                      j.gs.scatter ? "scatter" : "gather",
                      static_cast<unsigned long long>(j.gs.vectorBytes),
                      static_cast<unsigned long long>(j.gs.numVectors),
                      j.gs.accessFraction,
                      static_cast<unsigned long long>(j.rngSeed));
    }

    std::string
    run(std::size_t job, Tracer *tr) override
    {
        const Job &j = jobs_[job];
        Digest d;
        Rng rng(j.rngSeed);
        if (j.embedding) {
            const kern::EmbeddingResult r =
                tpcCall(tr, "kern.embedding", [&] {
                    return layers_[j.layer]->run(j.variant, rng);
                });
            d.add(r.time).add(r.gatheredBytes).add(r.hbmUtilization)
                .add(r.kernelLaunches);
            ScopedSpan cuda(spansOf(tr), "cuda.embedding");
            const kern::EmbeddingResult a =
                kern::runEmbeddingA100(layers_[j.layer]->config());
            d.add(a.time).add(a.gatheredBytes).add(a.hbmUtilization);
            return d.hex();
        }
        const kern::GatherScatterResult r = tpcCall(
            tr, "kern.gather",
            [&] { return kern::runGatherScatterGaudi(j.gs, rng); });
        d.add(r.time).add(r.usefulBytes).add(r.hbmUtilization);
        ScopedSpan cuda(spansOf(tr), "cuda.gather");
        const kern::GatherScatterResult a =
            kern::runGatherScatterA100(j.gs);
        d.add(a.time).add(a.usefulBytes).add(a.hbmUtilization);
        return d.hex();
    }

  private:
    struct Job
    {
        bool embedding = false;
        kern::GatherScatterConfig gs;
        int layer = 0;
        kern::EmbeddingVariant variant = kern::EmbeddingVariant::BatchedTable;
        std::uint64_t rngSeed = 0;
    };

    std::vector<std::unique_ptr<kern::EmbeddingLayerGaudi>> layers_;
    std::vector<Job> jobs_;
};

// ---------------------------------------------------------------------------
// llm_serve
// ---------------------------------------------------------------------------

class ServeWorkload final : public Workload
{
  public:
    ServeWorkload(std::uint64_t seed, Tracer *setup)
        : m8_(models::LlamaConfig::llama31_8b()),
          m70_(models::LlamaConfig::llama31_70b())
    {
        Design design("llm_serve", seed, kServeJobs);
        const auto q_model = design.levels(), q_batch = design.axis(),
                   q_policy = design.levels(), q_sched = design.levels(),
                   q_chunk = design.levels();
        constexpr int tps[] = {1, 2, 4, 8};
        ScopedSpan span(spansOf(setup), "serve.trace");
        for (std::size_t k = 0; k < kServeJobs; k++) {
            Job j;
            const int tp = tps[pickInt(q_model[k], 0, 3)];
            j.big = tp > 1;
            serve::EngineConfig &c = j.cfg;
            c.tpDevices = tp;
            c.maxDecodeBatch = static_cast<int>(
                std::lround(logPick(q_batch[k], 16, 128)));
            c.kvPolicy = q_policy[k] < 0.5 ? serve::KvPolicy::Paged
                                           : serve::KvPolicy::Contiguous;
            c.schedPolicy = q_sched[k] < 0.5
                                ? serve::SchedPolicy::Fcfs
                                : serve::SchedPolicy::ShortestPromptFirst;
            c.chunkedPrefillTokens = q_chunk[k] < 0.5 ? 0 : 512;
            // KV pool sized in max-length sequences, from 8 to 96,
            // capped at what HBM holds next to the weights. The pool
            // and the request count run against the batch axis and
            // the arrival rate with it: the smallest pools meet the
            // largest batches and the highest rates, and preempt
            // under paged allocation; the roomiest meet small batches
            // and low rates. The small-pool jobs, which serve few
            // sequences at a time, get the shortest traces, so job
            // costs stay within about 30x of each other.
            const models::LlamaConfig &mc = model(j).config();
            const Bytes per_token = serve::kvBytesPerToken(
                mc.layers, std::max(1, mc.numKvHeads / tp), mc.headDim,
                c.dt);
            const double seqs = logPick(1 - q_batch[k], 8, 96);
            const Bytes budget = hw::deviceSpec(c.device).hbmCapacity -
                                 mc.weightBytes(tp, c.dt);
            c.kvCacheBytes = std::min<Bytes>(
                budget, static_cast<Bytes>(
                            seqs * static_cast<double>(c.maxModelLen)) *
                            per_token);

            serve::TraceConfig t;
            t.numRequests = pickInt(1 - q_batch[k], 512, 2048);
            t.arrivalRate = logPick(q_batch[k], 2, 16);
            j.traceSeed = design.rng().next();
            j.requests = t.numRequests;
            j.rate = t.arrivalRate;
            Rng trace_rng(j.traceSeed);
            j.trace = serve::makeDynamicTrace(t, trace_rng);
            jobs_.push_back(std::move(j));
        }
    }

    std::size_t size() const override { return jobs_.size(); }

    std::string
    describe(std::size_t job) const override
    {
        const Job &j = jobs_[job];
        const serve::EngineConfig &c = j.cfg;
        return strfmt(
            "llm_serve model=%s tp=%d max_batch=%d kv_bytes=%llu "
            "kv=%s sched=%s chunked_prefill=%d requests=%d "
            "rate=%.6g trace_seed=%llu",
            model(j).config().name.c_str(), c.tpDevices,
            c.maxDecodeBatch,
            static_cast<unsigned long long>(c.kvCacheBytes),
            c.kvPolicy == serve::KvPolicy::Paged ? "paged" : "contiguous",
            c.schedPolicy == serve::SchedPolicy::Fcfs ? "fcfs" : "spf",
            c.chunkedPrefillTokens, j.requests, j.rate,
            static_cast<unsigned long long>(j.traceSeed));
    }

    std::string
    run(std::size_t job, Tracer *tr) override
    {
        const Job &j = jobs_[job];
        serve::Engine engine(model(j), j.cfg);
        // Program counters read around the run; in a traced pass jobs
        // run one at a time, so the change is this job's.
        static constexpr std::pair<const char *, const char *> counters[] = {
            {"engine.steps", "serve.steps"},
            {"engine.steps_skipped", "serve.steps_skipped"},
            {"engine.preemptions", "serve.preemptions"},
            {"engine.recomputed_tokens", "serve.recomputed_tokens"},
            {"replay.step.hits", "_replay.step.hits"},
            {"replay.step.misses", "_replay.step.misses"},
            {"replay.node.hits", "_replay.node.hits"},
            {"replay.node.misses", "_replay.node.misses"}};
        if (tr)
            for (const auto &[counter, key] : counters)
                tr->add(key, -counterValue(counter));
        serve::ServingMetrics m;
        {
            ScopedSpan run_span(spansOf(tr), "serve.run");
            m = engine.run(j.trace);
        }
        if (tr)
            for (const auto &[counter, key] : counters)
                tr->add(key, counterValue(counter));
        Digest d;
        d.add(m.makespan).add(m.throughputTokensPerSec).add(m.meanTtft)
            .add(m.meanTpot).add(m.p99Ttft).add(m.completed)
            .add(m.preemptions).add(m.avgDecodeBatch);
        return d.hex();
    }

    /**
     * Step-cost probes at the jobs' model shapes: one decode step at a
     * full batch and one prefill, first with the replay caches cleared
     * (miss), then again (hit).
     */
    void
    probe(Tracer &tr) override
    {
        std::vector<std::pair<bool, int>> seen;
        for (const Job &j : jobs_) {
            const std::pair<bool, int> key{j.big, j.cfg.tpDevices};
            if (std::find(seen.begin(), seen.end(), key) != seen.end())
                continue;
            seen.push_back(key);
            models::LlamaServingConfig sc;
            sc.tpDevices = j.cfg.tpDevices;
            sc.attention = j.cfg.attention;
            sc.dt = j.cfg.dt;
            const models::LlamaModel &m = model(j);
            for (const bool prefill : {false, true}) {
                const int batch = prefill ? 1 : j.cfg.maxDecodeBatch;
                const int tokens = prefill ? 512 : 1;
                const std::int64_t ctx = prefill ? 512 : 1024;
                graph::nodeReplayCache().clear();
                graph::stepReplayCache().clear();
                for (const char *name :
                     {"models.step_miss", "models.step_hit"}) {
                    ScopedSpan span(&tr.spans, name);
                    m.stepReport(j.cfg.device, batch, tokens, ctx, prefill,
                                 sc);
                }
                tr.add("_models.step_probes", 1);
            }
        }
    }

  private:
    struct Job
    {
        bool big = false;
        serve::EngineConfig cfg;
        std::uint64_t traceSeed = 0;
        int requests = 0;
        double rate = 0;
        std::vector<serve::Request> trace;
    };

    const models::LlamaModel &
    model(const Job &j) const
    {
        return j.big ? m70_ : m8_;
    }

    models::LlamaModel m8_;
    models::LlamaModel m70_;
    std::vector<Job> jobs_;
};

// ---------------------------------------------------------------------------
// lint
// ---------------------------------------------------------------------------

void
addReport(Digest &d, const analysis::Report &r)
{
    d.add(r.kernel).add(r.instructions).add(r.cycles)
        .add(r.measuredStallCycles).add(r.predictedStallCycles)
        .add(r.dependencyStallCycles).add(r.memoryStallCycles)
        .add(r.slotStallCycles).add(r.drainStallCycles)
        .add(r.criticalPathCycles).add(r.localBytesUsed);
    for (const std::uint64_t c : r.slotCounts)
        d.add(c);
    for (const analysis::Diagnostic &g : r.diagnostics) {
        d.add(g.rule).add(static_cast<int>(g.severity)).add(g.instrIndex)
            .add(g.message).add(g.costCycles).add(g.wastedBytes);
    }
}

void
addStatic(Digest &d, const analysis::StaticReport &s)
{
    addReport(d, s.report);
    d.add(s.predictedCycles()).add(s.blockCount).add(s.loopCount)
        .add(s.maxLoopDepth).add(s.maxLiveValues).add(s.peakLiveBytes);
}

class LintWorkload final : public Workload
{
  public:
    explicit LintWorkload(std::uint64_t seed)
    {
        analysis::registerBuiltinKernels();
        kernels_ = analysis::KernelRegistry::instance().names();
        const std::size_t items =
            kernels_.size() + port::migrationCorpus().size();
        Design design("lint", seed, items);
        jobs_ = permutation(design.rng(), items);
    }

    std::size_t size() const override { return jobs_.size(); }

    std::string
    describe(std::size_t job) const override
    {
        const std::size_t item = jobs_[job];
        if (item < kernels_.size())
            return "lint kernel=" + kernels_[item];
        return "lint migrate=" + corpus(item).desc.name;
    }

    std::string
    run(std::size_t job, Tracer *tr) override
    {
        const std::size_t item = jobs_[job];
        Digest d;
        if (item < kernels_.size()) {
            analysis::TracedKernel k;
            {
                std::lock_guard<std::mutex> lock(launchMu_);
                ScopedSpan s(spansOf(tr), "analysis.trace");
                k = analysis::KernelRegistry::instance().trace(
                    kernels_[item]);
            }
            analysis::Report rules;
            {
                ScopedSpan s(spansOf(tr), "analysis.rules");
                rules = analysis::analyzeProgram(k.program);
            }
            analysis::StaticReport stat;
            {
                ScopedSpan s(spansOf(tr), "analysis.static");
                stat = analysis::analyzeProgramStatic(k.program);
            }
            if (tr) {
                {
                    ScopedSpan s(&tr->spans, "analysis.lift");
                    analysis::liftProgram(k.program);
                }
                tr->add("analysis.instrs",
                        static_cast<double>(k.program.instrs().size()));
                tr->add("analysis.findings",
                        static_cast<double>(rules.diagnostics.size() +
                                            stat.report.diagnostics.size()));
            }
            d.add(k.name).add(k.shape);
            addReport(d, rules);
            addStatic(d, stat);
            return d.hex();
        }

        const port::CorpusEntry &entry = corpus(item);
        analysis::MigrateEntry m;
        {
            std::lock_guard<std::mutex> lock(launchMu_);
            ScopedSpan s(spansOf(tr), "port.migrate");
            m = analysis::migrateKernel(entry);
        }
        if (tr) {
            {
                ScopedSpan s(&tr->spans, "port.lower");
                port::lowerAndRun(entry.desc, entry.lower);
            }
            {
                ScopedSpan s(&tr->spans, "port.reference");
                port::runReference(entry.desc);
            }
            tr->add("port.parity_failures", m.parity ? 0 : 1);
            tr->add("analysis.findings",
                    static_cast<double>(
                        m.analysis.report.diagnostics.size()));
        }
        d.add(m.kernel).add(m.parity).add(m.maxRelError).add(m.portedTime)
            .add(m.portedCycles).add(m.handTime).add(m.achievedFraction)
            .add(m.a100Time).add(m.slowdownVsA100);
        addStatic(d, m.analysis);
        return d.hex();
    }

  private:
    const port::CorpusEntry &
    corpus(std::size_t item) const
    {
        return port::migrationCorpus()[item - kernels_.size()];
    }

    std::vector<std::string> kernels_;
    std::vector<std::size_t> jobs_;
    /// Kernel tracing installs a process-wide trace observer and
    /// migration launches kernels, so on the pool they take turns;
    /// analysis of captured traces runs concurrently.
    std::mutex launchMu_;
};

} // namespace

double
counterValue(const char *name)
{
    const obs::Counter *c = obs::CounterRegistry::instance().find(name);
    return c ? c->value() : 0.0;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             Tracer *setup_tracer)
{
    if (name == "tpc_stream")
        return std::make_unique<StreamWorkload>(seed);
    if (name == "tpc_gather")
        return std::make_unique<GatherWorkload>(seed, setup_tracer);
    if (name == "llm_serve")
        return std::make_unique<ServeWorkload>(seed, setup_tracer);
    if (name == "lint")
        return std::make_unique<LintWorkload>(seed);
    return nullptr;
}

} // namespace perfbench
