#include "serve/engine.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/capture.h"
#include "obs/profiler.h"
#include "obs/selfprof.h"
#include "serve/engine_run.h"

namespace vespera::serve {

namespace {

/// Harvest the step fields the engine (and its timeline gauges) care
/// about from a full execution report.
StepCost
costOf(const graph::ExecutionReport &r)
{
    return {r.time, r.matrixBusy, r.vectorBusy,
            static_cast<double>(r.hbmBytes)};
}

} // namespace

Engine::Engine(const models::LlamaModel &model, EngineConfig config)
    : model_(model), config_(config)
{
    // Sizing fields first: tpDevices = 0 would divide by zero below.
    auto atLeast = [](const char *field, long long v, long long min) {
        vassert(v >= min, "bad engine config: %s must be at least %lld, "
                "got %lld", field, min, v);
    };
    atLeast("maxDecodeBatch", config.maxDecodeBatch, 1);
    atLeast("tpDevices", config.tpDevices, 1);
    atLeast("blockTokens", config.blockTokens, 1);
    atLeast("maxModelLen", config.maxModelLen, 1);
    atLeast("chunkedPrefillTokens", config.chunkedPrefillTokens, 0);
    servingCfg_.tpDevices = config.tpDevices;
    servingCfg_.attention = config.attention;
    servingCfg_.dt = config.dt;

    // Capacity accounting: weights plus KV must fit device HBM.
    const auto &spec = hw::deviceSpec(config.device);
    const Bytes weights =
        model.config().weightBytes(config.tpDevices, config.dt);
    vassert(weights < spec.hbmCapacity,
            "%s does not fit on %s with TP=%d (%llu GiB weights)",
            model.config().name.c_str(), deviceName(config.device),
            config.tpDevices,
            static_cast<unsigned long long>(weights >> 30));
    kvBudget_ = spec.hbmCapacity - weights;
    if (config_.kvCacheBytes > kvBudget_) {
        vwarn("kvCacheBytes clamped to %llu GiB (weights take %llu GiB)",
              static_cast<unsigned long long>(kvBudget_ >> 30),
              static_cast<unsigned long long>(weights >> 30));
        config_.kvCacheBytes = kvBudget_;
    }
}

StepCost
Engine::step(int batch, int tokens_per_request, std::int64_t ctx,
             bool prefill)
{
    // Like the replay caches, the memo steps aside while the Profiler
    // traces, so every traced step is evaluated, charged at once and
    // samples its counter tracks.
    const bool tracing = obs::Profiler::instance().enabled();
    const auto key = std::make_tuple(batch, tokens_per_request, ctx,
                                     prefill);
    auto it = tracing ? steps_.end() : steps_.find(key);
    if (obs::SelfProf::instance().enabled()) {
        // Host work, so SelfProf, never the counter registry.
        const std::string ck = strfmt(
            "step|%s|b%d|t%d|ctx%lld|p%d", deviceName(config_.device),
            batch, tokens_per_request, static_cast<long long>(ctx),
            prefill ? 1 : 0);
        if (it == steps_.end())
            obs::SelfProf::instance().cacheMiss(ck);
        else
            obs::SelfProf::instance().cacheHit(ck);
    }
    if (tracing)
        return costOf(model_.stepReport(config_.device, batch,
                                        tokens_per_request, ctx, prefill,
                                        servingCfg_));
    if (it == steps_.end()) {
        // A miss's evaluation is kernel-eval work, as in stepReport().
        obs::SelfTimer self(obs::SelfCat::KernelEval);
        graph::StepEval eval =
            model_.stepEval(config_.device, batch, tokens_per_request,
                            ctx, prefill, servingCfg_);
        it = steps_
                 .emplace(key, StepEntry{costOf(eval.report),
                                         std::move(eval.graphs)})
                 .first;
    }
    it->second.calls++;
    return it->second.cost;
}

namespace {

/// Under the Contiguous policy every request reserves a full
/// max-model-length slab up front: modeled as paging with one giant
/// block per sequence.
int
kvBlockTokens(const EngineConfig &cfg)
{
    return cfg.kvPolicy == KvPolicy::Paged
               ? cfg.blockTokens
               : static_cast<int>(cfg.maxModelLen);
}

std::int64_t
kvTotalBlocks(const EngineConfig &cfg, const models::LlamaConfig &mc)
{
    const Bytes per_token = kvBytesPerToken(
        mc.layers, std::max(1, mc.numKvHeads / cfg.tpDevices),
        mc.headDim, cfg.dt);
    const Bytes block_bytes =
        per_token * static_cast<Bytes>(kvBlockTokens(cfg));
    vassert(cfg.kvCacheBytes >= block_bytes,
            "kvCacheBytes=%llu holds no KV block: one %s=%d-token block "
            "takes %llu bytes",
            static_cast<unsigned long long>(cfg.kvCacheBytes),
            cfg.kvPolicy == KvPolicy::Paged ? "blockTokens"
                                            : "maxModelLen",
            kvBlockTokens(cfg),
            static_cast<unsigned long long>(block_bytes));
    return static_cast<std::int64_t>(cfg.kvCacheBytes / block_bytes);
}

} // namespace

Engine::RunState::RunState(Engine &engine, std::vector<Request> &reqs)
    : eng(engine), trace(reqs),
      paged(engine.config_.kvPolicy == KvPolicy::Paged),
      kv(kvTotalBlocks(engine.config_, engine.model_.config()),
         kvBlockTokens(engine.config_)),
      remaining(reqs.size()), delivered(reqs.size(), 0),
      c_steps(obs::CounterRegistry::instance().counter("engine.steps")),
      c_prefill_tok(obs::CounterRegistry::instance().counter(
          "engine.prefill_tokens")),
      c_decode_tok(obs::CounterRegistry::instance().counter(
          "engine.decode_tokens")),
      c_preempt(obs::CounterRegistry::instance().counter(
          "engine.preemptions")),
      c_recomputed(obs::CounterRegistry::instance().counter(
          "engine.recomputed_tokens")),
      c_kv_in_use(obs::CounterRegistry::instance().counter(
          "kv.blocks_in_use")),
      profiler(obs::Profiler::instance()),
      // Request-lifecycle flow tracing: one Perfetto flow per request
      // (queued -> prefill -> decode, with preemption/re-prefill
      // episodes), linked via SpanEvent::flowId. Queue time renders on
      // one shared lane; admitted requests occupy one of
      // maxDecodeBatch slot lanes for their prefill+decode residency.
      // Recording is skipped under an active capture (a parallel
      // sweep worker): the span order and lane cursors there would
      // depend on thread interleaving, and overlapping sweep points on
      // shared lanes are unreadable anyway — single-run traces
      // (examples/profile_step) are where per-request flows make
      // sense.
      flow_trace(profiler.enabled() &&
                 obs::ScopedCapture::current() == nullptr)
{
    for (std::size_t i = 0; i < trace.size(); i++)
        waiting.push_back(i);
    if (flow_trace) {
        slot_of.assign(trace.size(), -1);
        phase_start.assign(trace.size(), 0);
        episodes.assign(trace.size(), 0);
        for (std::size_t i = 0; i < trace.size(); i++)
            phase_start[i] = trace[i].arrival;
        for (int s = 0; s < eng.config_.maxDecodeBatch; s++)
            free_slots.insert(s);
        profiler.nameTrack(obs::TrackGroup::Device, kLaneQueue,
                           "req queue");
    }

    // Virtual-time timeline: a run-local windowed sampler, created
    // only when the process-wide Timeline is on. Run-local state fed
    // from the serial scheduler path is what keeps the series a pure
    // function of the simulated schedule — sampling the shared counter
    // registry at boundaries would be thread-variant (deferred updates
    // are invisible under capture, and a 1-thread pool skips captures
    // entirely).
    obs::Timeline &timeline = obs::Timeline::instance();
    if (timeline.enabled()) {
        const models::LlamaConfig &mc = eng.model_.config();
        const Bytes per_token = kvBytesPerToken(
            mc.layers,
            std::max(1, mc.numKvHeads / eng.config_.tpDevices),
            mc.headDim, eng.config_.dt);
        kv_block_bytes =
            static_cast<double>(per_token) *
            static_cast<double>(kvBlockTokens(eng.config_));
        tl = std::make_unique<obs::TimelineRecorder>(
            timeline.interval(), timeline.capacity(), timeline.slos());
        g_queue = tl->gaugeId("queue_depth");
        g_running = tl->gaugeId("running");
        g_kv_bytes = tl->gaugeId("kv_bytes_in_use");
        g_kv_hw = tl->gaugeId("kv_high_water_bytes");
        g_preempt = tl->gaugeId("preemptions");
        g_prefill_tok = tl->gaugeId("prefill_tokens");
        g_decode_tok = tl->gaugeId("decode_tokens");
        g_goodput = tl->gaugeId("goodput_tokens_per_sec");
        g_ttft_p99 = tl->gaugeId("ttft_p99_seconds");
        g_tpot_p99 = tl->gaugeId("tpot_p99_seconds");
        g_mme_util = tl->gaugeId("mme_util");
        g_tpc_util = tl->gaugeId("tpc_util");
        g_hbm_gbps = tl->gaugeId("hbm_gbps");
    }
}

void
Engine::RunState::tlAdvance(Seconds t)
{
    // Close every window whose end has passed. The engine advances in
    // whole steps, so a boundary is never itself a scheduling point;
    // boundary gauges are read at the first scheduling point at or
    // after it (documented in docs/observability.md).
    while (tl->windowEnd() <= t) {
        tlSample(tl->windowEnd(), tl->interval());
        tl->closeWindow();
    }
}

void
Engine::RunState::tlSample(Seconds t, Seconds len)
{
    // Arrived-but-unadmitted requests plus the prefill queue. The
    // arrived prefix of `waiting` may be SPF-reordered, so the whole
    // deque is scanned against the boundary time.
    std::int64_t queued =
        static_cast<std::int64_t>(prefill_queue.size());
    for (std::size_t idx : waiting) {
        if (trace[idx].arrival <= t)
            queued++;
    }
    tl->set(g_queue, static_cast<double>(queued));
    tl->set(g_running, static_cast<double>(running.size()));
    const double kv_bytes =
        static_cast<double>(kv.totalBlocks() - kv.freeBlocks()) *
        kv_block_bytes;
    tl->set(g_kv_bytes, kv_bytes);
    // The window's KV high-water is at least the boundary occupancy
    // (a window with no steps still holds its residents' blocks).
    tl->max(g_kv_hw, kv_bytes);

    // Windowed deltas against the previous boundary's snapshots.
    tl->set(g_goodput,
            static_cast<double>(generated_total - w_goodput_base) /
                len);
    w_goodput_base = generated_total;
    tl->set(g_ttft_p99, m.ttft.diff(ttft_prev).percentile(99));
    ttft_prev = m.ttft;
    tl->set(g_tpot_p99, m.tpot.diff(tpot_prev).percentile(99));
    tpot_prev = m.tpot;

    // Busy fractions. A step is charged whole to the window containing
    // its start, so a fraction can exceed 1 when steps outlast the
    // interval — pick an interval above the typical step time
    // (docs/observability.md).
    tl->set(g_mme_util, w_mme / len);
    tl->set(g_tpc_util, w_tpc / len);
    tl->set(g_hbm_gbps, w_hbm / len / 1e9);
    w_mme = w_tpc = w_hbm = 0;
}

void
Engine::RunState::tlBusy(const StepCost &c)
{
    w_mme += c.mmeBusy;
    w_tpc += c.tpcBusy;
    w_hbm += c.hbmBytes;
}

void
Engine::RunState::tlFinish()
{
    tlAdvance(clock);
    if (clock > tl->windowStart()) {
        tlSample(clock, clock - tl->windowStart());
        tl->closeFinal(clock);
    }
    m.timeline = tl->snapshot();
    m.timelineLabel = eng.config_.timelineLabel;
}

std::int64_t
Engine::RunState::reserveTokens(const Request &r) const
{
    return paged ? static_cast<std::int64_t>(r.inputLen) + 1
                 : std::max<std::int64_t>(eng.config_.maxModelLen,
                                          r.inputLen + r.outputLen);
}

void
Engine::RunState::flowSpan(const Request &r, const char *phase,
                           int lane, Seconds start)
{
    obs::SpanEvent e;
    e.name = strfmt("req %lld %s", static_cast<long long>(r.id), phase);
    e.category = "request";
    e.group = obs::TrackGroup::Device;
    e.track = lane;
    e.start = start;
    e.duration = clock - start;
    e.flowId = static_cast<std::uint64_t>(r.id) + 1;
    profiler.recordSpan(std::move(e));
}

void
Engine::RunState::allocSlot(std::size_t idx)
{
    vassert(!free_slots.empty(), "more residents than batch slots");
    const int s = *free_slots.begin();
    free_slots.erase(free_slots.begin());
    slot_of[idx] = s;
    profiler.nameTrack(obs::TrackGroup::Device, kLaneSlot0 + s,
                       strfmt("req slot %d", s));
}

void
Engine::RunState::releaseSlot(std::size_t idx)
{
    free_slots.insert(slot_of[idx]);
    slot_of[idx] = -1;
}

// Queue span ends and a slot lane begins when prefill starts.
void
Engine::RunState::flowAdmit(std::size_t idx)
{
    flowSpan(trace[idx], episodes[idx] ? "re-queued" : "queued",
             kLaneQueue, phase_start[idx]);
    allocSlot(idx);
    phase_start[idx] = clock;
}

void
Engine::RunState::record(EngineEvent::Kind kind, Seconds start,
                         Seconds duration, int batch, int chunk)
{
    // Telemetry runs regardless of recordEvents: the step tallies are
    // published once, in finalize(); per-step counter tracks only when
    // tracing.
    steps++;
    prefill_tokens += chunk;
    decode_tokens += batch;
    const std::int64_t blocks_in_use =
        kv.totalBlocks() - kv.freeBlocks();
    kv_last = blocks_in_use;
    kv_max = std::max(kv_max, blocks_in_use);
    if (tl) {
        // Close windows the clock has passed, then charge this step's
        // scheduling to the window containing its start.
        tlAdvance(start);
        tl->add(g_prefill_tok, chunk);
        tl->add(g_decode_tok, batch);
        tl->max(g_kv_hw,
                static_cast<double>(blocks_in_use) * kv_block_bytes);
    }
    if (profiler.enabled()) {
        profiler.sample("kv.blocks_in_use", start + duration,
                        static_cast<double>(blocks_in_use));
        profiler.sample("engine.decode_batch", start + duration, batch);
    }
    if (!eng.config_.recordEvents)
        return;
    EngineEvent e;
    e.kind = kind;
    e.start = start;
    e.duration = duration;
    e.decodeBatch = batch;
    e.prefillTokens = chunk;
    eng.events_.push_back(e);
}

// Completes a request's prefill: its first token materializes.
// After a preemption the same request prefills again — recompute
// rebuilds its KV — but its first token was already delivered, so
// TTFT and the generated-token total are recorded only once.
void
Engine::RunState::finishPrefill(std::size_t idx)
{
    Request &r = trace[idx];
    r.prefilled = true;
    r.generated = 1;
    if (flow_trace) {
        flowSpan(r, episodes[idx] ? "re-prefill" : "prefill",
                 kLaneSlot0 + slot_of[idx], phase_start[idx]);
        phase_start[idx] = clock;
    }
    if (r.firstTokenTime < 0) {
        r.firstTokenTime = clock;
        m.ttft.add(clock - r.arrival);
    }
    if (r.generated > delivered[idx]) {
        delivered[idx] = r.generated;
        generated_total++;
    } else {
        recomputed++;
    }
    if (requestFinished(r)) {
        r.finishTime = clock;
        kv.release(static_cast<std::int64_t>(idx));
        remaining--;
        if (flow_trace)
            releaseSlot(idx);
    } else {
        running.push_back(idx);
    }
}

std::size_t
Engine::RunState::spfSlot(std::size_t idx, bool after_equal) const
{
    const auto first = waiting.begin();
    const auto last = first + static_cast<std::ptrdiff_t>(spf_sorted);
    const auto shorter = [this](std::size_t a, std::size_t b) {
        return trace[a].inputLen < trace[b].inputLen;
    };
    const auto pos = after_equal
                         ? std::upper_bound(first, last, idx, shorter)
                         : std::lower_bound(first, last, idx, shorter);
    return static_cast<std::size_t>(pos - first);
}

void
Engine::RunState::spfAbsorbArrivals()
{
    // Shortest-prompt-first: move each newly arrived request into the
    // sorted prefix after its equal keys, in arrival order, exactly
    // where a stable_sort of the arrived prefix would put it.
    if (eng.config_.schedPolicy != SchedPolicy::ShortestPromptFirst)
        return;
    while (spf_sorted < waiting.size() &&
           trace[waiting[spf_sorted]].arrival <= clock) {
        const std::size_t pos = spfSlot(waiting[spf_sorted], true);
        const auto first = waiting.begin();
        std::rotate(first + static_cast<std::ptrdiff_t>(pos),
                    first + static_cast<std::ptrdiff_t>(spf_sorted),
                    first + static_cast<std::ptrdiff_t>(spf_sorted + 1));
        spf_sorted++;
    }
}

void
Engine::RunState::requeue(std::size_t idx)
{
    // A preempted request goes back to the front: under SPF, the front
    // of its equal keys, so a run of requeues lands last-requeued
    // first, as a stable_sort of the pushed-front queue would order
    // it. Offsets, not iterators: deque::insert invalidates them.
    if (eng.config_.schedPolicy != SchedPolicy::ShortestPromptFirst) {
        waiting.push_front(idx);
        return;
    }
    const std::size_t pos = spfSlot(idx, false);
    waiting.insert(waiting.begin() + static_cast<std::ptrdiff_t>(pos),
                   idx);
    spf_sorted++;
}

void
Engine::RunState::admitArrived()
{
    // Admission: arrived requests into free slots, KV permitting.
    while (!waiting.empty()) {
        const Request &r = trace[waiting.front()];
        const auto seq = static_cast<std::int64_t>(waiting.front());
        const bool slot_free =
            static_cast<int>(running.size() + prefill_queue.size()) <
            eng.config_.maxDecodeBatch;
        if (r.arrival > clock || !slot_free ||
            !kv.canGrow(seq, reserveTokens(r))) {
            break;
        }
        kv.grow(seq, reserveTokens(r));
        prefill_queue.push_back(waiting.front());
        waiting.pop_front();
        if (spf_sorted > 0)
            spf_sorted--;
    }
}

void
Engine::RunState::monolithicPrefillStep()
{
    // Monolithic prefill of one request (stalls decodes).
    const std::size_t idx = prefill_queue.front();
    prefill_queue.pop_front();
    Request &r = trace[idx];
    if (flow_trace)
        flowAdmit(idx);
    const int bucket = (r.inputLen + 63) / 64 * 64;
    const StepCost sc = eng.step(1, bucket, bucket, true);
    record(EngineEvent::Kind::Prefill, clock, sc.t, 0, r.inputLen);
    if (tl)
        tlBusy(sc);
    clock += sc.t;
    finishPrefill(idx);
}

void
Engine::RunState::idleJump()
{
    // Idle: jump to the next arrival.
    vassert(!waiting.empty(), "deadlock: nothing running or waiting");
    clock = std::max(clock, trace[waiting.front()].arrival);
}

void
Engine::RunState::preemptScan()
{
    // Grow KV for every decoding sequence, newest to oldest; preempt
    // each one whose growth fails, to recompute it later.
    // Preemptions happen at the current clock, which may sit past an
    // unclosed window boundary (the scan precedes the step's record);
    // closing here keeps them attributed to the right window.
    if (tl)
        tlAdvance(clock);
    for (std::size_t k = running.size(); k-- > 0;) {
        Request &r = trace[running[k]];
        if (!kv.grow(static_cast<std::int64_t>(running[k]),
                     r.inputLen + r.generated + 1)) {
            if (flow_trace) {
                flowSpan(r, "decode (preempted)",
                         kLaneSlot0 + slot_of[running[k]],
                         phase_start[running[k]]);
                releaseSlot(running[k]);
                episodes[running[k]]++;
                phase_start[running[k]] = clock;
            }
            kv.release(static_cast<std::int64_t>(running[k]));
            last_preempted = running[k];
            r.generated = 0;
            r.prefilled = false;
            r.prefillProgress = 0;
            requeue(running[k]);
            running.erase(running.begin() +
                          static_cast<std::ptrdiff_t>(k));
            m.preemptions++;
            if (tl)
                tl->add(g_preempt, 1);
        }
    }
}

void
Engine::RunState::decodeChunkStep(bool has_chunk)
{
    StepCost dc{};
    if (!running.empty()) {
        std::int64_t ctx_sum = 0;
        for (auto i : running)
            ctx_sum += trace[i].inputLen + trace[i].generated;
        const std::int64_t mean_ctx =
            ctx_sum / static_cast<std::int64_t>(running.size());
        dc = eng.step(static_cast<int>(running.size()), 1,
                      (mean_ctx + 63) / 64 * 64, false);
    }
    const Seconds decode_time = dc.t;

    StepCost pc{};
    int chunk = 0;
    std::size_t chunk_idx = 0;
    if (has_chunk) {
        chunk_idx = prefill_queue.front();
        Request &r = trace[chunk_idx];
        // First chunk of this prefill episode: the request leaves
        // the queue lane and takes a slot.
        if (flow_trace && slot_of[chunk_idx] < 0)
            flowAdmit(chunk_idx);
        chunk = std::min(eng.config_.chunkedPrefillTokens,
                         r.inputLen - r.prefillProgress);
        // The chunk alone; the step below overlaps it with the decode.
        const int bucket = (chunk + 63) / 64 * 64;
        pc = eng.step(1, bucket,
                      std::max<std::int64_t>(
                          bucket, (r.prefillProgress + 255) / 256 * 256),
                      true);
    }
    const Seconds chunk_time = pc.t;

    // Compute-bound prefill chunks overlap with memory-bound
    // decode steps on real hardware; charge the longer plus a
    // small serialization tax.
    Seconds step;
    EngineEvent::Kind kind;
    if (decode_time > 0 && chunk_time > 0) {
        step = std::max(decode_time, chunk_time) +
               0.15 * std::min(decode_time, chunk_time);
        kind = EngineEvent::Kind::Mixed;
    } else if (chunk_time > 0) {
        step = chunk_time;
        kind = EngineEvent::Kind::Prefill;
    } else {
        step = decode_time;
        kind = EngineEvent::Kind::Decode;
    }
    record(kind, clock, step, static_cast<int>(running.size()), chunk);
    if (tl) {
        // Both halves of a mixed step overlap within it; their busy
        // times charge the same window (pc is zero when no chunk ran).
        tlBusy(dc);
        tlBusy(pc);
    }
    clock += step;

    if (has_chunk) {
        Request &r = trace[chunk_idx];
        r.prefillProgress += chunk;
        if (r.prefillProgress >= r.inputLen) {
            prefill_queue.pop_front();
            finishPrefill(chunk_idx);
        }
    }

    if (!running.empty()) {
        batch_sum += static_cast<double>(running.size());
        decode_steps++;
        for (std::size_t k = running.size(); k-- > 0;) {
            Request &r = trace[running[k]];
            r.generated++;
            if (r.generated > delivered[running[k]]) {
                delivered[running[k]] = r.generated;
                generated_total++;
            } else {
                recomputed++;
            }
            if (requestFinished(r)) {
                r.finishTime = clock;
                if (r.outputLen > 1) {
                    m.tpot.add((r.finishTime - r.firstTokenTime) /
                               (r.outputLen - 1));
                }
                if (flow_trace) {
                    flowSpan(r, "decode",
                             kLaneSlot0 + slot_of[running[k]],
                             phase_start[running[k]]);
                    releaseSlot(running[k]);
                }
                kv.release(static_cast<std::int64_t>(running[k]));
                running.erase(running.begin() +
                              static_cast<std::ptrdiff_t>(k));
                remaining--;
            }
        }
    }
}

void
Engine::RunState::fullIteration()
{
    spfAbsorbArrivals();
    admitArrived();

    const bool chunked = eng.config_.chunkedPrefillTokens > 0;

    if (!chunked && !prefill_queue.empty()) {
        monolithicPrefillStep();
        return;
    }

    const bool has_decodes = !running.empty();
    const bool has_chunk = chunked && !prefill_queue.empty();

    if (!has_decodes && !has_chunk) {
        idleJump();
        return;
    }

    // has_chunk is latched before the scan; preemption never touches
    // prefill_queue, so the latch is stable (engine_run.h).
    preemptScan();
    if (running.empty() && !has_chunk)
        return;

    decodeChunkStep(has_chunk);
}

ServingMetrics
Engine::RunState::finalize()
{
    m.makespan = clock;
    m.throughputTokensPerSec =
        static_cast<double>(generated_total) / clock;
    m.meanTtft = m.ttft.mean();
    m.p99Ttft = m.ttft.percentile(99);
    m.meanTpot = m.tpot.mean();
    m.completed = static_cast<int>(trace.size());
    m.avgDecodeBatch =
        decode_steps ? batch_sum / static_cast<double>(decode_steps)
                     : 0;

    // Device counters: each memoized step once, in key order, with the
    // number of times this run took it; the counts restart at zero.
    {
        obs::SelfTimer self(obs::SelfCat::KernelEval);
        for (auto &[key, e] : eng.steps_)
            if (e.calls > 0)
                models::LlamaModel::foldStep(e.graphs,
                                             std::exchange(e.calls, 0));
    }

    // Step telemetry, published once: each add/set carries the number
    // of per-step updates it stands for, so value, peak and update
    // count equal per-step publication (integer sums are exact).
    c_steps.add(static_cast<double>(steps), steps);
    c_prefill_tok.add(static_cast<double>(prefill_tokens), steps);
    c_decode_tok.add(static_cast<double>(decode_tokens), steps);
    c_preempt.add(m.preemptions,
                  static_cast<std::uint64_t>(m.preemptions));
    c_recomputed.add(static_cast<double>(recomputed), recomputed);
    if (steps > 0) {
        c_kv_in_use.set(static_cast<double>(kv_max), steps - 1);
        c_kv_in_use.set(static_cast<double>(kv_last), 1);
    }

    // End-of-run serving gauges (last run wins; peak keeps the best).
    auto &registry = obs::CounterRegistry::instance();
    registry.counter("engine.throughput_tokens_per_sec")
        .set(m.throughputTokensPerSec);
    registry.counter("engine.mean_ttft_seconds").set(m.meanTtft);
    registry.counter("engine.p99_ttft_seconds").set(m.p99Ttft);
    registry.counter("engine.mean_tpot_seconds").set(m.meanTpot);
    registry.counter("engine.avg_decode_batch").set(m.avgDecodeBatch);

    // The latency histograms and the timeline are order-dependent
    // shared state, so they travel back in the result; the caller
    // lands them with publish() after its sweep.
    if (tl)
        tlFinish();
    return std::move(m);
}

void
publish(const ServingMetrics &m)
{
    auto &reg = obs::CounterRegistry::instance();
    reg.histogram("engine.ttft_seconds").merge(m.ttft);
    reg.histogram("engine.tpot_seconds").merge(m.tpot);
    if (m.timeline)
        obs::Timeline::instance().publishRun(m.timelineLabel,
                                             *m.timeline);
}

ServingMetrics
Engine::run(std::vector<Request> trace)
{
    vassert(!trace.empty(), "empty trace");
    // Engine-loop self time; the kernel-eval timers nested inside the
    // step memo subtract themselves out (see obs/selfprof.h).
    obs::SelfTimer self(obs::SelfCat::EngineStep);
    std::sort(trace.begin(), trace.end(),
              [](const Request &a, const Request &b) {
                  return a.arrival < b.arrival;
              });
    events_.clear();

    RunState st(*this, trace);
    // A request whose worst-case KV exceeds the whole pool can never
    // finish: it is either never admitted or preempted forever. And
    // before a run delivers its next new token it at most re-prefills
    // and re-decodes tokens it already delivered, so a run that goes
    // the trace's prompt and output tokens, plus one iteration per
    // request, without one re-admits preempted requests into the same
    // KV shortage forever.
    std::int64_t bound = 0;
    for (const Request &r : trace) {
        const std::int64_t need = std::max<std::int64_t>(
            st.reserveTokens(r),
            static_cast<std::int64_t>(r.inputLen) + r.outputLen);
        vassert(st.kv.blocksFor(need) <= st.kv.totalBlocks(),
                "request %lld needs %lld KV tokens (inputLen %d + "
                "outputLen %d) but kvCacheBytes=%llu holds %lld blocks "
                "of %s=%d tokens",
                static_cast<long long>(r.id),
                static_cast<long long>(need), r.inputLen, r.outputLen,
                static_cast<unsigned long long>(config_.kvCacheBytes),
                static_cast<long long>(st.kv.totalBlocks()),
                st.paged ? "blockTokens" : "maxModelLen",
                kvBlockTokens(config_));
        bound += static_cast<std::int64_t>(r.inputLen) + r.outputLen + 1;
    }
    std::int64_t stalled = 0;
    for (std::int64_t delivered = 0; st.remaining > 0;
         delivered = st.generated_total) {
        st.fullIteration();
        stalled = st.generated_total == delivered ? stalled + 1 : 0;
        const Request &r = trace[st.last_preempted];
        vassert(stalled <= bound,
                "engine made no progress in %lld iterations: request "
                "%lld (inputLen %d, outputLen %d) is preempted and "
                "re-admitted without delivering a token; kvCacheBytes="
                "%llu (%lld blocks) under schedPolicy=%s cannot hold its "
                "running set",
                static_cast<long long>(stalled),
                static_cast<long long>(r.id), r.inputLen, r.outputLen,
                static_cast<unsigned long long>(config_.kvCacheBytes),
                static_cast<long long>(st.kv.totalBlocks()),
                config_.schedPolicy == SchedPolicy::Fcfs
                    ? "Fcfs"
                    : "ShortestPromptFirst");
    }
    return st.finalize();
}

} // namespace vespera::serve
