/**
 * @file
 * Internal: per-run state of Engine::run().
 *
 * A RunState holds the mutable state of one run plus one method per
 * scheduler phase; Engine::run() calls fullIteration() until every
 * request has finished.
 *
 * Phase order of one iteration (fullIteration()) — this order is
 * load-bearing:
 *
 *   1. spfSort()               reorder arrived waiting prefix
 *   2. admitArrived()          waiting -> prefill_queue, KV permitting
 *   3. monolithicPrefillStep() when !chunked and queue nonempty (then
 *                              the iteration ends)
 *   4. idleJump()              nothing runnable: clock jumps to the
 *                              next arrival (then the iteration ends)
 *   5. preemptScan()           KV growth; preempt newest on exhaustion
 *   6. decodeChunkStep()       the decode batch + optional co-run
 *                              prefill chunk, telemetry, bookkeeping
 *
 * `has_chunk` is latched BEFORE preemptScan() (step 5 never touches
 * prefill_queue, so the latch is stable).
 *
 * This header is internal to src/serve; public consumers use
 * serve/engine.h.
 */

#ifndef VESPERA_SERVE_ENGINE_RUN_H
#define VESPERA_SERVE_ENGINE_RUN_H

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <vector>

#include "obs/counters.h"
#include "obs/hist.h"
#include "obs/profiler.h"
#include "obs/timeline.h"
#include "serve/engine.h"
#include "serve/kv_cache.h"

namespace vespera::serve {

struct Engine::RunState
{
    /** Builds KV pool, queues, counters, and flow-trace lanes. */
    RunState(Engine &engine, std::vector<Request> &reqs);

    /// @name Scheduler phases (see file comment for the order).
    /// @{
    void spfSort();
    void admitArrived();
    void monolithicPrefillStep();
    void idleJump();
    void preemptScan();
    void decodeChunkStep(bool has_chunk);
    /** One iteration: phases 1-6 with the early-outs. */
    void fullIteration();
    /// @}

    /** Computes ServingMetrics and publishes end-of-run telemetry. */
    ServingMetrics finalize();

    /// @name Helpers shared by the phases.
    /// @{
    std::int64_t reserveTokens(const Request &r) const;
    bool requestFinished(const Request &r) const
    {
        return r.generated >= r.outputLen;
    }
    /** Per-step telemetry + optional EngineEvent record. */
    void record(EngineEvent::Kind kind, Seconds start, Seconds duration,
                int batch, int chunk);
    /** First token materializes (TTFT once, recompute-aware). */
    void finishPrefill(std::size_t idx);
    /// @}

    /// @name Request-lifecycle flow tracing (profiler runs only).
    /// @{
    void flowSpan(const Request &r, const char *phase, int lane,
                  Seconds start);
    void allocSlot(std::size_t idx);
    void releaseSlot(std::size_t idx);
    void flowAdmit(std::size_t idx);
    /// @}

    /// @name Virtual-time timeline hooks (obs/timeline.h). All are
    /// called from the serial scheduler path only and no-op (one
    /// branch) when the Timeline is disabled.
    /// @{
    /** Close every window whose end is <= t (boundary gauges sampled
        at the first scheduling point at or after each boundary). */
    void tlAdvance(Seconds t);
    /** Sample the boundary gauges for the window ending at `t` of
        length `len` (the final window may be partial). */
    void tlSample(Seconds t, Seconds len);
    /** Charge one step's busy time / HBM traffic to the current
        window (the window containing the step's start). */
    void tlBusy(const StepCost &c);
    /** Flush trailing windows and publish (capture-deferred). */
    void tlFinish();
    /// @}

    Engine &eng;
    std::vector<Request> &trace;

    bool paged;
    PagedKvCache kv;

    std::deque<std::size_t> waiting;
    std::deque<std::size_t> prefill_queue;
    std::vector<std::size_t> running;

    Seconds clock = 0;
    std::int64_t generated_total = 0;
    /// Streaming histograms: fixed memory at any trace length.
    obs::Histogram ttft, tpot;
    ServingMetrics m;
    double batch_sum = 0;
    std::int64_t decode_steps = 0;
    std::size_t remaining;
    /// Tokens already delivered per request (recompute must not count
    /// twice toward throughput or TTFT).
    std::vector<int> delivered;

    obs::Counter &c_steps;
    obs::Counter &c_prefill_tok;
    obs::Counter &c_decode_tok;
    obs::Counter &c_preempt;
    obs::Counter &c_recomputed;
    obs::Counter &c_kv_in_use;
    obs::Profiler &profiler;

    /// Flow tracing is skipped under an active capture (sweep worker):
    /// span order and lane cursors would depend on thread interleaving.
    bool flow_trace;
    std::vector<int> slot_of;
    std::vector<Seconds> phase_start;
    std::vector<int> episodes;
    std::set<int> free_slots;

    static constexpr int kLaneQueue = 31; ///< after attrib lanes (6..)
    static constexpr int kLaneSlot0 = 32;

    /// Windowed sampler, created only when Timeline::enabled(); null
    /// keeps every hook above down to a single branch.
    std::unique_ptr<obs::TimelineRecorder> tl;
    /// Bytes per KV block (layout-derived), for KV-occupancy gauges.
    double kv_block_bytes = 0;
    /// @name Gauge ids (dense, from TimelineRecorder::gaugeId).
    /// @{
    int g_queue = -1;       ///< queue_depth: arrived-waiting + prefill queue.
    int g_running = -1;     ///< running: decode batch size at the boundary.
    int g_kv_bytes = -1;    ///< kv_bytes_in_use at the boundary.
    int g_kv_hw = -1;       ///< kv_high_water_bytes within the window.
    int g_preempt = -1;     ///< preemptions within the window.
    int g_prefill_tok = -1; ///< prefill_tokens scheduled within the window.
    int g_decode_tok = -1;  ///< decode_tokens scheduled within the window.
    int g_goodput = -1;     ///< goodput_tokens_per_sec over the window.
    int g_ttft_p99 = -1;    ///< ttft_p99_seconds of the window's samples.
    int g_tpot_p99 = -1;    ///< tpot_p99_seconds of the window's samples.
    int g_mme_util = -1;    ///< mme_util: matrix busy / window length.
    int g_tpc_util = -1;    ///< tpc_util: vector busy / window length.
    int g_hbm_gbps = -1;    ///< hbm_gbps: HBM traffic / window length.
    /// @}
    /// @name Per-window accumulators and boundary snapshots.
    /// @{
    double w_mme = 0, w_tpc = 0, w_hbm = 0;
    std::int64_t w_goodput_base = 0;
    /// Snapshots at the previous boundary; diffed (Histogram::diff)
    /// for windowed percentiles.
    obs::Histogram ttft_prev, tpot_prev;
    /// @}
};

} // namespace vespera::serve

#endif // VESPERA_SERVE_ENGINE_RUN_H
