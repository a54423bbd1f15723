/**
 * @file
 * Continuous-batching LLM serving engine (the vLLM substitute used for
 * Figure 17(d,e)).
 *
 * Iteration-level scheduling in the ORCA/vLLM style: each engine step
 * either prefills one admitted request or decodes one token for every
 * running request. KV blocks are allocated on demand from a
 * PagedKvCache; when the pool runs dry, the decode scan preempts and
 * re-queues, newest to oldest, each running request whose growth
 * fails. Step latencies come from the LlamaModel's graph execution
 * with the configured attention backend.
 *
 * Step costs are memoized per engine in one plain map: a decode run
 * revisits the same few buckets thousands of times, and a map hit is
 * far cheaper than even a step replay-cache hit (docs/runtime.md). A
 * miss evaluates the step and a hit counts the call; the run's end
 * charges each entry once, in key order, with its call count, so
 * device counters count executed steps at any thread count. Like the
 * replay caches, the memo steps aside while the Profiler traces, so
 * each traced step is charged at once and samples its counter tracks.
 */

#ifndef VESPERA_SERVE_ENGINE_H
#define VESPERA_SERVE_ENGINE_H

#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "models/llama.h"
#include "obs/hist.h"
#include "obs/timeline.h"
#include "serve/kv_cache.h"
#include "serve/trace.h"

namespace vespera::serve {

/** Admission-order policy for waiting requests. */
enum class SchedPolicy {
    Fcfs,                ///< First come, first served.
    ShortestPromptFirst, ///< Among arrived requests, prefill the
                         ///< shortest prompt first (lower mean TTFT,
                         ///< at some fairness cost).
};

/** KV-cache allocation policy. */
enum class KvPolicy {
    Paged,      ///< vLLM block-based on-demand allocation.
    Contiguous, ///< Reserve max-model-length per admitted request
                ///< (the fragmentation-prone pre-vLLM baseline).
};

/** Engine configuration (Figure 17(d,e) sweeps maxDecodeBatch). */
struct EngineConfig
{
    DeviceKind device = DeviceKind::Gaudi2;
    /// Maximum decode-stage batch size.
    int maxDecodeBatch = 64;
    int tpDevices = 1;
    models::AttentionBackend attention =
        models::AttentionBackend::VllmOpt;
    /// HBM reserved for the KV cache (per device).
    Bytes kvCacheBytes = 40ull << 30;
    int blockTokens = 128;
    KvPolicy kvPolicy = KvPolicy::Paged;
    SchedPolicy schedPolicy = SchedPolicy::Fcfs;
    /// Tokens reserved per request under the Contiguous policy.
    std::int64_t maxModelLen = 4096;
    /// When nonzero, prefills are split into chunks of this many
    /// tokens and co-scheduled with the decode batch (vLLM's chunked
    /// prefill): long prompts no longer stall running decodes, at the
    /// cost of slightly later first tokens for the prefilling request.
    int chunkedPrefillTokens = 0;
    /// Record per-step engine events (see events()).
    bool recordEvents = false;
    DataType dt = DataType::BF16;
    /// Label for this engine's virtual-time timeline series
    /// (obs/timeline.h) when the Timeline is enabled; empty means the
    /// Timeline assigns a deterministic "runN" label at publish.
    std::string timelineLabel;
};

/**
 * Cost of one engine step, harvested from the model's
 * graph::ExecutionReport: the step latency plus the per-unit busy
 * times the timeline layer turns into windowed utilization gauges.
 */
struct StepCost
{
    Seconds t = 0;        ///< Step latency (what the clock advances by).
    Seconds mmeBusy = 0;  ///< Matrix-engine busy time within the step.
    Seconds tpcBusy = 0;  ///< Vector-engine busy time within the step.
    double hbmBytes = 0;  ///< HBM traffic of the step.
};

/** One engine iteration, for profiling/visualization. */
struct EngineEvent
{
    enum class Kind { Prefill, Decode, Mixed };
    Kind kind = Kind::Decode;
    Seconds start = 0;
    Seconds duration = 0;
    int decodeBatch = 0;
    int prefillTokens = 0;
};

/**
 * Serving-level metrics (Figure 17(d,e) y-axes), plus the run's
 * order-dependent telemetry. A run never writes its latency histograms
 * or timeline into shared state; publish() does, on the caller's
 * serial path, so a parallel sweep publishes its points in index order
 * after the join and the registry comes out the same at any thread
 * count.
 */
struct ServingMetrics
{
    Seconds makespan = 0;
    double throughputTokensPerSec = 0; ///< Generated tokens / makespan.
    Seconds meanTtft = 0;              ///< Mean time-to-first-token.
    Seconds meanTpot = 0;              ///< Mean time-per-output-token.
    Seconds p99Ttft = 0;
    int completed = 0;
    int preemptions = 0;
    double avgDecodeBatch = 0; ///< Mean running batch per decode step.
    /// Streaming latency distributions (fixed memory at any trace
    /// length); publish() merges them into engine.{ttft,tpot}_seconds.
    obs::Histogram ttft, tpot;
    /// The run's virtual-time series, present when the Timeline was
    /// enabled; publish() lands them under timelineLabel.
    std::optional<obs::TimelineRunData> timeline;
    std::string timelineLabel;
};

/**
 * Land one run's histograms and timeline in the process-wide registry
 * and Timeline. Serial path only: call it after a sweep, once per run,
 * in sweep-index order.
 */
void publish(const ServingMetrics &m);

/** The engine. */
class Engine
{
  public:
    Engine(const models::LlamaModel &model, EngineConfig config);

    /** Simulate serving the trace to completion. */
    ServingMetrics run(std::vector<Request> trace);

    /** Per-step events of the last run (if recordEvents was set). */
    const std::vector<EngineEvent> &events() const { return events_; }

    /**
     * HBM bytes left for KV after model weights on this device; the
     * constructor clamps kvCacheBytes to it.
     */
    Bytes kvBudget() const { return kvBudget_; }

  private:
    /** One step, with stepEval's arguments, through the step memo. */
    StepCost step(int batch, int tokens_per_request, std::int64_t ctx,
                  bool prefill);

    /**
     * Mutable state of one run() plus the scheduler phases. Defined in
     * serve/engine_run.h (internal header).
     */
    struct RunState;

    const models::LlamaModel &model_;
    EngineConfig config_;
    models::LlamaServingConfig servingCfg_;
    /// A step's cost, its graphs' per-node costs, and this run's calls.
    struct StepEntry
    {
        StepCost cost;
        std::vector<std::vector<graph::OpCost>> graphs;
        std::uint64_t calls = 0;
    };
    /// The step memo, keyed by stepEval's arguments.
    std::map<std::tuple<int, int, std::int64_t, bool>, StepEntry> steps_;
    std::vector<EngineEvent> events_;
    Bytes kvBudget_ = 0;
};

} // namespace vespera::serve

#endif // VESPERA_SERVE_ENGINE_H
