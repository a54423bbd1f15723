/**
 * @file
 * Host-side self-time attribution: *where the simulator's own wall
 * clock goes*, the second clock of the two-clock model
 * (docs/observability.md).
 *
 * The AttributionLedger (obs/attrib.h) explains simulated cycles; this
 * ledger mirrors its discipline on the simulator's wall-clock
 * nanoseconds, so engine and memoization changes can be measured
 * before and after. A fixed taxonomy —
 * kernel_eval, trace_record, graph_build, engine_step, alloc,
 * telemetry_export, host_data, other — with three guarantees:
 *
 *  - Bitwise sum-to-total: ledgers accumulate integer nanoseconds, so
 *    totalNs() is an exact fixed-order sum and settle() makes the
 *    categories reproduce an observation window bit-for-bit — no
 *    floating-point residue to absorb (the harder half of
 *    AttribBreakdown::settle is unnecessary by construction).
 *  - Deterministic merge: every hook applies at once under one lock,
 *    from any thread. Integer sums and set inserts commute, so
 *    call/alloc counts and bytes are byte-identical at any thread
 *    count (wall times themselves are inherently machine- and
 *    run-dependent).
 *  - Disabled cost: a SelfTimer on a disabled profile is one relaxed
 *    atomic load, the same contract as obs::Profiler::enabled() —
 *    ctest-enforced at <1% of a single MME GEMM costing.
 *
 * Self-time semantics: nested timers never double-count. Each timer
 * subtracts its children's elapsed time before charging, so within one
 * thread the charged categories partition the instrumented wall time
 * exactly; settle() pours the uninstrumented remainder into `other`.
 *
 * Also here: allocation observability (counting hooks on the hot-path
 * containers report bytes/count per category, attributed to the
 * innermost active timer) and the pre-wired kernel-eval cache counters
 * (`selfprof.kernel_eval.{hits,misses,key_count}`) that item 2's
 * replay cache will land against.
 *
 * Exported as the optional "host" section of vespera-metrics/v2.1
 * (bench --selfprof) and as counter tracks on the Host group of the
 * Perfetto trace. The section is opt-in because its wall times are
 * machine-dependent and the replay caches' hit/miss split varies with
 * --threads (concurrent sweep points race to fill the shared caches);
 * the engine's own step-memo split is a pure function of the
 * schedule. The core metrics document stays byte-identical at any
 * thread count (docs/runtime.md).
 */

#ifndef VESPERA_OBS_SELFPROF_H
#define VESPERA_OBS_SELFPROF_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>

namespace vespera::obs {

/** Where the simulator's own wall time went. */
enum class SelfCat : int {
    KernelEval = 0,      ///< Kernel/graph cost-model evaluation.
    TraceRecord = 1,     ///< TPC instruction-trace recording.
    GraphBuild = 2,      ///< Step-graph construction.
    EngineStep = 3,      ///< Serving-engine scheduling loop.
    Alloc = 4,           ///< Container growth outside any timer.
    TelemetryExport = 5, ///< Metrics/trace serialization + write.
    HostData = 6,        ///< Kernel data set-up and functional checks.
    Other = 7,           ///< Uninstrumented remainder (settle()).
};

inline constexpr int kSelfCats = 8;

/** Stable dotted-name component for each category. */
const char *selfCatName(SelfCat cat);

/**
 * One accumulation of self time + allocation telemetry. Plain value
 * type; all fields are integers, so merge order cannot change any
 * result — the determinism story needs no floating-point care.
 */
struct SelfLedger
{
    /// Self time (children subtracted) per category, nanoseconds.
    std::array<std::uint64_t, kSelfCats> ns{};
    /// Completed SelfTimer scopes per category.
    std::array<std::uint64_t, kSelfCats> calls{};
    /// Container-growth bytes attributed to each category.
    std::array<std::uint64_t, kSelfCats> allocBytes{};
    /// Container-growth events attributed to each category.
    std::array<std::uint64_t, kSelfCats> allocCount{};

    /** Fixed-order sum of category nanoseconds (exact). */
    std::uint64_t totalNs() const;

    /** Fold `other` in (integer adds; order-independent). */
    void merge(const SelfLedger &other);

    /**
     * Absorb the uncategorized part of an observation window into
     * `Other`: afterwards totalNs() == max(windowNs, categorized)
     * bitwise. Categorized time can exceed the wall window when
     * workers charged in parallel; nothing is then absorbed.
     */
    void settle(std::uint64_t windowNs);
};

/** settle()d ledger plus the window and cache counters it closed over. */
struct SelfSnapshot
{
    SelfLedger ledger;
    /// Wall nanoseconds from enable (or reset) to settle.
    std::uint64_t windowNs = 0;
    /// @name selfprof.kernel_eval.* — step-cost cache telemetry.
    /// @{
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheKeyCount = 0; ///< Distinct keys ever looked up.
    /// @}
};

/**
 * Process-wide self-profile sink. Disabled by default; every hook
 * checks enabled() (one relaxed atomic load) first, so instrumented
 * hot paths cost nothing when no one asked (--selfprof asks).
 */
class SelfProf
{
  public:
    /// Inline, so a hot path's disabled check (instance().enabled())
    /// is two loads and no call: Program::append makes it once per
    /// recorded instruction.
    static SelfProf &
    instance()
    {
        static SelfProf prof;
        return prof;
    }

    SelfProf() = default;
    SelfProf(const SelfProf &) = delete;
    SelfProf &operator=(const SelfProf &) = delete;

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Enabling (re)opens the observation window settle() closes. */
    void setEnabled(bool on);

    /** Charge `ns` of self time to `cat` (normally via SelfTimer). */
    void charge(SelfCat cat, std::uint64_t ns);

    /**
     * Record one container-growth event, attributed to the innermost
     * active SelfTimer's category on this thread (SelfCat::Alloc when
     * none).
     */
    void recordAlloc(std::uint64_t bytes);

    /** recordAlloc with an explicit category. */
    void recordAlloc(SelfCat cat, std::uint64_t bytes);

    /// @name Kernel-eval cache counters (`selfprof.kernel_eval.*`).
    /// The key identifies one memoizable evaluation —
    /// kernel×shape×device×granularity — fed by the engine's step
    /// memo and the replay caches (graph/replay_cache.h). These live
    /// here, not in the CounterRegistry: the replay caches' hit/miss
    /// split varies with --threads (concurrent sweep points share
    /// them), so they must stay out of the deterministic "counters"
    /// section.
    /// @{
    void cacheHit(const std::string &key);
    void cacheMiss(const std::string &key);
    /// @}

    /** Current totals without closing the window. */
    SelfSnapshot snapshot() const;

    /**
     * Close the window: settle the uninstrumented remainder into
     * Other and return the result. The invariant every --selfprof
     * bench export carries: ledger.totalNs() is the bitwise
     * fixed-order sum of the category ns — integers, so it holds at
     * any thread count. Call from the serial path only.
     */
    SelfSnapshot settle();

    /** Zero all state and reopen the window. Serial path only. */
    void reset();

    /** Innermost active SelfTimer's category on this thread. */
    static SelfCat currentCat();

  private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    SelfLedger ledger_;
    std::uint64_t cacheHits_ = 0;
    std::uint64_t cacheMisses_ = 0;
    std::set<std::string> cacheKeys_;
    std::chrono::steady_clock::time_point windowStart_{};
};

/**
 * RAII self-time scope. Disabled-profile cost: one relaxed load, no
 * clock read. Enabled: reads the clock twice and charges elapsed
 * minus children to `cat`; the parent timer (same thread) absorbs
 * this scope's full elapsed time into its child total, so nesting —
 * including same-category nesting like runGemm inside stepReport —
 * never double-counts a nanosecond.
 */
class SelfTimer
{
  public:
    explicit SelfTimer(SelfCat cat);
    ~SelfTimer();

    SelfTimer(const SelfTimer &) = delete;
    SelfTimer &operator=(const SelfTimer &) = delete;

  private:
    friend class SelfProf;

    SelfCat cat_;
    bool active_ = false;
    std::uint64_t childNs_ = 0;
    SelfTimer *parent_ = nullptr;
    std::chrono::steady_clock::time_point begin_{};
};

/**
 * Inline hook for the hot-path containers: call with the vector's
 * capacity from *before* a push_back; records the growth (if any) as
 * one allocation event on the current category. The enabled() check
 * belongs to the caller so the disabled path never reads capacity().
 */
template <typename Vec>
inline void
selfRecordGrowth(const Vec &v, std::size_t capBefore)
{
    if (v.capacity() == capBefore)
        return;
    // Arena-backed growth (mem::ArenaAllocator with a bound arena) is
    // a pointer bump, not heap traffic — the arena's chunk hook
    // reports the real allocations, so skip it here to keep the alloc
    // columns honest about malloc churn.
    if constexpr (requires(const Vec &vec) {
                      vec.get_allocator().arena();
                  }) {
        if (v.get_allocator().arena() != nullptr)
            return;
    }
    SelfProf::instance().recordAlloc(
        (v.capacity() - capBefore) * sizeof(typename Vec::value_type));
}

} // namespace vespera::obs

#endif // VESPERA_OBS_SELFPROF_H
