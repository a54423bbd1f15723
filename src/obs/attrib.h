/**
 * @file
 * Cycle-attribution ledger: *why* simulated time was spent.
 *
 * PR 1's spans and counters record that a kernel took N simulated
 * seconds; the paper's analytical core (Figs. 4-9, §IV) instead argues
 * about *composition* — how much of a GEMM was MAC-array compute vs
 * exposed HBM stall vs launch/reconfigure overhead. This ledger gives
 * every device model a place to charge each op's wall time to the
 * category taxonomy below, with a hard invariant: the categories of
 * one op sum bitwise-exactly to the op's wall time (ctest-enforced on
 * the full Fig. 5 GEMM sweep).
 *
 * Two outputs:
 *  - Aggregate per-scope totals, published as capture-aware counters
 *    `attrib.<scope>.<category>` (plus `attrib.<scope>.ops`), exported
 *    as the structured "attribution" section of vespera-metrics/v2.
 *    These follow the counter determinism contract (docs/runtime.md)
 *    with no extra machinery.
 *  - Optional per-op attributed spans on dedicated Device lanes of the
 *    process profiler (only when tracing is enabled), so a Perfetto
 *    view shows the op sequence per engine. Models are stateless cost
 *    functions with no global clock, so these lanes are
 *    *op-sequential*: each scope's ops are laid end to end from t=0 in
 *    charge order, not aligned to an engine/sweep timeline.
 *
 * Determinism: aggregate charges ride the normal Counter::add capture
 * path, so the `attrib.*` counters are bit-identical at any thread
 * count. Per-op spans are recorded at charge time, under the ledger
 * mutex: at one thread that is the serial op order; parallel sweep
 * workers append in the order they charge, which is fine because the
 * trace file (wall-time host spans included) is outside the
 * determinism contract.
 */

#ifndef VESPERA_OBS_ATTRIB_H
#define VESPERA_OBS_ATTRIB_H

#include <array>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace vespera::obs {

class Counter;

/** Where one op's simulated time went. */
enum class AttribCat : int {
    Compute = 0,    ///< Useful engine work (MAC array, vector ALU busy).
    MemoryBw = 1,   ///< Bandwidth-bound stall exposed beyond compute.
    ExposedLat = 2, ///< Unhidden fixed latency (launch, access ramp).
    Reconfig = 3,   ///< Geometry/pipeline reconfiguration penalty.
    Idle = 4,       ///< Allocated-but-unused engine time (slot imbalance).
};

inline constexpr int kAttribCats = 5;

/** Stable dotted-name component for each category. */
const char *attribCatName(AttribCat cat);

/**
 * One op's time split across categories. Plain value type; the model
 * fills in the components it can derive and then calls settle() to
 * absorb floating-point residue so the parts sum bitwise to the op's
 * wall time.
 */
struct AttribBreakdown
{
    std::array<double, kAttribCats> seconds{};

    double &operator[](AttribCat cat)
    {
        return seconds[static_cast<std::size_t>(cat)];
    }
    double operator[](AttribCat cat) const
    {
        return seconds[static_cast<std::size_t>(cat)];
    }

    /** Fixed-order sum (deterministic bits). */
    double sum() const;

    /**
     * Make sum() reproduce `total`. The `residual` category is set to
     * total minus the others (clamped at 0); any remaining fp residue
     * is folded into the largest component and refined by ulps.
     * Bitwise whenever `total` derives from sums of the components —
     * every model path; property-tested — and within one ulp for
     * rounding-adversarial totals (tie-to-even can make the exact bits
     * unreachable; an assert guards anything worse). Components must
     * already be non-negative and their sum ~<= total. Downstream, the
     * ledger invariant is unconditional: AttributedSpan::duration is
     * *defined* as the settled sum.
     */
    void settle(AttribCat residual, Seconds total);
};

/** One attributed op, as stored for tests/exporters. */
struct AttributedSpan
{
    int scope = 0;          ///< Scope id from AttributionLedger::scope().
    std::string name;       ///< Op label ("gemm 4096x4096x4096 bf16").
    Seconds start = 0;      ///< Op-sequential lane time, not sim time.
    Seconds duration = 0;   ///< == breakdown.sum(), bitwise.
    AttribBreakdown breakdown;
};

/**
 * Process-wide attribution sink. Scopes ("mme", "tc", "tpc", "hbm")
 * register once and charge per-op breakdowns; see file comment for
 * the two outputs and the determinism story.
 */
class AttributionLedger
{
  public:
    static AttributionLedger &instance();

    AttributionLedger() = default;
    AttributionLedger(const AttributionLedger &) = delete;
    AttributionLedger &operator=(const AttributionLedger &) = delete;

    /// First profiler Device lane used for attribution scopes (serve
    /// tracing owns lanes 1-5; engine request-flow lanes start at 31).
    static constexpr int kFirstLane = 6;

    /**
     * Register (or look up) a scope by name; cheap to call per op but
     * models should cache the id. Pre-creates the scope's
     * `attrib.<name>.*` counters so they exist even before any charge.
     */
    int scope(const std::string &name);

    /**
     * Charge `n` runs of one op. `b` must be settled (duration :=
     * b.sum()). Aggregates go to the scope's counters (capture-aware)
     * as `n` updates of n times one run; when the process profiler is
     * enabled, also appends `n` AttributedSpans and matching profiler
     * Device-lane spans, at once.
     */
    void charge(int scopeId, std::string opName, const AttribBreakdown &b,
                std::uint64_t n = 1);

    /** Stored per-op spans (tracing-enabled runs only). */
    std::vector<AttributedSpan> records() const;

    /** Registered scope names, id-ordered. */
    std::vector<std::string> scopeNames() const;

    /** Drop per-op spans and lane cursors (counters are untouched). */
    void clearRecords();

  private:
    struct Scope
    {
        std::string name;
        int lane = 0;
        Seconds cursor = 0; ///< Next op's lane start.
        std::array<Counter *, kAttribCats> cats{};
        Counter *ops = nullptr;
    };

    mutable std::mutex mu_;
    std::vector<Scope> scopes_;
    std::vector<AttributedSpan> records_;
};

} // namespace vespera::obs

#endif // VESPERA_OBS_ATTRIB_H
