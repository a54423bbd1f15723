#include "analysis/static/ir.h"

#include <algorithm>

#include "common/logging.h"
#include "tpc/pipeline.h"

namespace vespera::analysis {

namespace {

/**
 * Structural signature of one instruction: everything that is stable
 * across loop iterations. SSA ids and memory offsets change per trip
 * and are deliberately excluded; the stream id is included so loads
 * from different tensors never alias into a fake period.
 */
std::uint64_t
instrSignature(const tpc::Instr &i)
{
    std::uint64_t h = 1469598103934665603ull; // FNV-1a.
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(static_cast<std::uint64_t>(i.slot));
    mix(static_cast<std::uint64_t>(i.access));
    mix(static_cast<std::uint64_t>(i.memBytes));
    mix(static_cast<std::uint64_t>(i.memStream));
    mix(static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(i.opLabel + 1)));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(i.lanes)));
    mix(static_cast<std::uint64_t>(i.flopsPerLane * 16));
    mix(i.dst >= 0 ? 1u : 0u);
    mix((i.src0 >= 0 ? 1u : 0u) | (i.src1 >= 0 ? 2u : 0u) |
        (i.src2 >= 0 ? 4u : 0u));
    return h;
}

/** One element of the sequence the periodicity scan runs over: an
 *  instruction at level 0, a collapsed region (loop) above. */
struct Item
{
    std::uint64_t sig = 0;
    std::size_t first = 0; ///< Absolute index of the first instruction.
    std::size_t len = 1;   ///< Instructions covered.
};

/**
 * Minimum repetitions to call a run of period `p` a loop: two body
 * copies in general, three for single-item bodies — two identical
 * instructions in a row are weak evidence (a prologue load next to
 * the first body load), and collapsing such a pair shifts the phase
 * of the real enclosing loop.
 */
std::size_t
minTrips(std::size_t p)
{
    return p == 1 ? 3 : 2;
}

/**
 * True when a repetition of some period smaller than `period` starts
 * strictly inside (i, i + period). The candidate match at `i` is then
 * phase-rotated over an interior loop (the classic case: an outer
 * body recovered as "S L A L A ..." starting at its trailing store,
 * swallowing the (L A) inner loop). Declining the rotated match lets
 * the interior loop collapse first; the outer periodicity re-emerges
 * over the collapsed markers at the next nesting level, in phase.
 */
bool
shadowsInteriorLoop(const std::vector<Item> &items, std::size_t i,
                    std::size_t period)
{
    const std::size_t n = items.size();
    for (std::size_t o = i + 1; o < i + period; o++) {
        for (std::size_t p = 1; p < period && o + 2 * p <= n; p++) {
            std::size_t trips = 1;
            while (o + (trips + 1) * p <= n &&
                   trips < minTrips(p)) {
                bool same = true;
                for (std::size_t k = 0; k < p; k++) {
                    if (items[o + trips * p + k].sig !=
                        items[o + k].sig) {
                        same = false;
                        break;
                    }
                }
                if (!same)
                    break;
                trips++;
            }
            if (trips >= minTrips(p))
                return true;
        }
    }
    return false;
}

/**
 * One level of loop recovery: greedily find the smallest period p at
 * each position with enough consecutive repetitions, emit a Loop
 * covering the maximal run, and collapse it into a single item.
 * Returns true when any loop was found (another level may nest).
 */
bool
detectLoopsOneLevel(std::vector<Item> &items, std::vector<Loop> &loops,
                    int depth, const LiftOptions &options)
{
    std::vector<Item> out;
    out.reserve(items.size());
    bool found_any = false;
    std::size_t i = 0;
    const std::size_t n = items.size();
    while (i < n) {
        std::size_t best_period = 0;
        std::size_t best_trips = 0;
        const std::size_t max_p =
            std::min(options.maxLoopPeriod, (n - i) / 2);
        for (std::size_t p = 1; p <= max_p; p++) {
            // Count consecutive repetitions of items[i, i+p).
            std::size_t trips = 1;
            while (i + (trips + 1) * p <= n) {
                bool same = true;
                for (std::size_t k = 0; k < p; k++) {
                    if (items[i + trips * p + k].sig !=
                        items[i + k].sig) {
                        same = false;
                        break;
                    }
                }
                if (!same)
                    break;
                trips++;
            }
            if (trips >= minTrips(p)) {
                best_period = p;
                best_trips = trips;
                break; // Smallest period wins: the true body.
            }
        }
        if (best_period > 1 &&
            shadowsInteriorLoop(items, i, best_period)) {
            best_period = 0; // Rotated match; take it next level.
        }
        if (best_period == 0) {
            out.push_back(items[i]);
            i++;
            continue;
        }
        found_any = true;
        Loop loop;
        loop.id = static_cast<std::int32_t>(loops.size());
        loop.first = items[i].first;
        loop.bodyLength = 0;
        for (std::size_t k = 0; k < best_period; k++)
            loop.bodyLength += items[i + k].len;
        loop.tripCount = static_cast<std::int64_t>(best_trips);
        loop.depth = depth;
        loops.push_back(loop);

        Item collapsed;
        // The collapsed signature folds the body signature sequence
        // and the trip count, so outer periodicity only matches runs
        // whose inner loops are structurally identical.
        std::uint64_t h = 14695981039346656037ull;
        auto mix = [&h](std::uint64_t v) {
            h ^= v;
            h *= 1099511628211ull;
        };
        mix(0x100Fu); // Loop marker.
        for (std::size_t k = 0; k < best_period; k++)
            mix(items[i + k].sig);
        mix(best_trips);
        collapsed.sig = h;
        collapsed.first = items[i].first;
        collapsed.len = loop.span();
        out.push_back(collapsed);
        i += best_period * best_trips;
    }
    items = std::move(out);
    return found_any;
}

/**
 * Drop degenerate loop records before nesting resolution: zero-trip or
 * single-iteration loops, empty bodies, and spans overrunning the
 * trace. The periodicity detector never emits them (minTrips >= 2 and
 * period >= 1 by construction), but every downstream consumer —
 * analyzeLoopDataflow here, the predictor's feature extractor — reads
 * instrs[first + trip * bodyLength + k] and would index out of range,
 * so the lifter enforces the invariant structurally instead of
 * trusting the detector. Runs before resolveNesting, while parent
 * links are still unset, so compaction needs no id remapping.
 */
void
sanitizeLoops(StaticIr &ir)
{
    const std::size_t n = ir.size();
    std::vector<Loop> kept;
    kept.reserve(ir.loops.size());
    for (const Loop &l : ir.loops) {
        if (l.tripCount < 2 || l.bodyLength == 0)
            continue;
        if (l.first >= n || l.span() > n - l.first)
            continue;
        Loop copy = l;
        copy.id = static_cast<std::int32_t>(kept.size());
        kept.push_back(copy);
    }
    ir.loops = std::move(kept);
}

/** True when loop `inner`'s full span lies inside `outer`'s span. */
bool
spanContains(const Loop &outer, const Loop &inner)
{
    return outer.first <= inner.first &&
           inner.first + inner.span() <= outer.first + outer.span();
}

void
resolveNesting(StaticIr &ir)
{
    // Parent = smallest-span loop strictly containing the child.
    // Copies of an inner loop living in a non-first iteration of their
    // parent are structural repeats of the canonical first-iteration
    // copy; drop them.
    std::vector<Loop> &loops = ir.loops;
    std::vector<char> keep(loops.size(), 1);
    for (std::size_t a = 0; a < loops.size(); a++) {
        std::int32_t parent = -1;
        std::size_t parent_span = 0;
        for (std::size_t b = 0; b < loops.size(); b++) {
            if (a == b || loops[b].span() <= loops[a].span())
                continue;
            if (!spanContains(loops[b], loops[a]))
                continue;
            // Living in a non-first iteration of ANY containing loop
            // (not just the immediate parent — the check must be
            // transitive) makes this copy a structural repeat.
            if (loops[a].first >= loops[b].first + loops[b].bodyLength)
                keep[a] = 0;
            if (parent < 0 || loops[b].span() < parent_span) {
                parent = static_cast<std::int32_t>(b);
                parent_span = loops[b].span();
            }
        }
        loops[a].parent = parent;
    }
    // Compact, remapping ids/parents.
    std::vector<std::int32_t> remap(loops.size(), -1);
    std::vector<Loop> kept;
    for (std::size_t a = 0; a < loops.size(); a++) {
        if (!keep[a])
            continue;
        remap[a] = static_cast<std::int32_t>(kept.size());
        kept.push_back(loops[a]);
    }
    for (Loop &l : kept) {
        l.id = remap[static_cast<std::size_t>(l.id)];
        // A dropped parent is impossible: a parent always contains its
        // children's first copies, and parents are dropped only when
        // they are themselves repeats — in which case the child copy
        // inside them was dropped too.
        if (l.parent >= 0)
            l.parent = remap[static_cast<std::size_t>(l.parent)];
    }
    loops = std::move(kept);
    // Depth = nesting level from the parent chain (0 = top level).
    for (Loop &l : loops) {
        int depth = 0;
        std::int32_t p = l.parent;
        while (p >= 0) {
            depth++;
            p = loops[static_cast<std::size_t>(p)].parent;
        }
        l.depth = depth;
    }
}

/**
 * Blocks partition the *canonical* instruction space: every loop
 * contributes only its first iteration (the rest are structural
 * repeats), and consecutive canonical instructions sharing the same
 * innermost loop form one block.
 */
void
buildBlocks(StaticIr &ir)
{
    const std::size_t n = ir.size();
    // Innermost canonical loop per instruction; -2 = non-canonical.
    std::vector<std::int32_t> owner(n, -1);
    for (const Loop &l : ir.loops) {
        for (std::size_t i = l.first; i < l.first + l.span(); i++) {
            if (owner[i] == -2)
                continue;
            if (i >= l.first + l.bodyLength) {
                owner[i] = -2; // Repeat iteration: not canonical.
            } else if (owner[i] < 0 ||
                       ir.loops[static_cast<std::size_t>(owner[i])]
                               .bodyLength > l.bodyLength) {
                owner[i] = l.id;
            }
        }
    }
    for (std::size_t i = 0; i < n;) {
        if (owner[i] == -2) {
            i++;
            continue;
        }
        BasicBlock b;
        b.id = static_cast<std::int32_t>(ir.blocks.size());
        b.first = i;
        b.loopId = owner[i];
        b.kind = owner[i] >= 0 ? BlockKind::LoopBody
                               : BlockKind::Straight;
        std::size_t j = i;
        while (j < n && owner[j] == owner[i])
            j++;
        b.count = j - i;
        ir.blocks.push_back(b);
        i = j;
    }
}

void
analyzeLoopDataflow(StaticIr &ir)
{
    const auto &instrs = ir.program->instrs();
    const tpc::TpcParams params = tpc::TpcParams::forGaudi2();
    // Which loops have children (affine analysis is innermost-only).
    std::vector<char> has_child(ir.loops.size(), 0);
    for (const Loop &l : ir.loops) {
        if (l.parent >= 0)
            has_child[static_cast<std::size_t>(l.parent)] = 1;
    }
    for (Loop &l : ir.loops) {
        // sanitizeLoops upholds this; everything below indexes
        // instrs[first + trip * bodyLength + k] on its strength.
        vassert(l.tripCount >= 2 && l.bodyLength > 0 &&
                    l.first + l.span() <= instrs.size(),
                "degenerate loop in dataflow analysis: first=%zu "
                "body=%zu trips=%lld (trace %zu instrs)",
                l.first, l.bodyLength,
                static_cast<long long>(l.tripCount), instrs.size());
        // Loop-carried dependences: sources of second-iteration
        // instructions defined inside the first iteration.
        for (std::size_t k = 0; k < l.bodyLength; k++) {
            const std::size_t use = l.first + l.bodyLength + k;
            const tpc::Instr &instr = instrs[use];
            for (std::int32_t src :
                 {instr.src0, instr.src1, instr.src2}) {
                if (src < 0)
                    continue;
                const std::int64_t def =
                    ir.defIndex[static_cast<std::size_t>(src)];
                if (def < 0 ||
                    static_cast<std::size_t>(def) < l.first ||
                    static_cast<std::size_t>(def) >=
                        l.first + l.bodyLength) {
                    continue;
                }
                LoopCarriedDep dep;
                dep.defBodyIndex =
                    static_cast<std::size_t>(def) - l.first;
                dep.useBodyIndex = k;
                dep.latencyCycles = tpc::resultLatency(
                    instrs[static_cast<std::size_t>(def)], params);
                const bool dup = std::any_of(
                    l.carried.begin(), l.carried.end(),
                    [&dep](const LoopCarriedDep &d) {
                        return d.defBodyIndex == dep.defBodyIndex &&
                               d.useBodyIndex == dep.useBodyIndex;
                    });
                if (!dup)
                    l.carried.push_back(dep);
            }
        }
        // Symbolic stride analysis (innermost loops only): is each
        // body position's global access affine in the trip index?
        if (has_child[static_cast<std::size_t>(l.id)])
            continue;
        for (std::size_t k = 0; k < l.bodyLength; k++) {
            const tpc::Instr &first = instrs[l.first + k];
            if (!tpc::isGlobalMemAccess(first) || first.memOffset < 0)
                continue;
            AffineAccess acc;
            acc.bodyIndex = k;
            acc.stream = first.memStream;
            acc.bytes = first.memBytes;
            acc.base = first.memOffset;
            acc.affine = l.tripCount >= 2;
            acc.stride =
                instrs[l.first + l.bodyLength + k].memOffset -
                first.memOffset;
            for (std::int64_t t = 1; t < l.tripCount; t++) {
                const std::int64_t at = instrs[l.first +
                    static_cast<std::size_t>(t) * l.bodyLength + k]
                                            .memOffset;
                const std::int64_t prev = instrs[l.first +
                    static_cast<std::size_t>(t - 1) * l.bodyLength +
                    k].memOffset;
                if (at < 0 || at - prev != acc.stride) {
                    acc.affine = false;
                    break;
                }
            }
            l.accesses.push_back(acc);
        }
    }
}

} // namespace

const Loop *
StaticIr::innermostLoopAt(std::size_t index) const
{
    const Loop *best = nullptr;
    for (const Loop &l : loops) {
        if (index < l.first || index >= l.first + l.span())
            continue;
        if (best == nullptr || l.bodyLength < best->bodyLength)
            best = &l;
    }
    return best;
}

int
StaticIr::maxLoopDepth() const
{
    int depth = 0;
    for (const Loop &l : loops)
        depth = std::max(depth, l.depth + 1);
    return depth;
}

std::vector<SsaViolation>
checkSsa(const tpc::Program &program, std::vector<std::int64_t> &defIndex,
         std::vector<std::vector<std::int64_t>> *users)
{
    const auto &instrs = program.instrs();
    const std::size_t num_values =
        static_cast<std::size_t>(program.numValues());
    std::vector<SsaViolation> violations;
    defIndex.assign(num_values, -1);
    if (users != nullptr)
        users->assign(num_values, {});
    for (std::size_t i = 0; i < instrs.size(); i++) {
        const tpc::Instr &instr = instrs[i];
        for (std::int32_t src : {instr.src0, instr.src1, instr.src2}) {
            if (src < 0)
                continue;
            if (static_cast<std::size_t>(src) >= num_values) {
                violations.push_back(
                    {i, src, SsaViolation::Kind::UseOutOfRange});
            } else if (defIndex[static_cast<std::size_t>(src)] < 0) {
                violations.push_back(
                    {i, src, SsaViolation::Kind::UseBeforeDef});
            } else if (users != nullptr) {
                (*users)[static_cast<std::size_t>(src)].push_back(
                    static_cast<std::int64_t>(i));
            }
        }
        if (instr.dst >= 0) {
            if (static_cast<std::size_t>(instr.dst) >= num_values) {
                violations.push_back(
                    {i, instr.dst, SsaViolation::Kind::DefOutOfRange});
            } else if (defIndex[static_cast<std::size_t>(instr.dst)] >=
                       0) {
                violations.push_back(
                    {i, instr.dst, SsaViolation::Kind::Redefinition});
            } else {
                defIndex[static_cast<std::size_t>(instr.dst)] =
                    static_cast<std::int64_t>(i);
            }
        }
    }
    return violations;
}

StaticIr
liftProgram(const tpc::Program &program, const LiftOptions &options)
{
    StaticIr ir;
    ir.program = &program;
    const auto &instrs = program.instrs();
    ir.violations = checkSsa(program, ir.defIndex, &ir.users);
    if (!ir.valid())
        return ir; // No structure recovery on malformed SSA.

    // Bottom-up loop recovery: instructions, then collapsed regions.
    std::vector<Item> items;
    items.reserve(instrs.size());
    for (std::size_t i = 0; i < instrs.size(); i++)
        items.push_back({instrSignature(instrs[i]), i, 1});
    for (int level = 0; level < options.maxLoopNesting; level++) {
        if (!detectLoopsOneLevel(items, ir.loops, level, options))
            break;
    }

    sanitizeLoops(ir);
    resolveNesting(ir);
    buildBlocks(ir);
    analyzeLoopDataflow(ir);
    return ir;
}

} // namespace vespera::analysis
