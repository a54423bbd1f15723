#include "analysis/predict/features.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>

#include "analysis/kernel_rules.h"
#include "common/logging.h"

namespace vespera::analysis {

namespace {

/// Histogram bucket for a payload size: <=32, 64, 128, 256, 512,
/// 1024, 2048 B, then everything larger.
int
bucketFor(Bytes bytes)
{
    static constexpr Bytes edges[] = {32, 64, 128, 256, 512, 1024, 2048};
    for (int i = 0; i < kGranularityBuckets - 1; i++) {
        if (bytes <= edges[i])
            return i;
    }
    return kGranularityBuckets - 1;
}

double
granuleTxnsFor(Bytes payload, Bytes granule)
{
    if (payload == 0)
        return 0;
    return std::ceil(static_cast<double>(payload) /
                     static_cast<double>(granule));
}

/// Product of the trip counts of every loop strictly enclosing `l`:
/// the IR records one canonical copy of a nested loop inside its
/// parent's first iteration, so per-trace totals need the ancestor
/// trip weight.
double
ancestorTrips(const StaticIr &ir, const Loop &l)
{
    double w = 1;
    std::int32_t p = l.parent;
    while (p >= 0) {
        const Loop &parent = ir.loops[static_cast<std::size_t>(p)];
        w *= static_cast<double>(parent.tripCount);
        p = parent.parent;
    }
    return w;
}

/// Longest latency-weighted def-use chain through instrs[first,
/// first + count): height at each instruction = max over sources of
/// (producer height + producer result latency), issue itself costing
/// one cycle. Sources defined before `first` are treated as ready.
double
chainHeight(const StaticIr &ir, std::size_t first, std::size_t count,
            const tpc::TpcParams &params)
{
    const auto &instrs = ir.program->instrs();
    std::vector<double> height(count, 0);
    double worst = 0;
    for (std::size_t k = 0; k < count; k++) {
        const tpc::Instr &instr = instrs[first + k];
        double h = 0;
        for (std::int32_t src : {instr.src0, instr.src1, instr.src2}) {
            if (src < 0)
                continue;
            const std::int64_t def =
                ir.defIndex[static_cast<std::size_t>(src)];
            if (def < 0 || static_cast<std::size_t>(def) < first ||
                static_cast<std::size_t>(def) >= first + k) {
                continue;
            }
            const std::size_t dk =
                static_cast<std::size_t>(def) - first;
            const double ready =
                height[dk] +
                tpc::resultLatency(instrs[static_cast<std::size_t>(def)],
                                   params);
            h = std::max(h, ready);
        }
        height[k] = h + 1; // The issue cycle itself.
        worst = std::max(worst, height[k]);
    }
    return worst;
}

} // namespace

std::vector<double>
FeatureVector::basis() const
{
    return {
        1.0, // Bias.
        instructions,
        busiestSlotCount,
        memBoundCycles,
        granuleWasteCycles,
        hingeHalfGranule,
        depHeightCycles,
        iiGapCycles,
        loopRooflineCycles,
        loopDepCycles,
        straightInstrs,
        irregularAccesses,
        subGranuleAccesses,
        peakLiveBytes / 1024.0,
    };
}

const std::vector<std::string> &
FeatureVector::basisNames()
{
    static const std::vector<std::string> names = {
        "bias",
        "instructions",
        "busiest_slot",
        "mem_bound_cycles",
        "granule_waste_cycles",
        "hinge_half_granule",
        "dep_height_cycles",
        "ii_gap_cycles",
        "loop_roofline_cycles",
        "loop_dep_cycles",
        "straight_instrs",
        "irregular_accesses",
        "sub_granule_accesses",
        "peak_live_kib",
    };
    return names;
}

json::Value
FeatureVector::toJson() const
{
    std::map<std::string, json::Value> f;
    f["instructions"] = json::Value::makeNumber(instructions);
    for (int s = 0; s < tpc::numSlots; s++) {
        f[std::string("slot_") + slotName(static_cast<tpc::Slot>(s))] =
            json::Value::makeNumber(slotCounts[s]);
    }
    f["busiest_slot"] = json::Value::makeNumber(busiestSlotCount);
    f["global_accesses"] = json::Value::makeNumber(globalAccesses);
    f["global_payload_bytes"] =
        json::Value::makeNumber(globalPayloadBytes);
    f["granule_txns"] = json::Value::makeNumber(granuleTxns);
    f["mem_bound_cycles"] = json::Value::makeNumber(memBoundCycles);
    f["granule_waste_cycles"] =
        json::Value::makeNumber(granuleWasteCycles);
    f["hinge_half_granule"] = json::Value::makeNumber(hingeHalfGranule);
    {
        std::vector<json::Value> hist;
        hist.reserve(kGranularityBuckets);
        for (double h : granularityHist)
            hist.push_back(json::Value::makeNumber(h));
        f["granularity_hist"] = json::Value::makeArray(std::move(hist));
    }
    f["sub_granule_accesses"] =
        json::Value::makeNumber(subGranuleAccesses);
    f["contiguous_accesses"] =
        json::Value::makeNumber(contiguousAccesses);
    f["strided_accesses"] = json::Value::makeNumber(stridedAccesses);
    f["irregular_accesses"] = json::Value::makeNumber(irregularAccesses);
    f["dep_height_cycles"] = json::Value::makeNumber(depHeightCycles);
    f["loop_dep_cycles"] = json::Value::makeNumber(loopDepCycles);
    f["loop_slot_cycles"] = json::Value::makeNumber(loopSlotCycles);
    f["loop_mem_cycles"] = json::Value::makeNumber(loopMemCycles);
    f["loop_roofline_cycles"] =
        json::Value::makeNumber(loopRooflineCycles);
    f["ii_gap_cycles"] = json::Value::makeNumber(iiGapCycles);
    f["straight_instrs"] = json::Value::makeNumber(straightInstrs);
    f["loop_count"] = json::Value::makeNumber(loopCount);
    f["max_trip_count"] = json::Value::makeNumber(maxTripCount);
    f["max_loop_depth"] = json::Value::makeNumber(maxLoopDepth);
    f["peak_live_values"] = json::Value::makeNumber(peakLiveValues);
    f["peak_live_bytes"] = json::Value::makeNumber(peakLiveBytes);

    std::map<std::string, json::Value> doc;
    doc["schema"] = json::Value::makeString(kFeatureSchema);
    doc["kernel"] = json::Value::makeString(kernel);
    doc["shape"] = json::Value::makeString(shape);
    doc["features"] = json::Value::makeObject(std::move(f));
    return json::Value::makeObject(std::move(doc));
}

FeatureVector
extractFeatures(const StaticIr &ir, const tpc::TpcParams &params)
{
    vassert(ir.program != nullptr, "extractFeatures: IR without program");
    vassert(ir.valid(),
            "extractFeatures: IR carries SSA violations; features are "
            "undefined on malformed traces");
    const auto &instrs = ir.program->instrs();
    for (const Loop &l : ir.loops) {
        // liftProgram sanitizes these away; hand-built IRs must too.
        vassert(l.tripCount >= 2,
                "extractFeatures: degenerate loop (tripCount < 2)");
        vassert(l.bodyLength > 0,
                "extractFeatures: degenerate loop (empty body)");
        vassert(l.first + l.span() <= instrs.size(),
                "extractFeatures: loop span past end of trace");
    }

    FeatureVector f;
    f.kernel = ir.program->kernelName();
    f.instructions = static_cast<double>(instrs.size());

    const auto granule = static_cast<double>(params.granule);
    const double halfGranule = granule / 2.0;
    for (const tpc::Instr &instr : instrs) {
        f.slotCounts[static_cast<int>(instr.slot)] += 1;
        if (!tpc::isGlobalMemAccess(instr))
            continue;
        const auto payload = static_cast<double>(instr.memBytes);
        const double txns = granuleTxnsFor(instr.memBytes, params.granule);
        f.globalAccesses += 1;
        f.globalPayloadBytes += payload;
        f.granuleTxns += txns;
        f.granularityHist[bucketFor(instr.memBytes)] += 1;
        if (payload < granule) {
            f.subGranuleAccesses += 1;
            // Knee at the granule: interface cycles moving padding.
            f.granuleWasteCycles += (txns * granule - payload) /
                                    granule *
                                    params.memIssueIntervalCycles;
        }
        if (payload < halfGranule)
            f.hingeHalfGranule += (halfGranule - payload) / halfGranule;
        if (instr.access == tpc::Access::Random)
            f.irregularAccesses += 1;
    }
    for (double c : f.slotCounts)
        f.busiestSlotCount = std::max(f.busiestSlotCount, c);
    f.memBoundCycles = f.granuleTxns * params.memIssueIntervalCycles;

    f.depHeightCycles = chainHeight(ir, 0, instrs.size(), params);

    // Loop aggregates. Leaf loops carry the body-level features (an
    // outer loop's body already contains its inner loops' canonical
    // copies); every loop contributes its recurrence.
    std::vector<char> hasChild(ir.loops.size(), 0);
    for (const Loop &l : ir.loops) {
        if (l.parent >= 0)
            hasChild[static_cast<std::size_t>(l.parent)] = 1;
    }
    for (const Loop &l : ir.loops) {
        const double w = ancestorTrips(ir, l);
        const auto trips = static_cast<double>(l.tripCount);
        f.loopCount += 1;
        f.maxTripCount = std::max(f.maxTripCount, trips);
        f.loopDepCycles += w * trips * l.recurrenceLatency();
        if (hasChild[static_cast<std::size_t>(l.id)])
            continue;
        double bodySlots[tpc::numSlots] = {0, 0, 0, 0};
        double bodyTxns = 0;
        for (std::size_t k = 0; k < l.bodyLength; k++) {
            const tpc::Instr &instr = instrs[l.first + k];
            bodySlots[static_cast<int>(instr.slot)] += 1;
            if (tpc::isGlobalMemAccess(instr))
                bodyTxns += granuleTxnsFor(instr.memBytes, params.granule);
        }
        const double bodySlotMax =
            *std::max_element(bodySlots, bodySlots + tpc::numSlots);
        const double bodyMem = bodyTxns * params.memIssueIntervalCycles;
        const double ii = std::max(
            {l.recurrenceLatency(), bodySlotMax, bodyMem});
        const double bodyHeight =
            chainHeight(ir, l.first, l.bodyLength, params);
        f.loopSlotCycles += w * trips * bodySlotMax;
        f.loopMemCycles += w * trips * bodyMem;
        f.loopRooflineCycles += w * trips * ii;
        f.iiGapCycles += w * trips * std::max(0.0, bodyHeight - ii);

        // Stride classes over the loop's per-position access analysis.
        for (const AffineAccess &a : l.accesses) {
            const double weight = w * trips;
            if (!a.affine) {
                f.irregularAccesses += weight;
            } else if (std::llabs(a.stride) ==
                       static_cast<long long>(a.bytes)) {
                f.contiguousAccesses += weight;
            } else {
                f.stridedAccesses += weight;
            }
        }
    }
    f.maxLoopDepth = static_cast<double>(ir.maxLoopDepth());

    // Instructions outside every loop: total minus top-level spans.
    double covered = 0;
    for (const Loop &l : ir.loops) {
        if (l.parent < 0)
            covered += static_cast<double>(l.span());
    }
    f.straightInstrs =
        std::max(0.0, f.instructions - covered);

    // Register-pressure peak: the same live-range event sweep the
    // register-pressure pass runs (passes_sched.cc), minus the
    // diagnostics.
    struct Event
    {
        std::size_t index;
        std::int64_t deltaValues;
        std::int64_t deltaBytes;
    };
    std::vector<Event> events;
    const auto numValues =
        static_cast<std::size_t>(ir.program->numValues());
    events.reserve(numValues * 2);
    for (std::size_t v = 0; v < numValues; v++) {
        const std::int64_t def = ir.defIndex[v];
        if (def < 0)
            continue;
        std::int64_t last = def;
        if (!ir.users[v].empty())
            last = ir.users[v].back();
        const tpc::Instr &producer =
            instrs[static_cast<std::size_t>(def)];
        const auto bytes = static_cast<std::int64_t>(
            std::max<std::int64_t>(producer.lanes, 1) * 4);
        events.push_back({static_cast<std::size_t>(def), 1, bytes});
        events.push_back(
            {static_cast<std::size_t>(last) + 1, -1, -bytes});
    }
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) {
                  if (a.index != b.index)
                      return a.index < b.index;
                  return a.deltaValues < b.deltaValues; // Kills first.
              });
    std::int64_t live = 0, liveBytes = 0;
    std::int64_t peak = 0, peakBytes = 0;
    for (const Event &e : events) {
        live += e.deltaValues;
        liveBytes += e.deltaBytes;
        if (liveBytes > peakBytes) {
            peakBytes = liveBytes;
            peak = live;
        }
    }
    f.peakLiveValues = static_cast<double>(peak);
    f.peakLiveBytes = static_cast<double>(peakBytes);
    return f;
}

} // namespace vespera::analysis
