#include "tpc/context.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/logging.h"

namespace vespera::tpc {

TpcContext::TpcContext(Program &program, const MemberRange &range,
                       Bytes default_vector_bytes, Bytes local_memory_bytes)
    : program_(program), range_(range),
      defaultVectorBytes_(default_vector_bytes),
      localMemoryBytes_(local_memory_bytes),
      localMem_(local_memory_bytes / 4, 0.0f)
{
    vassert(default_vector_bytes > 0, "zero vector width");
    opLabels_.fill(-1);
}

SteadyLoop::SteadyLoop(Program &program, std::int64_t trips)
    : program_(program), trips_(trips),
      // An inner loop of a watched one runs every trip.
      watching_(trips > 2 && program.canAdvance() && !program.watched())
{
    vassert(trips >= 0, "steady loop of %lld trips",
            static_cast<long long>(trips));
    if (watching_) {
        watch_.loopFirstValue = program.numValues();
        program.watch(&watch_);
    }
}

SteadyLoop::~SteadyLoop()
{
    if (watching_)
        program_.watch(nullptr);
}

void
SteadyLoop::closeTrip()
{
    if (watch_.crossTrip) {
        // Trips depend on each other: run them all, unwatched.
        watching_ = false;
        program_.watch(nullptr);
        return;
    }
    if (seen_ == 3) {
        std::rotate(window_.begin(), window_.begin() + 1, window_.end());
        signatures_[0] = signatures_[1];
        seen_ = 2;
    }
    window_[static_cast<std::size_t>(seen_)] = {
        program_.sink()->state(), program_.totals()};
    if (seen_ > 0)
        signatures_[static_cast<std::size_t>(seen_ - 1)] = watch_.signature;
    seen_++;
    if (seen_ < 3 || signatures_[0] != signatures_[1] || next_ >= trips_)
        return;

    const Program::Totals &f0 = window_[0].totals;
    const Program::Totals &f1 = window_[1].totals;
    const Program::Totals &f2 = window_[2].totals;
    const double flops = f1.flops - f0.flops;
    if (f2.flops - f1.flops != flops)
        return;
    std::int64_t skip = std::min(
        {steadyTrips({window_[0].board, window_[1].board, window_[2].board},
                     watch_.invariantReady),
         binadeTrips(f0.flops, f2.flops, flops), trips_ - next_});
    if (skip <= 0)
        return;
    program_.sink()->advance(window_[1].board, window_[2].board, skip);
    program_.advance(f1, f2, skip);
    next_ += skip;
    // The advanced state is a trip boundary like any other, but the
    // next trip does not follow the observed ones.
    window_[0] = {program_.sink()->state(), program_.totals()};
    seen_ = 1;
}

std::int64_t
SteadyLoop::next()
{
    if (watching_) {
        if (seen_ > 0) {
            closeTrip();
        } else {
            window_[0] = {program_.sink()->state(), program_.totals()};
            seen_ = 1;
        }
    }
    if (next_ >= trips_) {
        if (watching_) {
            watching_ = false;
            program_.watch(nullptr);
        }
        return trips_;
    }
    if (watching_) {
        watch_.tripFirstValue = program_.numValues();
        watch_.signature = 0;
    }
    if (runs_.empty() || runs_.back().end != next_)
        runs_.push_back({next_, next_});
    runs_.back().end = next_ + 1;
    return next_++;
}

namespace {
/// Instr::memStream id of the TPC-local scratchpad.
constexpr std::uint32_t localMemStream = 1;

/// Label text of each TpcContext::Op, in enum order.
constexpr const char *opNames[] = {
    "v_ld_tnsr", "v_st_tnsr", "v_add", "v_sub", "v_mul", "v_max",
    "v_mac", "v_mul_s", "v_mac_s", "v_zero", "v_exp", "v_reciprocal",
    "v_rsqrt", "v_splat", "v_iota", "v_cmp_eq", "v_cmp_lt", "v_cmp_ge",
    "v_sel", "v_reduce_max", "v_reduce_add", "v_broadcast", "s_ld",
    "v_st_local", "v_ld_local",
};
} // namespace

void
TpcContext::setOpLabel(std::string_view label)
{
    if (label.empty()) {
        userLabel_ = -1;
        return;
    }
    if (userLabel_ >= 0 && program_.label(userLabel_) == label)
        return;
    const auto addr = reinterpret_cast<std::uintptr_t>(label.data());
    LabelSlot &slot = labelCache_[(addr ^ (addr >> 4)) % labelCache_.size()];
    if (slot.text != label.data() || program_.label(slot.index) != label) {
        slot.text = label.data();
        slot.index = program_.internLabel(label);
    }
    userLabel_ = slot.index;
}

std::int16_t
TpcContext::opLabel(Op op)
{
    static_assert(std::size(opNames) == static_cast<std::size_t>(Op::Count),
                  "opNames out of sync with TpcContext::Op");
    if (userLabel_ >= 0)
        return userLabel_;
    std::int16_t &label = opLabels_[static_cast<std::size_t>(op)];
    if (label < 0)
        label = program_.internLabel(opNames[static_cast<std::size_t>(op)]);
    return label;
}

std::uint32_t
TpcContext::streamId(const void *key)
{
    const auto index = static_cast<std::size_t>(
        std::find(streams_.begin(), streams_.end(), key) - streams_.begin());
    if (index == streams_.size())
        streams_.push_back(key);
    return static_cast<std::uint32_t>(index) + 2;
}

Vec
TpcContext::v_ld_tnsr(const Int5 &coord, const Tensor &t, Bytes bytes,
                      Access access)
{
    if (bytes == 0)
        bytes = defaultVectorBytes_;
    const Bytes es = dtypeSize(t.dtype());
    vassert(bytes >= es, "load smaller than one element");
    const auto lanes = static_cast<std::int64_t>(bytes / es);

    Vec v;
    v.id = program_.newValue();
    const std::int64_t base = t.flatten(coord);
    const std::int64_t limit = std::min(lanes, t.numElements() - base);
    const float *src = t.range(base, limit);
    // Copy the in-bounds run; only the tail past the tensor end is
    // zero-filled.
    v.lanes.reserve(static_cast<std::size_t>(lanes));
    v.lanes.assign(src, src + limit);
    v.lanes.resize(static_cast<std::size_t>(lanes), 0.0f);

    Instr instr;
    instr.slot = Slot::Load;
    instr.dst = v.id;
    instr.memBytes = bytes;
    instr.access = access;
    instr.lanes = static_cast<std::int32_t>(lanes);
    instr.memOffset = base * static_cast<std::int64_t>(es);
    instr.memStream = streamId(t.data());
    instr.opLabel = opLabel(Op::LdTnsr);
    program_.append(instr);
    return v;
}

void
TpcContext::v_st_tnsr(const Int5 &coord, Tensor &t, const Vec &v,
                      Access access, std::int64_t lane_limit)
{
    vassert(v.id >= 0, "storing an uninitialized vector");
    const std::int64_t base = t.flatten(coord);
    std::int64_t limit =
        std::min<std::int64_t>(v.laneCount(), t.numElements() - base);
    if (lane_limit >= 0)
        limit = std::min(limit, lane_limit);
    std::copy_n(v.lanes.data(), limit, t.range(base, limit));

    Instr instr;
    instr.slot = Slot::Store;
    instr.src0 = v.id;
    instr.memBytes = static_cast<Bytes>(v.laneCount()) *
                     dtypeSize(t.dtype());
    instr.access = access;
    instr.lanes = v.laneCount();
    instr.memOffset =
        base * static_cast<std::int64_t>(dtypeSize(t.dtype()));
    instr.memStream = streamId(t.data());
    instr.opLabel = opLabel(Op::StTnsr);
    program_.append(instr);
}

template <typename F>
Vec
TpcContext::binaryOp(const Vec &a, const Vec &b, float flops_per_lane,
                     F op, Op name)
{
    vassert(a.laneCount() == b.laneCount(),
            "lane mismatch: %d vs %d", a.laneCount(), b.laneCount());
    Vec r;
    r.id = program_.newValue();
    r.lanes.resize(a.lanes.size());
    for (std::size_t i = 0; i < a.lanes.size(); i++)
        r.lanes[i] = op(a.lanes[i], b.lanes[i]);

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.src0 = a.id;
    instr.src1 = b.id;
    instr.flopsPerLane = flops_per_lane;
    instr.lanes = a.laneCount();
    instr.opLabel = opLabel(name);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_add(const Vec &a, const Vec &b)
{
    return binaryOp(a, b, 1.0f, [](float x, float y) { return x + y; },
                    Op::Add);
}

Vec
TpcContext::v_sub(const Vec &a, const Vec &b)
{
    return binaryOp(a, b, 1.0f, [](float x, float y) { return x - y; },
                    Op::Sub);
}

Vec
TpcContext::v_mul(const Vec &a, const Vec &b)
{
    return binaryOp(a, b, 1.0f, [](float x, float y) { return x * y; },
                    Op::Mul);
}

Vec
TpcContext::v_max(const Vec &a, const Vec &b)
{
    return binaryOp(a, b, 1.0f,
                    [](float x, float y) { return std::max(x, y); },
                    Op::Max);
}

Vec
TpcContext::v_mac(const Vec &a, const Vec &b, const Vec &acc)
{
    vassert(a.laneCount() == b.laneCount() &&
            a.laneCount() == acc.laneCount(),
            "lane mismatch in v_mac");
    Vec r;
    r.id = program_.newValue();
    r.lanes.resize(a.lanes.size());
    for (std::size_t i = 0; i < a.lanes.size(); i++)
        r.lanes[i] = a.lanes[i] * b.lanes[i] + acc.lanes[i];

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.src0 = a.id;
    instr.src1 = b.id;
    instr.src2 = acc.id;
    instr.flopsPerLane = 2.0f;
    instr.lanes = a.laneCount();
    instr.opLabel = opLabel(Op::Mac);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_mul_s(const Vec &a, float scalar)
{
    Vec r;
    r.id = program_.newValue();
    r.lanes.resize(a.lanes.size());
    for (std::size_t i = 0; i < a.lanes.size(); i++)
        r.lanes[i] = a.lanes[i] * scalar;

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.src0 = a.id;
    instr.flopsPerLane = 1.0f;
    instr.lanes = a.laneCount();
    instr.opLabel = opLabel(Op::MulS);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_mac_s(const Vec &a, float scalar, const Vec &acc)
{
    vassert(a.laneCount() == acc.laneCount(), "lane mismatch in v_mac_s");
    Vec r;
    r.id = program_.newValue();
    r.lanes.resize(a.lanes.size());
    for (std::size_t i = 0; i < a.lanes.size(); i++)
        r.lanes[i] = a.lanes[i] * scalar + acc.lanes[i];

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.src0 = a.id;
    instr.src1 = acc.id;
    instr.flopsPerLane = 2.0f;
    instr.lanes = a.laneCount();
    instr.opLabel = opLabel(Op::MacS);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_zero(int lanes)
{
    vassert(lanes > 0, "zero-lane vector");
    Vec r;
    r.id = program_.newValue();
    r.lanes.assign(static_cast<std::size_t>(lanes), 0.0f);

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.lanes = lanes;
    instr.opLabel = opLabel(Op::Zero);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_exp(const Vec &a)
{
    Vec r;
    r.id = program_.newValue();
    r.lanes.resize(a.lanes.size());
    for (std::size_t i = 0; i < a.lanes.size(); i++)
        r.lanes[i] = std::exp(a.lanes[i]);

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.src0 = a.id;
    // Special-function unit: several flops worth of issue per lane.
    instr.flopsPerLane = 4.0f;
    instr.lanes = a.laneCount();
    instr.opLabel = opLabel(Op::Exp);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_reciprocal(const Vec &a)
{
    Vec r;
    r.id = program_.newValue();
    r.lanes.resize(a.lanes.size());
    for (std::size_t i = 0; i < a.lanes.size(); i++)
        r.lanes[i] = 1.0f / a.lanes[i];

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.src0 = a.id;
    instr.flopsPerLane = 2.0f;
    instr.lanes = a.laneCount();
    instr.opLabel = opLabel(Op::Reciprocal);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_rsqrt(const Vec &a)
{
    Vec r;
    r.id = program_.newValue();
    r.lanes.resize(a.lanes.size());
    for (std::size_t i = 0; i < a.lanes.size(); i++)
        r.lanes[i] = 1.0f / std::sqrt(a.lanes[i]);

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.src0 = a.id;
    instr.flopsPerLane = 2.0f;
    instr.lanes = a.laneCount();
    instr.opLabel = opLabel(Op::Rsqrt);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_splat(float value, int lanes)
{
    vassert(lanes > 0, "zero-lane splat");
    Vec r;
    r.id = program_.newValue();
    r.lanes.assign(static_cast<std::size_t>(lanes), value);

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.lanes = lanes;
    instr.opLabel = opLabel(Op::Splat);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_iota(int lanes)
{
    vassert(lanes > 0, "zero-lane iota");
    Vec r;
    r.id = program_.newValue();
    r.lanes.resize(static_cast<std::size_t>(lanes));
    for (int i = 0; i < lanes; i++)
        r.lanes[static_cast<std::size_t>(i)] = static_cast<float>(i);

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.lanes = lanes;
    instr.opLabel = opLabel(Op::Iota);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_cmp_eq(const Vec &a, const Vec &b)
{
    return binaryOp(a, b, 1.0f,
                    [](float x, float y) { return x == y ? 1.0f : 0.0f; },
                    Op::CmpEq);
}

Vec
TpcContext::v_cmp_lt(const Vec &a, const Vec &b)
{
    return binaryOp(a, b, 1.0f,
                    [](float x, float y) { return x < y ? 1.0f : 0.0f; },
                    Op::CmpLt);
}

Vec
TpcContext::v_cmp_ge(const Vec &a, const Vec &b)
{
    return binaryOp(a, b, 1.0f,
                    [](float x, float y) { return x >= y ? 1.0f : 0.0f; },
                    Op::CmpGe);
}

Vec
TpcContext::v_sel(const Vec &mask, const Vec &a, const Vec &b)
{
    vassert(mask.laneCount() == a.laneCount() &&
            mask.laneCount() == b.laneCount(),
            "lane mismatch in v_sel");
    Vec r;
    r.id = program_.newValue();
    r.lanes.resize(a.lanes.size());
    for (std::size_t i = 0; i < a.lanes.size(); i++)
        r.lanes[i] = mask.lanes[i] != 0.0f ? a.lanes[i] : b.lanes[i];

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.src0 = mask.id;
    instr.src1 = a.id;
    instr.src2 = b.id;
    instr.flopsPerLane = 1.0f;
    instr.lanes = a.laneCount();
    instr.opLabel = opLabel(Op::Sel);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_reduce_max(const Vec &a)
{
    vassert(a.laneCount() > 0, "reducing empty vector");
    Vec r;
    r.id = program_.newValue();
    float m = a.lanes[0];
    for (float v : a.lanes)
        m = std::max(m, v);
    r.lanes = {m};

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.src0 = a.id;
    instr.flopsPerLane = 1.0f; // Tree reduction, ~1 op per lane.
    instr.lanes = a.laneCount();
    instr.opLabel = opLabel(Op::ReduceMax);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_reduce_add(const Vec &a)
{
    vassert(a.laneCount() > 0, "reducing empty vector");
    Vec r;
    r.id = program_.newValue();
    double s = 0;
    for (float v : a.lanes)
        s += v;
    r.lanes = {static_cast<float>(s)};

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.src0 = a.id;
    instr.flopsPerLane = 1.0f;
    instr.lanes = a.laneCount();
    instr.opLabel = opLabel(Op::ReduceAdd);
    program_.append(instr);
    return r;
}

Vec
TpcContext::v_broadcast(const Vec &a, int lanes)
{
    vassert(a.laneCount() >= 1 && lanes > 0, "bad broadcast");
    Vec r;
    r.id = program_.newValue();
    r.lanes.assign(static_cast<std::size_t>(lanes), a.lanes[0]);

    Instr instr;
    instr.slot = Slot::Vector;
    instr.dst = r.id;
    instr.src0 = a.id;
    instr.lanes = lanes;
    instr.opLabel = opLabel(Op::Broadcast);
    program_.append(instr);
    return r;
}

float
TpcContext::s_ld(const Int5 &coord, const Tensor &t, Access access)
{
    const std::int64_t flat = t.flatten(coord);
    const float value = t.at(flat);

    Instr instr;
    instr.slot = Slot::Scalar;
    instr.dst = program_.newValue();
    instr.memBytes = dtypeSize(t.dtype());
    instr.access = access;
    instr.lanes = 1;
    instr.memOffset = flat * static_cast<std::int64_t>(dtypeSize(t.dtype()));
    instr.memStream = streamId(t.data());
    instr.opLabel = opLabel(Op::SLd);
    program_.append(instr);
    return value;
}

void
TpcContext::v_st_local(std::int64_t elem_offset, const Vec &v)
{
    vassert(elem_offset >= 0, "negative local offset");
    const std::int64_t end = elem_offset + v.laneCount();
    vassert(static_cast<Bytes>(end) * 4 <= localMemoryBytes_,
            "local memory overflow: %lld lanes > %llu bytes",
            static_cast<long long>(end),
            static_cast<unsigned long long>(localMemoryBytes_));
    std::copy(v.lanes.begin(), v.lanes.end(),
              localMem_.begin() + elem_offset);
    localHighWater_ = std::max(localHighWater_, end);

    Instr instr;
    instr.slot = Slot::Store;
    instr.src0 = v.id;
    instr.memBytes = static_cast<Bytes>(v.laneCount()) * 4;
    instr.access = Access::Local;
    instr.lanes = v.laneCount();
    instr.memOffset = elem_offset * 4;
    instr.memStream = localMemStream;
    instr.opLabel = opLabel(Op::StLocal);
    program_.append(instr);
}

Vec
TpcContext::v_ld_local(std::int64_t elem_offset, int lanes)
{
    vassert(elem_offset >= 0 && lanes > 0, "bad local load");
    vassert(static_cast<Bytes>(elem_offset + lanes) * 4 <=
            localMemoryBytes_, "local memory read out of bounds");
    Vec v;
    v.id = program_.newValue();
    v.lanes.assign(localMem_.data() + elem_offset,
                   localMem_.data() + elem_offset + lanes);

    Instr instr;
    instr.slot = Slot::Load;
    instr.dst = v.id;
    instr.memBytes = static_cast<Bytes>(lanes) * 4;
    instr.access = Access::Local;
    instr.lanes = lanes;
    instr.memOffset = elem_offset * 4;
    instr.memStream = localMemStream;
    instr.opLabel = opLabel(Op::LdLocal);
    program_.append(instr);
    return v;
}

} // namespace vespera::tpc
