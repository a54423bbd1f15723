#include "port/lower.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/logging.h"

namespace vespera::port {

namespace {

/// Barrier-delimited run of body items (instrs / sync-free loops).
struct Segment
{
    std::vector<const CudaStmt *> items;
};

/// A loop whose body contains Sync: trips iterate sync-split chunks.
struct SyncLoop
{
    const CudaLoop *loop = nullptr;
    std::vector<std::vector<const CudaInstr *>> segs;
};

struct Unit
{
    bool isSyncLoop = false;
    Segment seg;
    SyncLoop syncLoop;
};

bool
loopHasSync(const CudaLoop &l)
{
    for (const CudaInstr &i : l.body)
        if (i.op == CudaOp::Sync)
            return true;
    return false;
}

std::vector<Unit>
splitUnits(const CudaKernelDesc &desc)
{
    std::vector<Unit> units;
    Segment cur;
    auto flush = [&] {
        if (!cur.items.empty()) {
            Unit u;
            u.seg = std::move(cur);
            units.push_back(std::move(u));
            cur = Segment{};
        }
    };
    for (const CudaStmt &s : desc.body) {
        if (s.kind == CudaStmt::Kind::Instr) {
            if (s.instr.op == CudaOp::Sync) {
                flush();
                continue;
            }
            cur.items.push_back(&s);
            continue;
        }
        if (!loopHasSync(s.loop)) {
            cur.items.push_back(&s);
            continue;
        }
        flush();
        Unit u;
        u.isSyncLoop = true;
        u.syncLoop.loop = &s.loop;
        std::vector<const CudaInstr *> chunk;
        for (const CudaInstr &i : s.loop.body) {
            if (i.op == CudaOp::Sync) {
                if (!chunk.empty())
                    u.syncLoop.segs.push_back(std::move(chunk));
                chunk.clear();
                continue;
            }
            chunk.push_back(&i);
        }
        if (!chunk.empty())
            u.syncLoop.segs.push_back(std::move(chunk));
        units.push_back(std::move(u));
    }
    flush();
    return units;
}

/**
 * Lowers thread blocks onto one TPC's context. One instance serves
 * every block of a TPC slice; run() resets the per-block state, so
 * each block lowers exactly as if on a fresh instance. Lane work is
 * per strip, into reused member buffers.
 */
class BlockLowerer
{
  public:
    BlockLowerer(const CudaKernelDesc &desc, const LowerOptions &opts,
                 tpc::TpcContext &ctx, std::vector<tpc::Tensor> &tensors)
        : desc_(desc), opts_(opts), ctx_(ctx), tensors_(tensors),
          stripWidth_(warpSize * opts.warpsPerStrip),
          numStrips_(static_cast<int>(
              (desc.blockThreads + stripWidth_ - 1) / stripWidth_)),
          scratchBase_(desc.sharedElems),
          regs_(static_cast<std::size_t>(numStrips_) *
                static_cast<std::size_t>(desc.numRegs)),
          addrs_(static_cast<std::size_t>(stripWidth_)),
          act_(static_cast<std::size_t>(stripWidth_))
    {
        vassert((scratchBase_ + stripWidth_) * 4 <=
                static_cast<std::int64_t>(opts.localMemoryBytes),
                "%s: shared memory (%lld elems) leaves no room for "
                "lowering scratch", desc.name.c_str(),
                static_cast<long long>(desc.sharedElems));
    }

    void
    run(const std::vector<Unit> &units, std::int64_t block)
    {
        block_ = block;
        for (tpc::Vec &r : regs_)
            r.id = -1;
        splats_.clear();
        iotas_.clear();
        masks_.clear();

        zeroShared();
        for (const Unit &u : units) {
            if (!u.isSyncLoop) {
                emitSegment(u.seg.items, 0);
                continue;
            }
            for (std::int64_t trip = 0; trip < u.syncLoop.loop->trips;
                 trip++) {
                for (const auto &seg : u.syncLoop.segs)
                    emitChunk(seg, trip);
            }
        }
    }

  private:
    int
    stripLanes(int strip) const
    {
        const std::int64_t base =
            static_cast<std::int64_t>(strip) * stripWidth_;
        return static_cast<int>(std::min<std::int64_t>(
            stripWidth_, desc_.blockThreads - base));
    }

    /// Context of lane 0 of `strip` (strips start on a warp boundary).
    LaneCtx
    stripCtx(int strip, std::int64_t iter) const
    {
        LaneCtx c;
        c.tid = static_cast<std::int64_t>(strip) * stripWidth_;
        c.lane = 0;
        c.warp = c.tid / warpSize;
        c.block = block_;
        c.blockX = block_ % desc_.gridX;
        c.blockY = block_ / desc_.gridX;
        c.globalTid = block_ * desc_.blockThreads + c.tid;
        c.iter = iter;
        return c;
    }

    /// Register read with lazy zero-init (CUDA registers start
    /// undefined; the desc contract is read-as-zero, matching the
    /// reference interpreter).
    const tpc::Vec &
    getReg(int strip, std::int32_t r)
    {
        tpc::Vec &v = reg(strip, r);
        if (v.id < 0) {
            ctx_.setOpLabel("port:reg-init");
            v = ctx_.v_zero(stripLanes(strip));
        }
        return v;
    }

    void
    setReg(int strip, std::int32_t r, tpc::Vec v)
    {
        reg(strip, r) = std::move(v);
    }

    tpc::Vec &
    reg(int strip, std::int32_t r)
    {
        return regs_[static_cast<std::size_t>(strip) *
                         static_cast<std::size_t>(desc_.numRegs) +
                     static_cast<std::size_t>(r)];
    }

    const tpc::Vec &
    splat(float value, int lanes)
    {
        std::int32_t bits;
        std::memcpy(&bits, &value, sizeof(bits));
        const auto key = std::make_pair(bits, lanes);
        auto it = splats_.find(key);
        if (it == splats_.end()) {
            ctx_.setOpLabel("port:alu");
            it = splats_.emplace(key, ctx_.v_splat(value, lanes)).first;
        }
        return it->second;
    }

    const tpc::Vec &
    iota(int lanes)
    {
        auto it = iotas_.find(lanes);
        if (it == iotas_.end()) {
            ctx_.setOpLabel("port:pred-mask");
            it = iotas_.emplace(lanes, ctx_.v_iota(lanes)).first;
        }
        return it->second;
    }

    void
    zeroShared()
    {
        if (desc_.sharedElems <= 0)
            return;
        for (std::int64_t off = 0; off < desc_.sharedElems;
             off += stripWidth_) {
            const int lanes = static_cast<int>(std::min<std::int64_t>(
                stripWidth_, desc_.sharedElems - off));
            const tpc::Vec &z = splat(0.0f, lanes);
            ctx_.setOpLabel("port:shared-init");
            ctx_.v_st_local(off, z);
        }
    }

    /// Per-lane addresses of a memory op for one strip, into addrs_.
    void
    addrsFor(const CudaInstr &i, int strip, std::int64_t iter)
    {
        const int lanes = stripLanes(strip);
        const float *idx = nullptr;
        if (i.addr.indexReg >= 0)
            idx = getReg(strip, i.addr.indexReg).lanes.data();
        AddrWalk a(i.addr, stripCtx(strip, iter));
        for (int l = 0; l < lanes; l++, a.next()) {
            std::int64_t v = a.affine();
            if (idx != nullptr)
                v += static_cast<std::int64_t>(idx[l]);
            addrs_[static_cast<std::size_t>(l)] = v;
        }
    }

    /// Per-lane predicate activity for one strip, into act_; returns
    /// the number of active lanes. An inactive predicate returns
    /// "all lanes" at once and leaves act_ unread.
    int
    activeFor(const Pred &p, int strip, std::int64_t iter)
    {
        const int lanes = stripLanes(strip);
        if (!p.active)
            return lanes;
        int on = 0;
        if (p.onRegs) {
            const float *lhs = getReg(strip, p.lhsReg).lanes.data();
            const float *rhs = getReg(strip, p.rhsReg).lanes.data();
            for (int l = 0; l < lanes; l++) {
                const bool a = evalCmp(p.op, lhs[l], rhs[l]);
                act_[static_cast<std::size_t>(l)] = a;
                on += a;
            }
            return on;
        }
        vassert(!p.lhs.dataDependent() && !p.rhs.dataDependent(),
                "%s: address-form predicate with an index register "
                "cannot be lowered to a mask", desc_.name.c_str());
        AddrWalk lhs(p.lhs, stripCtx(strip, iter));
        AddrWalk rhs(p.rhs, stripCtx(strip, iter));
        for (int l = 0; l < lanes; l++, lhs.next(), rhs.next()) {
            const bool a =
                evalCmp(p.op, static_cast<double>(lhs.affine()),
                        static_cast<double>(rhs.affine()));
            act_[static_cast<std::size_t>(l)] = a;
            on += a;
        }
        return on;
    }

    /// Whether lane `l` executes, given activeFor()'s verdict.
    bool
    laneOn(int l, bool full) const
    {
        return full || act_[static_cast<std::size_t>(l)];
    }

    /**
     * Check every active lane's address, as the reference interpreter
     * checks every active thread's: a bad address dies naming the
     * kernel, the op and the buffer, whichever executor runs it.
     */
    void
    checkAddrs(const CudaInstr &i, int lanes, bool full) const
    {
        const bool global =
            i.op == CudaOp::LoadGlobal || i.op == CudaOp::StoreGlobal;
        for (int l = 0; l < lanes; l++) {
            if (!laneOn(l, full))
                continue;
            const std::int64_t a = addrs_[static_cast<std::size_t>(l)];
            if (global)
                checkGlobalIndex(desc_, i, a);
            else
                checkSharedIndex(desc_, i, a);
        }
    }

    /// Whether addrs_[0, lanes) is addrs_[0] + l.
    bool
    contiguousAddrs(const CudaInstr &i, int lanes) const
    {
        if (i.addr.dataDependent())
            return false;
        for (int l = 1; l < lanes; l++)
            if (addrs_[static_cast<std::size_t>(l)] != addrs_[0] + l)
                return false;
        return true;
    }

    /// Whether every lane of addrs_[0, lanes) is addrs_[0].
    bool
    uniformAddrs(int lanes) const
    {
        for (int l = 1; l < lanes; l++)
            if (addrs_[static_cast<std::size_t>(l)] != addrs_[0])
                return false;
        return true;
    }

    /// Affine vector value a0 + l*d over the strip's lanes.
    tpc::Vec
    affineVec(std::int64_t a0, std::int64_t d, int lanes)
    {
        const tpc::Vec &base = splat(static_cast<float>(a0), lanes);
        if (d == 0)
            return base;
        const tpc::Vec &io = iota(lanes);
        ctx_.setOpLabel("port:pred-mask");
        return ctx_.v_mac_s(io, static_cast<float>(d), base);
    }

    /// Lane values of one side of an address-form predicate; panics
    /// unless affine in the lane index (mask must be expressible).
    std::pair<std::int64_t, std::int64_t>
    affineOf(const AddrExpr &e, int strip, std::int64_t iter)
    {
        const int lanes = stripLanes(strip);
        AddrWalk w(e, stripCtx(strip, iter));
        const std::int64_t a0 = w.affine();
        if (lanes == 1)
            return {a0, 0};
        w.next();
        const std::int64_t d = w.affine() - a0;
        for (int l = 2; l < lanes; l++) {
            w.next();
            vassert(w.affine() == a0 + l * d,
                    "%s: predicate not affine in lane",
                    desc_.name.c_str());
        }
        return {a0, d};
    }

    /// Materialize the predicate as a 0/1 mask vector.
    tpc::Vec
    maskFor(const Pred &p, int strip, std::int64_t iter)
    {
        const int lanes = stripLanes(strip);
        if (p.onRegs) {
            const tpc::Vec &lhs = getReg(strip, p.lhsReg);
            const tpc::Vec &rhs = getReg(strip, p.rhsReg);
            return cmpVec(p.op, lhs, rhs, lanes);
        }
        const auto [a0, d0] = affineOf(p.lhs, strip, iter);
        const auto [a1, d1] = affineOf(p.rhs, strip, iter);
        const MaskKey key{strip, a0, d0, a1, d1, static_cast<int>(p.op)};
        auto it = masks_.find(key);
        if (it == masks_.end()) {
            const tpc::Vec lhs = affineVec(a0, d0, lanes);
            const tpc::Vec rhs = affineVec(a1, d1, lanes);
            it = masks_.emplace(key, cmpVec(p.op, lhs, rhs, lanes)).first;
        }
        return it->second;
    }

    tpc::Vec
    cmpVec(CmpOp op, const tpc::Vec &lhs, const tpc::Vec &rhs,
           int lanes)
    {
        switch (op) {
          case CmpOp::Lt:
            ctx_.setOpLabel("port:pred-mask");
            return ctx_.v_cmp_lt(lhs, rhs);
          case CmpOp::Ge:
            ctx_.setOpLabel("port:pred-mask");
            return ctx_.v_cmp_ge(lhs, rhs);
          case CmpOp::Eq:
            ctx_.setOpLabel("port:pred-mask");
            return ctx_.v_cmp_eq(lhs, rhs);
          case CmpOp::Ne: {
            const tpc::Vec &one = splat(1.0f, lanes);
            ctx_.setOpLabel("port:pred-mask");
            const tpc::Vec eq = ctx_.v_cmp_eq(lhs, rhs);
            return ctx_.v_sub(one, eq);
          }
        }
        vpanic("bad cmp op");
    }

    /// Blend `fresh` over the destination's prior value under `pred`.
    tpc::Vec
    blend(const CudaInstr &i, int strip, std::int64_t iter,
          const tpc::Vec &fresh)
    {
        const tpc::Vec &old = getReg(strip, i.dst);
        const tpc::Vec m = maskFor(i.pred, strip, iter);
        ctx_.setOpLabel("port:pred-blend");
        return ctx_.v_sel(m, fresh, old);
    }

    void
    emitSegment(const std::vector<const CudaStmt *> &items,
                std::int64_t iter)
    {
        const int unroll = std::max(1, opts_.stripUnroll);
        for (int g = 0; g < numStrips_; g += unroll) {
            const int gEnd = std::min(numStrips_, g + unroll);
            for (const CudaStmt *s : items) {
                if (s->kind == CudaStmt::Kind::Instr) {
                    for (int strip = g; strip < gEnd; strip++)
                        emitInstr(strip, s->instr, iter);
                    continue;
                }
                for (std::int64_t trip = 0; trip < s->loop.trips;
                     trip++) {
                    for (const CudaInstr &i : s->loop.body) {
                        for (int strip = g; strip < gEnd; strip++)
                            emitInstr(strip, i, trip);
                    }
                }
            }
        }
    }

    void
    emitChunk(const std::vector<const CudaInstr *> &instrs,
              std::int64_t iter)
    {
        const int unroll = std::max(1, opts_.stripUnroll);
        for (int g = 0; g < numStrips_; g += unroll) {
            const int gEnd = std::min(numStrips_, g + unroll);
            for (const CudaInstr *i : instrs) {
                for (int strip = g; strip < gEnd; strip++)
                    emitInstr(strip, *i, iter);
            }
        }
    }

    void
    emitInstr(int strip, const CudaInstr &i, std::int64_t iter)
    {
        switch (i.op) {
          case CudaOp::Sync:
            return; // Barriers are segmentation, not instructions.
          case CudaOp::LoadGlobal: return loadGlobal(strip, i, iter);
          case CudaOp::StoreGlobal: return storeGlobal(strip, i, iter);
          case CudaOp::LoadShared: return loadShared(strip, i, iter);
          case CudaOp::StoreShared: return storeShared(strip, i, iter);
          case CudaOp::AtomicAddShared:
            return atomicAddShared(strip, i, iter);
          case CudaOp::WarpReduceSum:
          case CudaOp::WarpReduceMax: {
            vassert(opts_.warpsPerStrip == 1,
                    "%s: warp reduction requires warpsPerStrip=1",
                    desc_.name.c_str());
            const tpc::Vec &src = getReg(strip, i.src0);
            ctx_.setOpLabel("port:warp-reduce");
            const tpc::Vec r = i.op == CudaOp::WarpReduceSum
                                   ? ctx_.v_reduce_add(src)
                                   : ctx_.v_reduce_max(src);
            setReg(strip, i.dst,
                   ctx_.v_broadcast(r, stripLanes(strip)));
            return;
          }
          default:
            return alu(strip, i, iter);
        }
    }

    void
    alu(int strip, const CudaInstr &i, std::int64_t iter)
    {
        const int lanes = stripLanes(strip);
        const int on = activeFor(i.pred, strip, iter);
        if (on == 0)
            return;
        const bool full = on == lanes;

        // Fetch operand vectors before setting the ALU label: lazy
        // register init / cached splats emit under their own labels.
        tpc::Vec v;
        if (i.op == CudaOp::MovImm) {
            v = splat(i.imm, lanes);
        } else if (i.op == CudaOp::Mov) {
            v = getReg(strip, i.src0); // Register rename: no instr.
        } else {
            const tpc::Vec &a = getReg(strip, i.src0);
            const bool binary =
                i.op == CudaOp::Add || i.op == CudaOp::Sub ||
                i.op == CudaOp::Mul || i.op == CudaOp::Max ||
                i.op == CudaOp::Fma;
            const tpc::Vec &b = binary ? getReg(strip, i.src1) : a;
            const tpc::Vec &c =
                i.op == CudaOp::Fma ? getReg(strip, i.src2) : a;
            const tpc::Vec &immv =
                i.op == CudaOp::AddImm ? splat(i.imm, lanes) : a;

            ctx_.setOpLabel("port:alu");
            switch (i.op) {
              case CudaOp::Add: v = ctx_.v_add(a, b); break;
              case CudaOp::Sub: v = ctx_.v_sub(a, b); break;
              case CudaOp::Mul: v = ctx_.v_mul(a, b); break;
              case CudaOp::Max: v = ctx_.v_max(a, b); break;
              case CudaOp::Fma: v = ctx_.v_mac(a, b, c); break;
              case CudaOp::AddImm: v = ctx_.v_add(a, immv); break;
              case CudaOp::MulImm: v = ctx_.v_mul_s(a, i.imm); break;
              case CudaOp::Exp: v = ctx_.v_exp(a); break;
              case CudaOp::Rsqrt: v = ctx_.v_rsqrt(a); break;
              case CudaOp::Recip: v = ctx_.v_reciprocal(a); break;
              default:
                vpanic("unhandled ALU op %s", cudaOpName(i.op));
            }
        }
        if (!full)
            v = blend(i, strip, iter, v);
        setReg(strip, i.dst, std::move(v));
    }

    void
    loadGlobal(int strip, const CudaInstr &i, std::int64_t iter)
    {
        const int lanes = stripLanes(strip);
        tpc::Tensor &t = tensors_[static_cast<std::size_t>(i.buf)];
        addrsFor(i, strip, iter);
        const int on = activeFor(i.pred, strip, iter);
        if (on == 0)
            return;
        const bool full = on == lanes;
        checkAddrs(i, lanes, full);

        tpc::Vec v;
        if (!i.addr.dataDependent() && uniformAddrs(lanes)) {
            ctx_.setOpLabel("port:ld-uniform");
            const tpc::Vec lv =
                ctx_.v_ld_tnsr({addrs_[0], 0, 0, 0, 0}, t, 4,
                               tpc::Access::Stream);
            v = ctx_.v_broadcast(lv, lanes);
        } else if (contiguousAddrs(i, lanes)) {
            vassert(addrs_[0] >= 0,
                    "%s: contiguous load underruns buffer '%s' "
                    "(allocate halo padding)", desc_.name.c_str(),
                    desc_.buffers[static_cast<std::size_t>(i.buf)]
                        .name.c_str());
            ctx_.setOpLabel("port:ld-warp");
            v = ctx_.v_ld_tnsr({addrs_[0], 0, 0, 0, 0}, t,
                               static_cast<Bytes>(lanes) * 4,
                               tpc::Access::Stream);
        } else {
            // Strided or data-dependent: shatter into per-lane 4 B
            // transactions assembled through local scratch.
            const tpc::Access acc = i.addr.dataDependent()
                                        ? tpc::Access::Random
                                        : tpc::Access::Stream;
            const tpc::Vec *old = full ? nullptr : &getReg(strip, i.dst);
            ctx_.setOpLabel("port:ld-shatter");
            if (old != nullptr)
                ctx_.v_st_local(scratchBase_, *old);
            for (int l = 0; l < lanes; l++) {
                if (!laneOn(l, full))
                    continue;
                const tpc::Vec lv = ctx_.v_ld_tnsr(
                    {addrs_[static_cast<std::size_t>(l)], 0, 0, 0, 0},
                    t, 4, acc);
                ctx_.v_st_local(scratchBase_ + l, lv);
            }
            setReg(strip, i.dst, ctx_.v_ld_local(scratchBase_, lanes));
            return; // Inactive lanes already carry the old value.
        }
        if (!full)
            v = blend(i, strip, iter, v);
        setReg(strip, i.dst, std::move(v));
    }

    void
    storeGlobal(int strip, const CudaInstr &i, std::int64_t iter)
    {
        const int lanes = stripLanes(strip);
        tpc::Tensor &t = tensors_[static_cast<std::size_t>(i.buf)];
        addrsFor(i, strip, iter);
        const int on = activeFor(i.pred, strip, iter);
        if (on == 0)
            return;
        const bool full = on == lanes;
        checkAddrs(i, lanes, full);
        const tpc::Vec &src = getReg(strip, i.src0);

        if (contiguousAddrs(i, lanes) && addrs_[0] >= 0) {
            if (full) {
                ctx_.setOpLabel("port:st-warp");
                ctx_.v_st_tnsr({addrs_[0], 0, 0, 0, 0}, t, src);
                return;
            }
            // Predicated store: TPC has no write masks — emulate with
            // a read-modify-write blend (extra read traffic).
            ctx_.setOpLabel("port:pred-blend");
            const tpc::Vec old =
                ctx_.v_ld_tnsr({addrs_[0], 0, 0, 0, 0}, t,
                               static_cast<Bytes>(lanes) * 4,
                               tpc::Access::Stream);
            const tpc::Vec m = maskFor(i.pred, strip, iter);
            ctx_.setOpLabel("port:pred-blend");
            const tpc::Vec merged = ctx_.v_sel(m, src, old);
            ctx_.setOpLabel("port:st-warp");
            ctx_.v_st_tnsr({addrs_[0], 0, 0, 0, 0}, t, merged);
            return;
        }

        const tpc::Access acc = i.addr.dataDependent()
                                    ? tpc::Access::Random
                                    : tpc::Access::Stream;
        ctx_.setOpLabel("port:st-shatter");
        ctx_.v_st_local(scratchBase_, src);
        for (int l = 0; l < lanes; l++) {
            if (!laneOn(l, full))
                continue;
            const tpc::Vec lv = ctx_.v_ld_local(scratchBase_ + l, 1);
            ctx_.v_st_tnsr(
                {addrs_[static_cast<std::size_t>(l)], 0, 0, 0, 0}, t,
                lv, acc);
        }
    }

    void
    loadShared(int strip, const CudaInstr &i, std::int64_t iter)
    {
        const int lanes = stripLanes(strip);
        addrsFor(i, strip, iter);
        const int on = activeFor(i.pred, strip, iter);
        if (on == 0)
            return;
        const bool full = on == lanes;
        checkAddrs(i, lanes, full);

        const bool uniform =
            !i.addr.dataDependent() && uniformAddrs(lanes);
        const bool contiguous = contiguousAddrs(i, lanes);

        tpc::Vec v;
        if (uniform) {
            ctx_.setOpLabel("port:shared-ld");
            const tpc::Vec lv = ctx_.v_ld_local(addrs_[0], 1);
            v = ctx_.v_broadcast(lv, lanes);
            if (!full)
                v = blend(i, strip, iter, v);
        } else if (contiguous && full && addrs_[0] >= 0 &&
                   addrs_[0] + lanes <= desc_.sharedElems) {
            ctx_.setOpLabel("port:shared-ld");
            v = ctx_.v_ld_local(addrs_[0], lanes);
        } else if (contiguous) {
            // Shifted / clipped window (e.g. a scan step reading
            // shared[tid - d]): realign through scratch and blend.
            const tpc::Vec &old = getReg(strip, i.dst);
            ctx_.setOpLabel("port:shared-ld");
            ctx_.v_st_local(scratchBase_, old);
            const std::int64_t lo = std::max<std::int64_t>(addrs_[0], 0);
            const std::int64_t hi = std::min<std::int64_t>(
                addrs_[0] + lanes, desc_.sharedElems);
            if (hi > lo) {
                const tpc::Vec part = ctx_.v_ld_local(
                    lo, static_cast<int>(hi - lo));
                ctx_.v_st_local(scratchBase_ + (lo - addrs_[0]), part);
            }
            v = ctx_.v_ld_local(scratchBase_, lanes);
            if (!full)
                v = blend(i, strip, iter, v);
        } else {
            // Per-lane local gather.
            const tpc::Vec *old = full ? nullptr : &getReg(strip, i.dst);
            ctx_.setOpLabel("port:shared-ld");
            if (old != nullptr)
                ctx_.v_st_local(scratchBase_, *old);
            for (int l = 0; l < lanes; l++) {
                if (!laneOn(l, full))
                    continue;
                const tpc::Vec lv = ctx_.v_ld_local(
                    addrs_[static_cast<std::size_t>(l)], 1);
                ctx_.v_st_local(scratchBase_ + l, lv);
            }
            v = ctx_.v_ld_local(scratchBase_, lanes);
        }
        setReg(strip, i.dst, std::move(v));
    }

    void
    storeShared(int strip, const CudaInstr &i, std::int64_t iter)
    {
        const int lanes = stripLanes(strip);
        addrsFor(i, strip, iter);
        const int on = activeFor(i.pred, strip, iter);
        if (on == 0)
            return;
        const bool full = on == lanes;
        checkAddrs(i, lanes, full);
        const tpc::Vec &src = getReg(strip, i.src0);

        ctx_.setOpLabel("port:shared-st");
        if (contiguousAddrs(i, lanes) && full && addrs_[0] >= 0 &&
            addrs_[0] + lanes <= desc_.sharedElems) {
            ctx_.v_st_local(addrs_[0], src);
            return;
        }
        // Per-lane scatter into local memory.
        ctx_.v_st_local(scratchBase_, src);
        for (int l = 0; l < lanes; l++) {
            if (!laneOn(l, full))
                continue;
            const tpc::Vec lv = ctx_.v_ld_local(scratchBase_ + l, 1);
            ctx_.v_st_local(addrs_[static_cast<std::size_t>(l)], lv);
        }
    }

    void
    atomicAddShared(int strip, const CudaInstr &i, std::int64_t iter)
    {
        const int lanes = stripLanes(strip);
        addrsFor(i, strip, iter);
        const int on = activeFor(i.pred, strip, iter);
        if (on == 0)
            return;
        const bool full = on == lanes;
        checkAddrs(i, lanes, full);
        const tpc::Vec &src = getReg(strip, i.src0);

        // Atomics have no TPC equivalent: the block owns its local
        // memory, so the lowering serializes lanes (read-add-write per
        // lane) — correct, and expensive in exactly the way the
        // scorecard should surface.
        ctx_.setOpLabel("port:atomic");
        ctx_.v_st_local(scratchBase_, src);
        for (int l = 0; l < lanes; l++) {
            if (!laneOn(l, full))
                continue;
            const std::int64_t a = addrs_[static_cast<std::size_t>(l)];
            const tpc::Vec lv = ctx_.v_ld_local(scratchBase_ + l, 1);
            const tpc::Vec hv = ctx_.v_ld_local(a, 1);
            const tpc::Vec nv = ctx_.v_add(hv, lv);
            ctx_.v_st_local(a, nv);
        }
    }

    struct MaskKey
    {
        int strip;
        std::int64_t a0, d0, a1, d1;
        int op;
        bool
        operator<(const MaskKey &o) const
        {
            return std::tie(strip, a0, d0, a1, d1, op) <
                   std::tie(o.strip, o.a0, o.d0, o.a1, o.d1, o.op);
        }
    };

    const CudaKernelDesc &desc_;
    const LowerOptions &opts_;
    tpc::TpcContext &ctx_;
    std::vector<tpc::Tensor> &tensors_;
    std::int64_t block_ = 0;
    int stripWidth_;
    int numStrips_;
    std::int64_t scratchBase_;
    /// regs_[strip * numRegs + r]; id < 0 = not yet written.
    std::vector<tpc::Vec> regs_;
    std::vector<std::int64_t> addrs_; ///< addrsFor()'s per-lane output.
    std::vector<char> act_;           ///< activeFor()'s per-lane output.
    std::map<std::pair<std::int32_t, int>, tpc::Vec> splats_;
    std::map<int, tpc::Vec> iotas_;
    std::map<MaskKey, tpc::Vec> masks_;
};

bool
usesWarpOps(const CudaKernelDesc &desc)
{
    auto instrHas = [](const CudaInstr &i) {
        return i.op == CudaOp::WarpReduceSum ||
               i.op == CudaOp::WarpReduceMax;
    };
    for (const CudaStmt &s : desc.body) {
        if (s.kind == CudaStmt::Kind::Instr) {
            if (instrHas(s.instr))
                return true;
        } else {
            for (const CudaInstr &i : s.loop.body)
                if (instrHas(i))
                    return true;
        }
    }
    return false;
}

} // namespace

PortRun
lowerAndRun(const CudaKernelDesc &desc, const LowerOptions &options)
{
    validateDesc(desc);
    vassert(options.warpsPerStrip >= 1 && options.warpsPerStrip <= 8,
            "%s: bad warpsPerStrip %d", desc.name.c_str(),
            options.warpsPerStrip);
    vassert(options.stripUnroll >= 1, "%s: bad stripUnroll %d",
            desc.name.c_str(), options.stripUnroll);
    if (options.warpsPerStrip > 1) {
        vassert(!usesWarpOps(desc),
                "%s: warpsPerStrip > 1 would widen warp reductions",
                desc.name.c_str());
    }

    // Shared state for the per-TPC kernel closures. The desc is
    // copied: the closure may outlive the caller's storage.
    auto descPtr = std::make_shared<CudaKernelDesc>(desc);
    auto tensors = std::make_shared<std::vector<tpc::Tensor>>();
    tensors->reserve(desc.buffers.size());
    for (const BufferDesc &b : desc.buffers) {
        tpc::Tensor &t = tensors->emplace_back(
            std::vector<std::int64_t>{b.elems}, DataType::FP32);
        fillBufferInit(b, t.data());
    }
    auto units = std::make_shared<std::vector<Unit>>(splitUnits(desc));

    const LowerOptions opts = options;
    tpc::Kernel kernel = [descPtr, tensors, units,
                          opts](tpc::TpcContext &ctx) {
        BlockLowerer lower(*descPtr, opts, ctx, *tensors);
        for (std::int64_t block = ctx.memberStart(1);
             block < ctx.memberEnd(1); block++)
            lower.run(*units, block);
    };

    tpc::IndexSpace space;
    space.size = {1, desc.gridBlocks, 1, 1, 1};
    tpc::LaunchParams params;
    params.numTpcs = static_cast<int>(std::min<std::int64_t>(
        opts.numTpcs, desc.gridBlocks));
    params.partitionDim = 1;
    params.vectorBytes =
        static_cast<Bytes>(warpSize * opts.warpsPerStrip) * 4;
    params.kernelName = desc.name;

    tpc::TpcDispatcher dispatcher;
    PortRun run;
    run.launch = dispatcher.launch(kernel, space, params);
    run.tensors = std::move(tensors);
    return run;
}

} // namespace vespera::port
